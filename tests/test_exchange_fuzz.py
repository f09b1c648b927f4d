"""Hypothesis fuzz of the exchange primitives (VERDICT r4 Next #6):
split/sample bucket hashing (`_rank_of`/`_bucket_of`), LSH band hashing
and the one partition function every exchange uses
(`fozziejoin_ray.exchange.partition_ids`) must be pure functions of the
logical value — invariant to block layout, null placement, dtype
representation and unicode boundaries. The null-key dtype bug in
hash_join sat latent for two rounds because TPC-H keys are never null;
these properties close the same hole for the other primitives. A
source scan keeps new partition ids from being hand-rolled."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fozziejoin_ray.exchange import partition_ids
from fozziejoin_ray.pipelines.split import _BUCKETS, _bucket_of, _rank_of

_keys = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=12),  # includes unicode + empty
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_keys, min_size=1, max_size=30), st.integers(0, 29), st.text(max_size=4))
def test_rank_of_invariant_to_chunk_layout(vals, cut, salt):
    """_rank_of over one Arrow array == over any chunked split of it,
    and the arrow path == the python-iterable fallback path."""
    if any(isinstance(v, str) for v in vals):
        vals = [str(v) if v is not None else None for v in vals]
    cut = min(cut, len(vals))
    arr = pa.array(vals)
    full = _rank_of(arr, salt)
    parts = [p for p in (vals[:cut], vals[cut:]) if p]
    chunked = pa.chunked_array([pa.array(p, type=arr.type) for p in parts])
    assert (full == _rank_of(chunked, salt)).all()
    # python-iterable fallback must agree with the Arrow fast path
    pyvals = [None if v is None else v for v in vals]
    assert (full == _rank_of(pyvals, salt)).all()
    b = _bucket_of(arr, salt)
    assert ((b >= 0) & (b < _BUCKETS)).all()


@settings(max_examples=150, deadline=None)
@given(st.lists(_keys, min_size=1, max_size=30), st.text(max_size=4))
def test_rank_of_int_width_and_null_stability(vals, salt):
    """int32 and int64 renderings of the same value hash alike, and a
    null key hashes like every other null key (the literal 'None')."""
    ints = [v for v in vals if isinstance(v, int) and -(2**31) < v < 2**31]
    if ints:
        a32 = pa.array(ints, pa.int32())
        a64 = pa.array(ints, pa.int64())
        assert (_rank_of(a32, salt) == _rank_of(a64, salt)).all()
    withnull = pa.array([None] + [v if not isinstance(v, int) else str(v) for v in vals], pa.string())
    h = _rank_of(withnull, salt)
    assert h[0] == _rank_of(pa.array([None], pa.string()), salt)[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_band_hashes_row_order_invariant(bands, nrows, seed):
    """LSH band-bucket hashes are per-row pure functions of the
    signature — permuting rows permutes hashes identically."""
    from fozziejoin_ray.pipelines.dedup import _band_hashes

    rng = np.random.RandomState(seed % 2**31)
    num_perm = bands * 4
    sig = rng.randint(0, 2**63, size=(nrows, num_perm)).astype(np.uint64)
    h = _band_hashes(sig, bands)
    perm = rng.permutation(nrows)
    hp = _band_hashes(sig[perm], bands)
    assert (h[perm] == hp).all()
    # duplicate signatures collide in every band
    sig2 = np.vstack([sig, sig[:1]])
    h2 = _band_hashes(sig2, bands)
    assert (h2[-1] == h2[0]).all()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=16),
)
def test_blocked_partition_hash_deterministic(bks, nparts):
    """Blocked-join partition ids (the shared exchange partition
    function over the full block key) are stable across calls and
    layouts (the unit of checkpoint resume)."""
    a = pa.array(bks, pa.string())
    h1 = partition_ids([a], nparts)
    h2 = partition_ids([pa.array(bks[::-1], pa.string())], nparts)[::-1]
    assert (h1 == h2).all()
    assert ((h1 >= 0) & (h1 < nparts)).all()


# ------------------------------------------------- exchange.partition_ids

_ints = st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1)
_parts = st.integers(min_value=1, max_value=64)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), min_size=1, max_size=40),
    st.lists(st.one_of(st.none(), st.text(max_size=8)), min_size=1, max_size=40),
    st.integers(0, 40),
    st.integers(0, 2**32),
    _parts,
)
def test_partition_ids_invariant_to_chunks_and_order(ints, strs, cut, seed, nparts):
    """Ids are a per-row pure function of the key tuple: any chunking
    of the columns and any row permutation give the same ids."""
    n = min(len(ints), len(strs))
    ints, strs = ints[:n], strs[:n]
    cut = min(cut, n)
    a, b = pa.array(ints, pa.int64()), pa.array(strs, pa.string())
    full = partition_ids([a, b], nparts)
    chunked = [
        pa.chunked_array([c.slice(0, cut), c.slice(cut)], type=c.type) for c in (a, b)
    ]
    assert (partition_ids(chunked, nparts) == full).all()
    perm = np.random.RandomState(seed % 2**31).permutation(n)
    idx = pa.array(perm)
    assert (partition_ids([a.take(idx), b.take(idx)], nparts) == full[perm]).all()
    assert ((full >= 0) & (full < nparts)).all()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ints, min_size=1, max_size=30),
    st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=30),
    _parts,
)
def test_partition_ids_dtype_stable(vals, big, nparts):
    """The same values as int32, int64, uint64 (< 2^63) and float64 in
    a block that also holds a null land alike."""
    i64 = partition_ids([pa.array(vals, pa.int64())], nparts)
    assert (partition_ids([pa.array(vals, pa.int32())], nparts) == i64).all()
    f64 = partition_ids([pa.array([float(v) for v in vals] + [None], pa.float64())], nparts)
    assert (f64[:-1] == i64).all()
    for ints in ([v for v in vals if v >= 0], big):
        if ints:
            u = partition_ids([pa.array(ints, pa.uint64())], nparts)
            assert (u == partition_ids([pa.array(ints, pa.int64())], nparts)).all()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.none(), _ints), min_size=1, max_size=30),
    st.lists(st.one_of(st.none(), st.text(max_size=6)), min_size=1, max_size=30),
    _parts,
)
def test_partition_ids_nulls_share_one_partition(ints, strs, nparts):
    """Every null key, whatever its column type (or an all-null block's
    `null` type), lands in one partition."""
    cols = [
        pa.array(ints, pa.int64()),
        pa.array([None if v is None else float(v) for v in ints], pa.float64()),
        pa.array(strs, pa.string()),
        pa.array([None] * len(ints), pa.null()),
    ]
    null_ids = set()
    for c in cols:
        ids = partition_ids([c], nparts)
        null_ids |= set(ids[~np.asarray(c.is_valid())].tolist())
    assert len(null_ids) <= 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30),
    st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=30),
    st.lists(st.text(max_size=12), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=2**20),
)
def test_partition_ids_match_hash_array_mod_p(i64, u64, strs, nparts):
    """Bit-for-bit compatibility with ``pd.util.hash_array(values) % P``
    for non-null int64, uint64 (< 2^63) and string columns: the formula
    the persisted LSH index, checkpoint tags and hash_join partitions
    were written with."""
    for arr, np_vals in (
        (pa.array(i64, pa.int64()), np.asarray(i64, np.int64)),
        (pa.array(u64, pa.uint64()), np.asarray(u64, np.uint64)),
        (pa.array(strs, pa.string()), np.asarray(strs, dtype=object)),
    ):
        want = (pd.util.hash_array(np_vals, categorize=False) % nparts).astype(np.int64)
        assert (partition_ids([arr], nparts) == want).all()


# ------------------------------------------------ hand-rolled hash guard

# The only pd.util.hash_array calls the package may make: CONTENT hashes,
# whose values are not partition ids. (module, qualified function) -> why.
_CONTENT_HASHES = {
    ("exchange.py", "_hash_i64"): "the partition function itself",
    ("exchange.py", "_hash_f64"): "the partition function itself",
    ("exchange.py", "_col_hash"): "the partition function itself",
    ("kernels/stablehash.py", "_hash_i64"): "value hashing kernel",
    ("kernels/stablehash.py", "_hash_f64"): "value hashing kernel",
    ("kernels/stablehash.py", "stable_col_hash"): "value hashing kernel",
    ("pipelines/lm.py", "_hash_pairs"): "lm bigram pair-count keys",
    ("pipelines/lm.py", "build_bigram_lm"): "lm prefix-count keys",
    ("pipelines/lm.py", "_lm_score_batch"): "lm prefix-count probe keys",
    ("pipelines/curation.py", "_gram_hashes"): "dup-gram membership set",
    ("pipelines/sketch.py", "_cms_hashes"): "count-min sketch rows",
    ("sources/docgen.py", "spansify_table"): "deterministic media ref",
    ("blocking/strategies.py", "value_salt_hash"): "AllPairs value salts",
    ("blocking/strategies.py", "id_salt_hash"): "hot-block id sub-salts",
    ("cluster/union_find.py", "_edges_checksum.fn"): "edge-set checksum",
}


def _attr_calls(attrs: set, sub: str = ""):
    """((module, qualified function), line) per ``*.<attr>(...)`` call,
    ``attr`` in ``attrs``, in the package source (under its subdirectory
    ``sub``)."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fozziejoin_ray" / sub
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node, qual, mod):
        if isinstance(node, scopes):
            qual = f"{qual}.{node.name}" if qual else node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in attrs
        ):
            yield (mod, qual or "<module>"), node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, qual, mod)

    for path in sorted(root.rglob("*.py")):
        yield from visit(ast.parse(path.read_text()), "", path.relative_to(root).as_posix())


def test_no_hand_rolled_partition_hash():
    """Every partition id comes from fozziejoin_ray.exchange; a new raw
    ``hash_array`` call must be a content hash added to the allowlist
    with its reason."""
    calls = list(_attr_calls({"hash_array"}))
    stray = [f"{m}:{ln} in {fn}()" for (m, fn), ln in calls if (m, fn) not in _CONTENT_HASHES]
    assert not stray, "raw hash_array outside the content-hash allowlist: " + ", ".join(stray)
    seen = {site for site, _ in calls}
    assert not set(_CONTENT_HASHES) - seen, "stale allowlist entries"


# ------------------------------------------------- block-key source guard

# Calls that compute a string method's block keys by hand. Under joins/,
# every key comes from a blocking strategy's emit_unique instead, so both
# string plans share one candidate definition.
_KEY_SOURCES = {"get_qgrams", "soundex_na_dual"}


def _hand_rolled_key_calls():
    """(module, line, call) per call under fozziejoin_ray/joins/ to a
    q-gram or soundex key function, or to ``SoundexBlocks._codes``."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fozziejoin_ray" / "joins"
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            soundex_codes = (
                isinstance(f, ast.Attribute)
                and f.attr == "_codes"
                and isinstance(f.value, ast.Name)
                and f.value.id == "SoundexBlocks"
            )
            if name in _KEY_SOURCES or soundex_codes:
                yield path.name, node.lineno, ast.unparse(f)


def test_join_block_keys_come_from_strategies():
    """No join module computes q-grams or soundex codes for its
    candidates: block keys come only from ``strategy.emit_unique``."""
    stray = [f"{m}:{ln} calls {fn}()" for m, ln, fn in sorted(_hand_rolled_key_calls())]
    assert not stray, "hand-rolled block keys under joins/: " + ", ".join(stray)


# ------------------------------------------------ broadcast collect guard

# The only places under joins/ that iterate a Dataset's blocks: the one
# collect of a broadcast side, the regex join's pattern shards (built one
# shard at a time), the row-id pass and hash_join's broadcast (both pass
# block refs to tasks). A hand-rolled collect is how an empty right side
# crashed the numeric joins' broadcast plans.
_COLLECTS = {"iter_batches", "to_arrow_refs", "iter_internal_ref_bundles"}
_STREAMS = {
    ("rowids.py", "collect_columns"),
    ("rowids.py", "ensure_row_id"),
    ("hashjoin.py", "hash_join"),
    ("regex_join.py", "fuzzy_regex_join.shard_stream"),
}


def test_no_hand_rolled_collects():
    """Every ``.iter_batches(``, ``.to_arrow_refs(`` or
    ``.iter_internal_ref_bundles(`` under fozziejoin_ray/joins/ is one of
    the allowed streams; a broadcast side goes through
    ``rowids.collect_columns``."""
    calls = list(_attr_calls(_COLLECTS, "joins"))
    stray = [f"{m}:{ln} in {fn}()" for (m, fn), ln in calls if (m, fn) not in _STREAMS]
    assert not stray, "collect outside collect_columns: " + ", ".join(stray)
    assert {site for site, _ in calls} == _STREAMS, "stale allowlist entries"


# ------------------------------------------------------- raw groupby guard

# The only groupby-map_groups sites (exchange() runs none): each scores or
# writes one group (an IVF or centroid bucket, a cluster, a packing
# bucket, a blocking-stats key, a checkpoint partition, a PageRank
# owner) rather than a hash partition of several keys. New co-location
# goes through exchange().
_GROUP_MAPS = {
    ("pipelines/ann.py", "ivf_topk"),
    ("pipelines/ann.py", "embedding_dup_pairs_bucketed"),
    ("pipelines/ann.py", "semdedup"),
    ("pipelines/pack.py", "pack_sequences"),
    ("pipelines/blockstats.py", "blocking_stats"),
    ("state/checkpoint.py", "Manifest.run_stage_partitioned"),
    ("cluster/pagerank.py", "_pagerank_shuffle"),
}


def test_no_raw_map_groups():
    """Every ``.map_groups(`` in the package is one of the allowed
    per-group sites."""
    calls = list(_attr_calls({"map_groups"}))
    stray = [f"{m}:{ln} in {fn}()" for (m, fn), ln in calls if (m, fn) not in _GROUP_MAPS]
    assert not stray, "map_groups outside the allowed sites: " + ", ".join(stray)
    assert {site for site, _ in calls} == _GROUP_MAPS, "stale allowlist entries"


# ------------------------------------------------------- actor pool guard

_POOL_KWARGS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}


def _actor_pool_maps():
    """(module, line) per ``.map_batches(`` call in the package that
    starts an actor pool: a pool keyword, or a class as the function."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fozziejoin_ray"
    trees = {
        p.relative_to(root).as_posix(): ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))
    }
    classes = {n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
            ):
                continue
            fns = node.args[:1] + [k.value for k in node.keywords if k.arg == "fn"]
            named = {getattr(f, "id", getattr(f, "attr", None)) for f in fns}
            if {k.arg for k in node.keywords} & _POOL_KWARGS or named & classes:
                yield mod, node.lineno


def test_no_actor_pools():
    """Every ``map_batches`` stage in the package is a plain task: a
    broadcast scorer reads one ``ray.put`` object per batch instead of
    holding it in an actor pool started on every call."""
    stray = [f"{m}:{ln}" for m, ln in _actor_pool_maps()]
    assert not stray, "actor-pool map_batches: " + ", ".join(stray)


# Plan knobs that are module constants (batch sizes, the auto-strategy
# row limit, the interval long-tail cutoff). The regex join keeps
# broadcast_threshold: it is also its shard size.
_PLAN_KNOBS = {"concurrency", "batch_size", "broadcast_threshold", "broadcast_limit", "long_cutoff"}


def test_public_joins_take_no_plan_knobs():
    """Neither the public joins nor the public functions of any
    ``fozziejoin_ray.pipelines`` module take a plan knob."""
    import importlib
    import inspect
    import pkgutil

    import fozziejoin_ray
    import fozziejoin_ray.pipelines as pipelines

    for name in fozziejoin_ray.__all__:
        if not (name.startswith("fuzzy_") and name.endswith("_join")):
            continue
        params = set(inspect.signature(getattr(fozziejoin_ray, name)).parameters)
        allowed = {"broadcast_threshold"} if name == "fuzzy_regex_join" else set()
        assert not (params & _PLAN_KNOBS) - allowed, (name, params & _PLAN_KNOBS)

    for info in pkgutil.iter_modules(pipelines.__path__):
        mod = importlib.import_module(f"{pipelines.__name__}.{info.name}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != mod.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            assert not params & _PLAN_KNOBS, (mod.__name__, name, params & _PLAN_KNOBS)


# ------------------------------------------------------ exchange() itself


def _key_block(kind: str, ids: list, keys: list):
    """One input block of rows ``(id, k)``. Arrow kinds: "int" (int64
    keys, nulls dropped), "float" (float64, nullable), "null" (an
    all-null, null-typed key column); "pandas": a pandas block, whose
    null keys degrade the column to float64 (NaN) or, all null, object."""
    if kind == "int":
        ids, keys = [i for i, k in zip(ids, keys) if k is not None], [k for k in keys if k is not None]
        return pa.table({"id": pa.array(ids, pa.int64()), "k": pa.array(keys, pa.int64())})
    if kind == "float":
        return pa.table({"id": pa.array(ids, pa.int64()), "k": pa.array(keys, pa.float64())})
    if kind == "null":
        return pa.table({"id": pa.array(ids, pa.int64()), "k": pa.nulls(len(ids))})
    return pd.DataFrame({"id": pd.Series(ids, dtype="int64"), "k": keys})


def _tag_rows(empty: bool):
    """Partition functions, pyarrow and pandas: each row tagged with the
    smallest id of its batch (or no rows); every batch must hold rows."""

    def arrow(t: pa.Table) -> pa.Table:
        assert t.num_rows
        if empty:
            return pa.table({"id": pa.array([], pa.int64()), "first": pa.array([], pa.int64())})
        first = pa.array(np.full(t.num_rows, pa.compute.min(t["id"]).as_py()), pa.int64())
        return pa.table({"id": t["id"], "first": first})

    def pandas(df: pd.DataFrame) -> pd.DataFrame:
        assert len(df)
        out = df[["id"]].assign(first=df["id"].min())
        return out.iloc[:0] if empty else out

    return {"pyarrow": arrow, "pandas": pandas}


_block_draw = st.tuples(
    st.sampled_from(["int", "float", "null", "pandas"]),
    st.lists(st.one_of(st.none(), st.integers(-3, 40)), max_size=6),
)


@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.lists(_block_draw, min_size=1, max_size=64),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from([1, 3, 8]),
    st.sampled_from(["pyarrow", "pandas"]),
    st.booleans(),
)
def test_exchange_equals_groupby_by_partition_ids(blocks, n_ds, as_list, nparts, fmt, empty):
    """exchange() of 1-64 blocks (empty ones among them; int64, float64,
    all-null and pandas keys in one input; one Dataset or several) calls
    its function once per non-empty partition, on exactly the rows a
    pandas groupby on ``partition_ids`` of the logical key puts together."""
    import ray.data as rd

    from fozziejoin_ray.exchange import exchange

    # ids count drawn rows, not kept ones: an int block drops its null
    # rows, and every id must stay unique for the groupby on "first"
    ids, keys, made, drawn = [], [], [], 0
    for kind, ks in blocks:
        bid = list(range(drawn, drawn + len(ks)))
        drawn += len(ks)
        block = _key_block(kind, bid, ks)
        made.append(block)
        kept = block["id"].to_pylist() if kind == "int" else bid
        ids += kept
        keys += [None if kind == "null" else k for i, k in zip(bid, ks) if i in set(kept)]
    cuts = sorted({0, len(made), *(len(made) * j // n_ds for j in range(1, n_ds))})
    groups = [made[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    # one Dataset per run of one block format, inside each drawn group
    inputs = []
    for g in groups:
        run = [g[0]]
        for b in g[1:]:
            if isinstance(b, pd.DataFrame) == isinstance(run[0], pd.DataFrame):
                run.append(b)
            else:
                inputs.append(run)
                run = [b]
        inputs.append(run)
    dss = [rd.from_pandas(r) if isinstance(r[0], pd.DataFrame) else rd.from_arrow(r) for r in inputs]
    ds = dss if len(dss) > 1 or as_list else dss[0]

    out = exchange(ds, "k", nparts, _tag_rows(empty)[fmt], batch_format=fmt).to_pandas()
    logical = pa.array([None if k is None else float(k) for k in keys], pa.float64())
    ref = pd.DataFrame({"id": ids, "p": partition_ids([logical], nparts)})
    want = {frozenset(g["id"]) for _, g in ref.groupby("p")}
    if empty or not ids:
        assert len(out) == 0
        return
    assert sorted(out["id"]) == sorted(ids)
    assert {frozenset(g["id"]) for _, g in out.groupby("first")} == want


@pytest.mark.parametrize("n_blocks", [2, 64])
def test_exchange_width_is_nonempty_partitions(n_blocks):
    """At P = 8 the partition function runs once per non-empty partition,
    whatever the input's block count."""
    import ray.data as rd

    from fozziejoin_ray.exchange import exchange

    t = pa.table({"k": np.arange(4096) % 100})
    step = t.num_rows // n_blocks
    ds = rd.from_arrow([t.slice(i * step, step) for i in range(n_blocks)])
    want = len(np.unique(partition_ids([t["k"]], 8)))
    out = exchange(ds, "k", 8, lambda b: pa.table({"n": [b.num_rows]}), batch_format="pyarrow")
    assert out.num_blocks() == want == out.count()
    assert out.sum("n") == t.num_rows


def test_exchange_emits_only_partition_function_blocks():
    """With fewer distinct keys than partitions no empty partition
    reaches the function and every output block carries its schema: no
    column-less empty blocks."""
    import ray
    import ray.data as rd

    from fozziejoin_ray.exchange import exchange

    t = pa.table({"k": [5, 5, 9, 9, 9], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    ds = rd.from_arrow([t.slice(0, 3), t.slice(3), t.slice(0, 0)])

    def total(df: pd.DataFrame) -> pd.DataFrame:
        assert len(df)
        return pd.DataFrame({"k": [df["k"].iloc[0]], "v": [df["v"].sum()]})

    out = exchange(ds, "k", 8, total, batch_format="pandas")
    blocks = [ray.get(r) for b in out.iter_internal_ref_bundles() for r in b.block_refs]
    assert len(blocks) == len(np.unique(partition_ids([t["k"]], 8)))
    assert all(b.column_names == ["k", "v"] and b.num_rows for b in blocks)
    assert sorted(out.take_all(), key=lambda r: r["k"]) == [{"k": 5, "v": 3.0}, {"k": 9, "v": 12.0}]


def test_exchange_is_sort_free():
    """exchange() co-locates with plain tasks: no groupby, sort,
    map_groups or repartition in its module."""
    shuffles = {"groupby", "sort", "sort_by", "map_groups", "repartition"}
    assert not [ln for (mod, _), ln in _attr_calls(shuffles) if mod == "exchange.py"]
