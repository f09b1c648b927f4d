"""Property tests for the blocked string-join hot path: the deletion-
neighborhood strategy + bag prefilter + equality short-circuit must be
invisible — blocked edges always equal broadcast edges (two-table) or a
brute-force reference (self-join), on adversarial corpora (tiny
alphabets dense with near-matches, unicode, empties, duplicates, the
salt delimiter character itself). The two plans share their scorer, so
each is also checked on its own against an all-pairs brute force."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fozziejoin_ray import fuzzy_string_join
from fozziejoin_ray.joins.blocked import build_edges_blocked
from fozziejoin_ray.kernels.strdist import score_pairs

# ';' / '\x1f' attack the salt-header format; 'é'/'中' the unicode path.
# '\x00' is excluded: R strings cannot contain embedded NUL, so the
# reference's data model rules it out of key values (blocked.py docs).
_ALPHA = "ab;\x1fé中"
_word = st.text(alphabet=_ALPHA, min_size=0, max_size=6)
_corpus = st.lists(_word, min_size=1, max_size=25)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(L=_corpus, R=_corpus, method=st.sampled_from(["lv", "osa", "dl"]), d=st.integers(0, 2))
def test_blocked_equals_broadcast_fuzz(L, R, method, d):
    l = rd.from_arrow(pa.table({"lid": list(range(len(L))), "wl": L}))
    r = rd.from_arrow(pa.table({"rid": list(range(len(R))), "wr": R}))

    def run(strategy):
        out = fuzzy_string_join(
            l, r, by={"wl": "wr"}, method=method, max_distance=d,
            how="inner", distance_col="dd", left_id="lid", right_id="rid",
            strategy=strategy,
        )
        return sorted((x["lid"], x["rid"], x["dd"]) for x in out.take_all())

    assert run("blocked") == run("broadcast")


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(vals=_corpus, d=st.integers(0, 2))
def test_blocked_selfjoin_matches_bruteforce_fuzz(vals, d):
    """Self-join edges (id_a < id_b, once per unordered pair) vs an
    all-pairs brute force through the exact kernel."""
    n = len(vals)
    ds = rd.from_arrow(pa.table({"lid": list(range(n)), "wl": vals}))
    e = build_edges_blocked(
        ds, None, [("wl", "wl")], "levenshtein", float(d), 2, 0, 0.0, "lid", None
    )
    got = sorted((x["__fj_lid"], x["__fj_rid"], x["__fj_d0"]) for x in e.take_all())

    ia, ib = np.triu_indices(n, k=1)
    dist = score_pairs("lv", [vals[i] for i in ia], [vals[j] for j in ib])
    keep = dist <= d
    want = sorted(
        (int(a), int(b), float(x)) for a, b, x in zip(ia[keep], ib[keep], dist[keep])
    )
    assert got == want


# ------------------------------------------------------------ salt census

_BLOCK_COUNTS = st.lists(st.integers(0, 40), min_size=1, max_size=4)


def _count_plan(counts: dict, pair_budget: int, selfjoin: bool, floor: int) -> dict:
    """The salt plan from a full count: every block with a side over
    ``floor``, planned from the true counts of all its sides."""
    import math

    by_bk: dict = {}
    for (bk, side), n in counts.items():
        by_bk.setdefault(bk, {})[side] = n
    plan = {}
    for bk, sides in by_bk.items():
        if max(sides.values()) <= floor:
            continue
        cl, cr = sides.get(0, 0), sides.get(1, 0)
        pairs = cl * (cl - 1) // 2 if selfjoin else cl * cr
        if pairs <= pair_budget:
            continue
        if selfjoin:
            k = max(2, math.ceil(math.sqrt(pairs / pair_budget * 2)))
            plan[bk] = (k, k)
        else:
            ratio = max(1.0, pairs / pair_budget)
            sl = max(1, math.ceil(math.sqrt(ratio * max(1, cl) / max(1, cr))))
            plan[bk] = (sl, max(1, math.ceil(ratio / sl)))
    return plan


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spread=st.dictionaries(
        st.tuples(st.sampled_from(["a", "b;", "é", "\x01T2:0_1;a"]), st.integers(0, 1)),
        _BLOCK_COUNTS,
        max_size=6,
    ),
    n_blocks=st.integers(1, 4),
    selfjoin=st.booleans(),
)
def test_census_equals_count(spread, n_blocks, selfjoin):
    """hot_key_census returns exactly the (block, side) keys of every
    block a full count puts over the floor on some side, with their
    counts, and _plan_salts makes the plan of a full count. A block key
    spread thinly over every block (each partial at the pigeonhole
    threshold, or one under it) puts the threshold on the decision
    boundary."""
    import math

    import pandas as pd

    from fozziejoin_ray.census import hot_key_census
    from fozziejoin_ray.joins.blocked import BK, SIDE, _plan_salts

    floor = 64
    thresh = math.ceil((floor + 1) / n_blocks)
    spread = {(bk, 0 if selfjoin else s): c for (bk, s), c in spread.items()}
    spread[("thin", 0)] = [thresh] * n_blocks
    spread[("cold", 0)] = [thresh - 1] * n_blocks
    blocks = []
    for b in range(n_blocks):
        bks, sides = [], []
        for (bk, side), counts in spread.items():
            n = counts[b] if b < len(counts) else 0
            bks += [bk] * n
            sides += [side] * n
        blocks.append(
            pa.table({BK: pa.array(bks, pa.string()), SIDE: pa.array(sides, pa.int8())})
        )
    ds = rd.from_arrow(blocks)
    assert ds.num_blocks() == n_blocks

    full = pd.concat([b.to_pandas() for b in blocks]).groupby([BK, SIDE]).size()
    hot_bks = {bk for (bk, _), n in full.items() if n > floor}
    want = {k: int(n) for k, n in full.items() if k[0] in hot_bks}
    hot = hot_key_census([(ds, lambda t: t)], blocks[0].schema, floor)
    got = dict(zip(zip(hot[BK].to_pylist(), hot[SIDE].to_pylist()), hot["count_all"].to_pylist()))
    assert got == want
    assert ("thin", 0) in got and ("cold", 0) not in got

    budget = 100  # floor = max(64, sqrt(budget)) = 64
    assert _plan_salts([(ds, lambda t: t)], budget, selfjoin) == _count_plan(
        {k: int(n) for k, n in full.items()}, budget, selfjoin, floor
    )


def test_one_sided_hot_block_is_salted():
    """A block whose right side is under the census floor is still
    planned from both sides' counts: 200 left x 3 right rows is 600
    pairs, over a budget of 100 (floor 64), and gets a salt grid; the
    salted join equals the unsalted one."""
    from fozziejoin_ray.blocking.strategies import strategy_for
    from fozziejoin_ray.joins.blocked import _emit_batches, _plan_salts

    l = rd.from_arrow(pa.table({"lid": list(range(200)), "w": ["abc"] * 200})).materialize()
    r = rd.from_arrow(pa.table({"rid": [0, 1, 2], "w": ["abc"] * 3})).materialize()
    strategy = strategy_for("lv", 0, 2)  # one block per value: Dabc
    sources = [
        (l, _emit_batches(strategy, "left", "lid", ["w"], None, keys_only=True)),
        (r, _emit_batches(strategy, "right", "rid", ["w"], None, keys_only=True)),
    ]
    assert _plan_salts(sources, 100, False) == {"Dabc": (20, 1)}

    def edges(**kw):
        e = build_edges_blocked(l, r, [("w", "w")], "lv", 0.0, 2, 0, 0.0, "lid", "rid", **kw)
        return sorted((x["__fj_lid"], x["__fj_rid"], x["__fj_d0"]) for x in e.take_all())

    salted = edges(pair_budget=100, num_partitions=4)
    assert len(salted) == 600 and salted == edges(pair_budget=None)


@settings(max_examples=10, deadline=None)
@given(vals=_corpus, side=st.sampled_from(["left", "right", "self"]), d=st.integers(0, 2))
def test_keys_only_emission_is_the_full_emissions_keys(vals, side, d):
    """The salt census's keys-only emission yields exactly the (block,
    side) rows of the full emission, in order."""
    from fozziejoin_ray.blocking.strategies import strategy_for
    from fozziejoin_ray.joins.blocked import BK, SIDE, _emit_batches

    t = pa.table({"lid": list(range(len(vals))), "wl": vals})
    strategy = strategy_for("lv", d, 2)
    full = _emit_batches(strategy, side, "lid", ["wl"], None)(t)
    keys = _emit_batches(strategy, side, "lid", ["wl"], None, keys_only=True)(t)
    assert keys.equals(full.select([BK, SIDE]))


def test_blocked_full_join_is_one_exchange(monkeypatch):
    """A blocked full join of two small materialized tables makes one
    exchange (the score exchange), no Dataset.groupby and no
    groupby().count(): the salt plan is a census and all four assembly
    joins broadcast."""
    from ray.data.grouped_data import GroupedData

    from fozziejoin_ray.joins import blocked, hashjoin

    names = ["anna", "anne", "bob", "rob", "carl", "karl", "dave", ""]
    l = rd.from_arrow(pa.table({"lid": list(range(8)), "name": names}))
    r = rd.from_arrow(pa.table({"rid": list(range(8)), "name": names[::-1]}))

    def join(strategy):
        out = fuzzy_string_join(
            l, r, by="name", method="lv", max_distance=1, how="full",
            left_id="lid", right_id="rid", strategy=strategy, num_partitions=4,
        )
        return sorted(map(repr, (tuple(d.values()) for d in out.take_all())))

    want = join("broadcast")
    calls = {"exchange": 0, "groupby": 0, "count": 0}

    def count(owner, name, key):
        orig = getattr(owner, name)

        def fn(*a, **kw):
            calls[key] += 1
            return orig(*a, **kw)

        monkeypatch.setattr(owner, name, fn)

    count(blocked, "exchange", "exchange")
    count(hashjoin, "exchange", "exchange")
    count(rd.Dataset, "groupby", "groupby")
    count(GroupedData, "count", "count")
    assert join("blocked") == want
    assert calls == {"exchange": 1, "groupby": 0, "count": 0}


# ------------------------------------------- both plans vs brute force

# (method, max_distance) cases; the edit family at every integer d the
# strategies treat differently (deletion blocks at d <= 2, length window
# above), the gram family below 1 and at 1.0 (all pairs)
_BRUTE_CASES = [
    (m, d) for m in ("lv", "osa", "dl", "lcs") for d in (0, 1, 2, 3)
] + [
    ("hamming", 1), ("qgram", 2), ("cosine", 0.5), ("cosine", 1.0),
    ("jaccard", 0.5), ("jaccard", 1.0), ("jw", 0.25), ("soundex", 0.0),
]
# spaces and capitals drive soundex's prefix/camel-case tokenizer
_ALPHA_BRUTE = "aAbBdDe é中;"
# values of 20-28 chars straddle DeletionBlocks' d = 2 length cap (24),
# so long-long and long-short pairs meet in its length-window family
_long = st.builds(lambda n, t: "a" * n + t, st.integers(20, 26), st.sampled_from(["", "b", "bD"]))
_cell = st.one_of(st.none(), st.text(alphabet=_ALPHA_BRUTE, min_size=0, max_size=6), _long)
_rows = st.lists(st.tuples(_cell, _cell), min_size=1, max_size=10)


def _bruteforce(L, R, method, d, nkeys, **kw):
    """All row pairs whose keys are non-null and within ``d``: the first
    key through ``score_pairs``, keys 2..n through ``refine_score``."""
    from fozziejoin_ray.joins.string_join import refine_score

    pairs = [(i, j) for i in range(len(L)) for j in range(len(R))]
    dists = []
    for k, score in enumerate([score_pairs, refine_score][:nkeys]):
        ok = [(i, j) for i, j in pairs if L[i][k] is not None and R[j][k] is not None]
        dk = score(method, [L[i][k] for i, j in ok], [R[j][k] for i, j in ok], **kw)
        dists.append(dict(zip(ok, dk)))
    return sorted(
        (i, j) + tuple(round(float(dists[k][i, j]), 9) for k in range(nkeys))
        for i, j in pairs
        if all((i, j) in dk and dk[i, j] <= d for dk in dists)
    )


@pytest.mark.parametrize("method,d", _BRUTE_CASES)
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_string_plans_equal_bruteforce(method, d, data):
    """Both plans' two-table edges equal an all-pairs brute force over
    the full cross product: nulls, empty strings, unicode, long values,
    duplicate rows (the right side repeats some left rows) and a
    two-key ``by``."""
    from fozziejoin_ray.joins.string_join import build_edges_broadcast

    L = data.draw(_rows, "left")
    R = data.draw(_rows, "right") + data.draw(st.lists(st.sampled_from(L), max_size=3), "dups")
    nkeys = data.draw(st.integers(1, 2), "nkeys")
    kw = {"q": data.draw(st.integers(1, 3), "q"), "max_prefix": 0, "prefix_weight": 0.0}
    if method == "jw" and data.draw(st.booleans(), "prefix"):
        kw.update(max_prefix=4, prefix_weight=0.1)
    l = rd.from_arrow(pa.table({
        "lid": list(range(len(L))),
        "a0": pa.array([x[0] for x in L], pa.string()),
        "a1": pa.array([x[1] for x in L], pa.string()),
    }))
    r = rd.from_arrow(pa.table({
        "rid": list(range(len(R))),
        "b0": pa.array([x[0] for x in R], pa.string()),
        "b1": pa.array([x[1] for x in R], pa.string()),
    }))
    by = [("a0", "b0"), ("a1", "b1")][:nkeys]
    want = _bruteforce(L, R, method, d, nkeys, **kw)
    args = (by, method, d, kw["q"], kw["max_prefix"], kw["prefix_weight"], "lid", "rid")
    for build in (build_edges_broadcast, build_edges_blocked):
        extra = {"num_partitions": 2} if build is build_edges_blocked else {}
        got = sorted(
            (e["__fj_lid"], e["__fj_rid"]) + tuple(round(e[f"__fj_d{k}"], 9) for k in range(nkeys))
            for e in build(l, r, *args, **extra).take_all()
        )
        assert got == want, build.__name__


@pytest.mark.parametrize(
    "method,d,kw",
    [("jaccard", 1.0, {}), ("jw", 0.5, {"max_prefix": 4, "prefix_weight": 0.1})],
)
def test_equal_values_keep_their_distance(method, d, kw):
    """Equal values are not always at distance 0: counted jaccard puts
    two values shorter than q at 1.0, and jaro-winkler's prefix
    adjustment puts two equal values at l*p. Neither plan may shortcut
    them to 0."""
    from fozziejoin_ray.joins.string_join import build_edges_broadcast

    vals = ["a", "abc"]
    t = pa.table({"id": [0, 1], "k": vals})
    ds = rd.from_arrow(t)
    kw = {"q": 2, "max_prefix": 0, "prefix_weight": 0.0, **kw}
    want = _bruteforce([(v,) for v in vals], [(v,) for v in vals], method, d, 1, **kw)
    args = ([("k", "k")], method, d, kw["q"], kw["max_prefix"], kw["prefix_weight"], "id", "id")
    for build in (build_edges_broadcast, build_edges_blocked):
        got = sorted((e["__fj_lid"], e["__fj_rid"], round(e["__fj_d0"], 9)) for e in build(ds, ds, *args).take_all())
        assert got == want, build.__name__


# ------------------------------------- partition scorer, every strategy

# every family the scorer's ownership masks serve: the edit family at
# each integer d (deletion blocks at d <= 2, length window at 3), the
# gram family with and without the short-string block, soundex codes,
# and the salted all-pairs grid/triangle (jw; cosine/jaccard at 1.0)
_FAMILY_CASES = [
    (m, d) for m in ("lv", "osa", "dl", "hamming", "lcs") for d in (0, 1, 2, 3)
] + [
    ("qgram", 2), ("cosine", 0.5), ("cosine", 1.0), ("jaccard", 0.5),
    ("jaccard", 1.0), ("soundex", 0.0), ("jw", 0.25),
]
# 20-70 chars straddle DeletionBlocks' length caps at d = 2 (24) and
# d = 1 (64), so X-blocks (long values) occur
_long_word = st.builds(
    lambda n, t: "a" * n + t, st.integers(20, 70), st.sampled_from(["", "b", "bD"])
)
_fam_word = st.one_of(st.text(alphabet="aAbBdDe é中;", max_size=6), _long_word)
_fam_corpus = st.lists(_fam_word, min_size=1, max_size=20)


def _inprocess_blocked(L, R, method, d, budget, nparts, ids=None, ckpt=None):
    """The blocked plan without Ray: each side's emission under the salt
    plan of its exact block counts (pairs over ``budget`` are salted),
    hash-partitioned on the block key as ``exchange()`` does, and every
    partition scored by ``_make_partition_scorer``. ``R=None`` is a
    self-join. Returns the partitions' edge tables."""
    from fozziejoin_ray.blocking.strategies import strategy_for
    from fozziejoin_ray.exchange import partition_ids
    from fozziejoin_ray.joins.blocked import BK, SIDE, _emit_batches, _make_partition_scorer
    from fozziejoin_ray.semantics import canon_method

    method = canon_method(method)
    selfjoin = R is None
    strategy = strategy_for(method, d, 2, allpairs_salts=(3, 2))
    sides = [("self", L)] if selfjoin else [("left", L), ("right", R)]
    tables = [
        pa.table({
            "id": ids if ids is not None else list(range(len(v))), "w": pa.array(v, pa.string()),
        })
        for _, v in sides
    ]
    counts: dict = {}
    for (side, _), t in zip(sides, tables):
        k = _emit_batches(strategy, side, "id", ["w"], None, keys_only=True)(t)
        for bk, s in zip(k[BK].to_pylist(), k[SIDE].to_pylist()):
            counts[bk, s] = counts.get((bk, s), 0) + 1
    salts = _count_plan(counts, budget, selfjoin, floor=0) or None
    emitted = pa.concat_tables(
        _emit_batches(strategy, side, "id", ["w"], salts)(t) for (side, _), t in zip(sides, tables)
    )
    score = _make_partition_scorer({
        "method": method, "max_distance": d, "q": 2, "max_prefix": 0, "prefix_weight": 0.0,
        "selfjoin": selfjoin, "left_keys": ["w"], "right_keys": ["w"],
        "allpairs_salts": (3, 2), "ckpt_parts": ckpt,
    })
    part = partition_ids([emitted.column(BK)], nparts)
    return [score(emitted.filter(pa.array(part == p))) for p in range(nparts)], salts


def _edges(tables):
    return sorted(
        (e["__fj_lid"], e["__fj_rid"], round(e["__fj_d0"], 9))
        for t in tables for e in t.to_pylist()
    )


@pytest.mark.parametrize("method,d", _FAMILY_CASES)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    L=_fam_corpus, R=_fam_corpus, dups=st.integers(0, 4),
    budget=st.integers(1, 8), nparts=st.integers(1, 4),
)
def test_partition_scorer_two_table_equals_broadcast(method, d, L, R, dups, budget, nparts):
    """Two-table edges of the partition scorer, salted under a small
    pair budget (duplicate rows make hot blocks), equal the broadcast
    scorer's."""
    from fozziejoin_ray.blocking.strategies import strategy_for
    from fozziejoin_ray.joins import string_join as sj
    from fozziejoin_ray.semantics import canon_method

    L = L + L[:1] * dups
    R = R + L[:dups]
    got, _ = _inprocess_blocked(L, R, method, d, budget, nparts)
    m = canon_method(method)
    score = {"method": m, "max_distance": d, "q": 2, "max_prefix": 0, "prefix_weight": 0.0}
    rt = pa.table({"id": list(range(len(R))), "w": pa.array(R, pa.string())})
    index = sj.RightStringIndex(rt, "id", [("w", "w")], strategy_for(m, d, 2))
    lt = pa.table({"id": list(range(len(L))), "w": pa.array(L, pa.string())})
    want = sj.score_left_batch(index, lt, [("w", "w")], "id", **score)
    assert _edges(got) == _edges([want])


@pytest.mark.parametrize("method,d", _FAMILY_CASES)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    vals=_fam_corpus, dups=st.integers(0, 5), budget=st.integers(1, 8),
    nparts=st.integers(1, 4), str_ids=st.booleans(),
)
def test_partition_scorer_selfjoin_equals_bruteforce(
    method, d, vals, dups, budget, nparts, str_ids
):
    """Self-join edges of the partition scorer (salt triangles under a
    small pair budget; integer or string ids) equal an all-pairs brute
    force: each unordered id pair once, as id_a < id_b."""
    from fozziejoin_ray.semantics import canon_method

    vals = vals + vals[:1] * dups
    n = len(vals)
    ids = [f"r{i:02d}" for i in range(n)] if str_ids else list(range(n))
    got, _ = _inprocess_blocked(vals, None, method, d, budget, nparts, ids=ids)
    ia, ib = np.triu_indices(n, k=1)
    dist = score_pairs(canon_method(method), [vals[i] for i in ia], [vals[j] for j in ib], q=2)
    keep = dist <= d
    want = sorted(
        (ids[a], ids[b], round(float(x), 9)) for a, b, x in zip(ia[keep], ib[keep], dist[keep])
    )
    assert _edges(got) == want


def test_partition_scored_in_slabs_not_blocks(monkeypatch):
    """A partition is scored in at most ceil(pairs / SLAB_PAIRS) calls of
    score_candidates (one per two-sided block before), where pairs are
    its blocks' expanded value pairs; a tiny slab splits it into many
    calls with the same edges. Each edge's checkpoint column is the
    partition of the block that owns it: for lv <= 1 on short values,
    the D-block of the pair's smallest shared deletion variant."""
    import math

    import pandas as pd

    from fozziejoin_ray.blocking.strategies import _deletion_variants, strategy_for
    from fozziejoin_ray.exchange import partition_ids
    from fozziejoin_ray.joins import blocked
    from fozziejoin_ray.joins import string_join as sj

    rng = np.random.default_rng(7)
    L = ["".join(rng.choice(list("abcde"), rng.integers(2, 7))) for _ in range(80)]
    R = [w[:-1] + "e" if i % 2 else w for i, w in enumerate(L[:60])] + L[60:]
    calls = []
    real = blocked.score_candidates

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(blocked, "score_candidates", spy)
    nparts = 3
    parts, _ = _inprocess_blocked(L, R, "lv", 1, 10**9, nparts, ckpt=(5, "part"))
    assert sum(t.num_rows for t in parts) > 80
    # each partition's two-sided blocks and their distinct value pairs
    strategy = strategy_for("lv", 1, 2)
    lk, rk = (
        pd.Series(strategy.emit_unique(np.unique(v).astype(object), s)[1]).value_counts()
        for v, s in ((L, "left"), (R, "right"))
    )
    both = sorted(set(lk.index) & set(rk.index))
    assert len(both) > 10 * nparts  # many blocks per partition
    bpart = partition_ids([pa.array(both, pa.string())], nparts)
    pairs = np.bincount(bpart, [lk[b] * rk[b] for b in both], minlength=nparts)
    assert len(calls) <= sum(math.ceil(p / sj.SLAB_PAIRS) for p in pairs) == nparts

    for t in parts:
        for e in t.to_pylist():
            a, b = L[e["__fj_lid"]], R[e["__fj_rid"]]
            own = min(set(_deletion_variants(a, 1)) & set(_deletion_variants(b, 1)))
            assert e["part"] == partition_ids([pa.array(["D" + own])], 5)[0]

    calls.clear()
    monkeypatch.setattr(sj, "SLAB_PAIRS", 5)
    small, _ = _inprocess_blocked(L, R, "lv", 1, 10**9, nparts, ckpt=(5, "part"))
    assert len(calls) > 2 * nparts
    assert sorted(map(str, (r for t in small for r in t.to_pylist()))) == sorted(
        map(str, (r for t in parts for r in t.to_pylist()))
    )
