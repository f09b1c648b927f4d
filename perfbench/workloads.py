"""The workloads: how each builds its inputs and oracle, sets up,
makes its timed call, checks the output, and replays its layers one
public call at a time for the traced run.

Sizes are fixed here, not by flags, so every run of a workload measures
the same amount of work; only ``--seed`` changes the inputs.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import gen
import oracle

METHOD = "jaro_winkler"
MAX_DISTANCE = 0.12
JOIN_MAX_DISTANCE = 1
F1_MIN = 0.99
GEN_VERSION = 2  # bump when gen.py changes what a seed produces

# (old corpus docs, delta docs); the nightly workload times the old
# corpus, and its delta only feeds the traced run's fold-in
NIGHTLY_SIZES = (6_000, 600)
JOIN_SIZES = (300, 300)
# the traced run of one workload replays the layers its own call never
# reaches on these small companion inputs
COMPANION_LINKAGE_SIZES = (2_000, 500)
COMPANION_JOIN_SIZES = (200, 200)


def _write_parts(t: pa.Table, path: str, parts: int) -> None:
    """Write ``t`` as ``parts`` parquet files, so reads get parallel tasks."""
    os.makedirs(path, exist_ok=True)
    step = -(-t.num_rows // parts)
    for i in range(parts):
        pq.write_table(t.slice(i * step, step), os.path.join(path, f"part-{i:03d}.parquet"))


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# --------------------------------------------------------------- inputs


def linkage_inputs(cache: str, seed: int, sizes: tuple[int, int], parts: int) -> dict:
    """Old corpus + delta (disjoint ids, shared entities) as parquet, the
    exact keys, and the exact clusters of the old corpus and of old + delta.
    Built once per (seed, sizes) and cached."""
    n_old, n_new = sizes
    d = os.path.join(cache, f"linkage-v{GEN_VERSION}-{n_old}-{n_new}-p{parts}-s{seed}")
    if not os.path.isdir(d):
        tmp = f"{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        docs = gen.documents(seed, n_old + n_new)
        _write_parts(docs.slice(0, n_old), os.path.join(tmp, "old"), parts)
        _write_parts(docs.slice(n_old), os.path.join(tmp, "delta"), parts)
        ids, keys = gen.first_text_keys(docs)
        pq.write_table(
            pa.table({"doc_id": ids, "key": pa.array(keys, pa.string())}),
            os.path.join(tmp, "keys.parquet"),
        )
        for name, n in (("old", n_old), ("all", n_old + n_new)):
            lab = oracle.linkage_clusters(ids[:n], keys[:n], MAX_DISTANCE)
            pq.write_table(
                pa.table({"doc_id": lab.index.to_numpy(), "cluster_id": lab.to_numpy()}),
                os.path.join(tmp, f"truth_{name}.parquet"),
            )
        os.rename(tmp, d)  # a cache entry appears only once complete
    keys = pq.read_table(os.path.join(d, "keys.parquet")).to_pandas()
    truth = {
        name: pq.read_table(os.path.join(d, f"truth_{name}.parquet")).to_pandas()
        for name in ("old", "all")
    }
    return {
        "old": os.path.join(d, "old"),
        "delta": os.path.join(d, "delta"),
        "n_old": n_old,
        "n_new": n_new,
        "keys": pd.Series(keys["key"].to_numpy(), index=keys["doc_id"].to_numpy(), dtype=object),
        "truth": {
            k: pd.Series(v["cluster_id"].to_numpy(), index=v["doc_id"].to_numpy(), dtype=object)
            for k, v in truth.items()
        },
    }


def join_inputs(cache: str, seed: int, sizes: tuple[int, int]) -> dict:
    n_l, n_r = sizes
    d = os.path.join(cache, f"join-v{GEN_VERSION}-{n_l}-{n_r}-s{seed}")
    if not os.path.isdir(d):
        tmp = f"{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        left, right = gen.name_tables(seed, n_l, n_r)
        pq.write_table(left, os.path.join(tmp, "left.parquet"))
        pq.write_table(right, os.path.join(tmp, "right.parquet"))
        rows = oracle.join_rows(left, right, JOIN_MAX_DISTANCE)
        pq.write_table(pa.Table.from_pandas(rows, preserve_index=False), os.path.join(tmp, "truth.parquet"))
        os.rename(tmp, d)  # a cache entry appears only once complete
    return {
        "left_table": pq.read_table(os.path.join(d, "left.parquet")),
        "right_table": pq.read_table(os.path.join(d, "right.parquet")),
        "n_left": n_l,
        "n_right": n_r,
        "truth": oracle.canonical_rows(pq.read_table(os.path.join(d, "truth.parquet")).to_pandas()),
    }


# --------------------------------------------------------------- checks


def check_linkage(out_dir: str, truth: pd.Series) -> float:
    """Structural checks, then pairwise F1 against the exact oracle.
    Raises ValueError when a check fails."""
    got = oracle.check_clusters(pq.read_table(out_dir), list(truth.index))
    f1 = oracle.pairwise_f1(got, truth)
    if not f1 >= F1_MIN:
        raise ValueError(f"pairwise F1 {f1:.5f} < {F1_MIN}")
    return f1


def check_keys(keys_dir: str, keys: pd.Series) -> None:
    t = pq.read_table(keys_dir).to_pandas()
    got = pd.Series(t["key"].to_numpy(), index=t["doc_id"].to_numpy(), dtype=object)
    if len(got) != len(keys) or not got.sort_index().equals(keys.sort_index()):
        raise ValueError("emitted (doc_id, key) table differs from the spans contract")


def join_frame(out: pa.Table) -> pd.DataFrame:
    df = out.to_pandas().rename(columns={"name.x": "name_l", "name.y": "name_r"})
    return oracle.canonical_rows(df)


def check_join(out: pa.Table, truth: pd.DataFrame) -> float:
    why = oracle.rows_equal(join_frame(out), truth)
    if why is not None:
        raise ValueError(f"join output differs from the oracle: {why}")
    return 1.0


# --------------------------------------------------------------- calls


def _job(argv: list[str]) -> None:
    from fozziejoin_ray.jobs import linkage_job

    # the job prints its own metrics line; keep stdout for the result
    with contextlib.redirect_stdout(sys.stderr):
        rc = linkage_job.main(argv)
    if rc != 0:
        raise RuntimeError(f"linkage_job exited {rc}")


def _job_flags(parts: int) -> list[str]:
    return [
        "--blocking", "minhash", "--method", METHOD, "--max-distance", str(MAX_DISTANCE),
        "--num-partitions", str(parts),
    ]


def nightly_job(docs: str, out: str, parts: int) -> dict:
    """The nightly run; returns the artifact paths the daily run reads."""
    art = {"clusters": f"{out}/clusters", "keys": f"{out}/keys", "index": f"{out}/index"}
    _job(["--input", docs, "--output", art["clusters"], *_job_flags(parts),
          "--emit-keys", art["keys"], "--build-index", art["index"]])
    return art


def string_join(inp: dict, parts: int):
    """The timed join: hand both in-memory tables to Ray, join, and
    materialize the output."""
    import ray.data as rd

    from fozziejoin_ray import fuzzy_string_join

    out = fuzzy_string_join(
        rd.from_arrow(inp["left_table"]), rd.from_arrow(inp["right_table"]), by="name",
        method="lv", max_distance=JOIN_MAX_DISTANCE, how="full", strategy="blocked",
        left_id="l_id", right_id="r_id", num_partitions=parts,
    ).materialize()
    out.count()
    return out


def to_table(ds) -> pa.Table:
    import ray

    # empty blocks can come back with no columns at all
    tables = [t for t in map(ray.get, ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables) if tables else pa.table({})


# --------------------------------------------------------------- traced replays
#
# Each replay calls the package's public functions one at a time, with
# .materialize() between them, inside a span named after the layer. The
# compositions mirror jobs/linkage_job.py, pipelines/linkage.py and
# joins/string_join.py, so the spans add up to the untraced call.


def _stats(rec: dict, ds) -> None:
    """Attach a finished stage's output rows and Dataset.stats() to its span."""
    rec["stats"] = ds.stats()
    rec["rows"] = ds.count()


def _label_join(keys, labels, parts: int):
    """The last step of cluster_documents: every doc gets its label or itself."""
    import pyarrow.compute as pc

    from fozziejoin_ray.joins.hashjoin import hash_join

    labels_r = labels.map_batches(
        lambda t: pa.table({"__cc_node": t["node"], "__cc_lbl": t["cluster"]}),
        batch_format="pyarrow",
    )
    ids = keys.map_batches(lambda t: t.select(["doc_id"]), batch_format="pyarrow")
    sid = pa.string()
    joined = hash_join(
        ids, labels_r, "doc_id", "__cc_node", how="left_outer", num_partitions=parts,
        left_schema=pa.schema([("doc_id", sid)]),
        right_schema=pa.schema([("__cc_node", sid), ("__cc_lbl", sid)]),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "cluster_id": pc.coalesce(t["__cc_lbl"], t["doc_id"])}
        ),
        batch_format="pyarrow",
    )


def _match_edges(keys, parts: int):
    from fozziejoin_ray.pipelines.linkage import match_edges

    return match_edges(
        keys, method=METHOD, max_distance=MAX_DISTANCE, blocking="minhash",
        num_partitions=parts,
    )


def trace_nightly(tr, docs_path: str, out: str, parts: int, part: str) -> tuple[dict, dict]:
    """The nightly job, layer by layer. Returns (artifacts, counts)."""
    from fozziejoin_ray.cluster.union_find import connected_components
    from fozziejoin_ray.pipelines.linkage import extract_keys
    from fozziejoin_ray.pipelines.linkage_index import build_linkage_lsh_index
    from fozziejoin_ray.sources.io import read_table, write_table

    art = {"clusters": f"{out}/clusters", "keys": f"{out}/keys", "index": f"{out}/index"}
    with tr.span("sources.read", part=part) as s:
        docs = read_table(docs_path, columns=["doc_id", "spans"]).materialize()
    _stats(s, docs)
    with tr.span("pipelines.linkage.extract_keys", part=part) as s:
        keys = extract_keys(docs).materialize()
    _stats(s, keys)
    with tr.span("pipelines.linkage.match_edges", part=part) as s:
        edges = _match_edges(keys, parts).materialize()
    _stats(s, edges)
    with tr.span("cluster.union_find.connected_components", part=part) as s:
        labels = connected_components(edges, "src", "dst", num_partitions=parts).materialize()
    _stats(s, labels)
    with tr.span("joins.hashjoin.label_join", part=part) as s:
        clusters = _label_join(keys, labels, parts).materialize()
    _stats(s, clusters)
    with tr.span("sources.write", part=part):
        write_table(clusters, art["clusters"])
    with tr.span("pipelines.linkage.extract_keys", part=part) as s:
        keys2 = extract_keys(docs).materialize()
    _stats(s, keys2)
    with tr.span("sources.write", part=part):
        write_table(keys2, art["keys"])
    with tr.span("pipelines.linkage_index.build", part=part):
        build_linkage_lsh_index(
            keys2, art["index"], old_clusters=read_table(art["clusters"]),
            num_partitions=parts, id_type=pa.string(),
        )
    counts = {
        "keys": _non_null_keys(keys),
        "edges": edges.count(),
        **_cc_counts(labels),
        "index_bytes": _dir_bytes(art["index"]),
    }
    return art, counts


def trace_daily(tr, delta_path: str, art: dict, out: str, parts: int, part: str) -> dict:
    """The daily fold-in: the job's own calls (read, fold-in, write),
    then the fold-in's layers one at a time under a ``replay`` span."""
    from fozziejoin_ray.cluster.union_find import connected_components
    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental, extract_keys
    from fozziejoin_ray.pipelines.linkage_index import probe_linkage_lsh_index
    from fozziejoin_ray.sources.io import read_table, write_table

    with tr.span("sources.read", part=part) as s:
        docs = read_table(delta_path, columns=["doc_id", "spans"]).materialize()
        old_keys = read_table(art["keys"]).materialize()
        old_clusters = read_table(art["clusters"]).materialize()
    _stats(s, docs)
    with tr.span("pipelines.linkage.fold_in", part=part) as s:
        folded = cluster_documents_incremental(
            docs, old_keys, old_clusters, method=METHOD, max_distance=MAX_DISTANCE,
            pair_budget=4_000_000, num_partitions=parts, id_type=pa.string(),
            blocking="minhash", old_index_dir=art["index"],
        ).materialize()
    _stats(s, folded)
    with tr.span("sources.write", part=part):
        write_table(folded, out)
    with tr.span("replay", part=part):
        with tr.span("pipelines.linkage.extract_keys", part=part) as s:
            new_keys = extract_keys(docs).materialize()
        _stats(s, new_keys)
        with tr.span("pipelines.linkage.match_edges", part=part) as s:
            nn = _match_edges(new_keys, parts).materialize()
        _stats(s, nn)
        with tr.span("pipelines.linkage_index.probe", part=part) as s:
            no = probe_linkage_lsh_index(
                new_keys, art["index"], method=METHOD, max_distance=MAX_DISTANCE, q=2
            ).materialize()
        _stats(s, no)
        with tr.span("cluster.union_find.connected_components", part=part) as s:
            sd = lambda t: pa.table({"src": t["src"], "dst": t["dst"]})  # noqa: E731
            edges = nn.map_batches(sd, batch_format="pyarrow").union(
                no.map_batches(sd, batch_format="pyarrow")
            )
            labels = connected_components(edges, "src", "dst", num_partitions=parts).materialize()
        _stats(s, labels)
        with tr.span("joins.hashjoin.label_join", part=part) as s:
            new_labels = _label_join(new_keys, labels, parts).materialize()
        _stats(s, new_labels)
    return {
        "keys": _non_null_keys(new_keys),
        "edges": nn.count(),
        "probe_edges": no.count(),
        **_cc_counts(labels),
    }


def trace_join(tr, inp: dict, parts: int, part: str) -> tuple[pa.Table, dict]:
    """fuzzy_string_join(strategy="blocked", how="full") as its two layers."""
    import ray.data as rd

    from fozziejoin_ray.joins.blocked import build_edges_blocked
    from fozziejoin_ray.joins.modes import assemble

    with tr.span("sources.read", part=part) as s:
        left = rd.from_arrow(inp["left_table"]).materialize()
        right = rd.from_arrow(inp["right_table"]).materialize()
    _stats(s, left)
    with tr.span("joins.blocked.build_edges", part=part) as s:
        edges = build_edges_blocked(
            left, right, [("name", "name")], "levenshtein", JOIN_MAX_DISTANCE, 2, 0, 0.0,
            "l_id", "r_id",
        ).materialize()
    _stats(s, edges)
    with tr.span("joins.modes.assemble", part=part) as s:
        out = assemble(
            left, right, edges, how="full", lid="l_id", rid="r_id", distance_cols=[],
            num_partitions=parts, drop_ids=["__fj_lid_src", "__fj_rid_src"], n_dist=1,
        ).materialize()
    _stats(s, out)
    return out, {"blocked_edges": edges.count()}


def blocking_counts(tr, inp: dict, part: str) -> dict:
    """DeletionBlocks emission for lv <= 1 on each side's distinct values,
    run on the driver with no Ray: keys per value, candidate pairs (sum
    over keys of left x right values) and the useful share of them."""
    from fozziejoin_ray.blocking.strategies import strategy_for

    lv = np.unique(inp["left_table"]["name"].to_numpy(zero_copy_only=False))
    rv = np.unique(inp["right_table"]["name"].to_numpy(zero_copy_only=False))
    strat = strategy_for("lv", JOIN_MAX_DISTANCE, 2)
    with tr.span("blocking.strategies.emit", part=part):
        _, lk = strat.emit_unique(lv.astype(object), "left")
        _, rk = strat.emit_unique(rv.astype(object), "right")
    lc = pd.Series(lk).value_counts()
    rc = pd.Series(rk).value_counts()
    both = lc.index.intersection(rc.index)
    cand = float((lc[both].to_numpy(np.float64) * rc[both].to_numpy(np.float64)).sum())
    t = inp["truth"]
    matched = t[t["l_id"].notna() & t["r_id"].notna()][["name_l", "name_r"]].drop_duplicates()
    return {
        "keys_per_value": (len(lk) + len(rk)) / (len(lv) + len(rv)),
        "candidate_pairs": cand,
        "useful_ratio": len(matched) / cand if cand else 0.0,
    }


def _non_null_keys(keys) -> int:
    t = to_table(keys)
    return t.num_rows - t["key"].null_count


def _cc_counts(labels) -> dict:
    cl = to_table(labels)
    sizes = pd.Series(cl["cluster"].to_numpy(zero_copy_only=False)).value_counts()
    return {"nodes": cl.num_rows, "max_cluster_rows": int(sizes.max()) if len(sizes) else 0}
