"""Persisted LSH blocking index for INCREMENTAL linkage at corpus scale.

`cluster_documents_incremental`'s cross join still streams the ENTIRE
old key table through the band exchange on every fold-in — correct, but
O(N_old) shuffle per daily delta. This module removes that term: the
nightly run persists its banded-MinHash emission table ONCE, hive-
partitioned by bucket hash, and each daily probe

    new reps ── same banding ──► route by bucket partition   [exchange
                                                              of the
                                                              DELTA only]
             ── census: per-side bucket counts vs max_bucket  [per-
                partition local parquet read, tiny capped set
                to the driver]
             ── probe: old rows stacked under the delta's as
                side 1, scored by the live two-table LSH
                join's partition scorer                       [local]

so per-fold-in shuffle volume is O(delta x bands) emission rows; the
old corpus is only ever READ, partition-locally, never re-shuffled.
The emission IS `dedup.lsh_fused_edges`' (`_band_emitter`), and the
probe runs its bucket-partition scorer (`_bucket_scorer`: cross
expansion, prefilter, first-agreeing-band ownership, string
verification) with the same stop-word cap: a bucket is capped when
EITHER side alone — the old rows or the delta's — exceeds
``max_bucket``. So probing the index yields the same candidate set as
the live two-table LSH join — pytest pins probe == live-cross ==
full-re-run.

Any bucket relevant to a probe pair contains >= 1 new emission row (the
pair's new member emits every one of its bands), so the census over
partitions holding new rows sees every bucket whose cap status can
matter.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..exchange import partition_ids
from .dedup import MinHashBands, _band_emitter, _bucket_scorer

_META = "index_meta.json"


def _index_emission(reps: rd.Dataset, meta: dict) -> rd.Dataset:
    """(doc_id, key) reps -> the live join's band emission (text
    carried) plus ``__part``, the bucket's hash partition. The sketch is
    the jaro char-bound's, which is threshold-independent (the threshold
    enters only at ``keep`` time), so the index serves any jw
    ``max_distance``; non-jaro probes simply ignore it."""
    from .linkage import JaroCharBoundFilter

    emit = _band_emitter(
        "key",
        "doc_id",
        MinHashBands(meta["minhash_perm"], meta["minhash_bands"], meta["shingle_k"], meta["seed"]),
        prefilter=JaroCharBoundFilter(0.0),
    )
    P = meta["num_partitions"]

    def fn(t: pa.Table) -> pa.Table:
        e = emit(t)
        return e.append_column("__part", pa.array(partition_ids([e["__bucket"]], P)))

    return reps.map_batches(fn, batch_format="pyarrow")


def build_linkage_lsh_index(
    old_keys: rd.Dataset,
    index_dir: str,
    *,
    old_clusters: rd.Dataset | None = None,
    minhash_bands: int = 32,
    minhash_perm: int = 64,
    shingle_k: int = 2,
    seed: int = 13,
    num_partitions: int = 32,
    id_type: pa.DataType = pa.string(),
) -> dict:
    """Persist the banded emission of ``old_keys``' distinct-key reps,
    hive-partitioned by bucket-hash partition (`write_partitioned`
    layout: resumable, partition-prunable). Returns the meta dict also
    written to ``index_dir/index_meta.json``.

    Pass ``old_clusters`` (the nightly run's (doc_id, cluster_id)) to
    bake each rep's cluster supervertex INTO the index: probes then
    emit (new doc, old CLUSTER) edges directly, and the fold-in skips
    its only remaining O(N_old) exchanges (the cluster-collapse join).
    The rep->cluster join runs once here, amortized into the nightly
    build."""
    from .linkage import _distinct_key_reps

    meta = {
        "minhash_bands": minhash_bands,
        "minhash_perm": minhash_perm,
        "shingle_k": shingle_k,
        "seed": seed,
        "num_partitions": num_partitions,
        "has_clusters": old_clusters is not None,
    }
    reps = _distinct_key_reps(old_keys, num_partitions)
    if old_clusters is not None:
        from ..joins.hashjoin import hash_join

        oc = old_clusters.map_batches(
            lambda t: pa.table({"__ix_doc": t["doc_id"], "__ix_cl": t["cluster_id"]}),
            batch_format="pyarrow",
        )
        reps = hash_join(
            reps,
            oc,
            "doc_id",
            "__ix_doc",
            how="inner",
            num_partitions=num_partitions,
            left_schema=pa.schema([("doc_id", id_type), ("key", pa.string())]),
            right_schema=pa.schema([("__ix_doc", id_type), ("__ix_cl", id_type)]),
        ).map_batches(
            # the probe connects to the CLUSTER supervertex, so the rep's
            # doc id can simply BE its cluster id from here on
            lambda t: pa.table({"doc_id": t["__ix_cl"], "key": t["key"]}),
            batch_format="pyarrow",
        )
    emitted = _index_emission(reps, meta)
    # each partition is written SORTED by bucket in small row groups, so
    # probes prune to the row groups overlapping the delta's buckets via
    # parquet min/max statistics instead of scanning the whole partition
    os.makedirs(index_dir, exist_ok=True)

    def write_part(t: pa.Table) -> pa.Table:
        part = int(t["__part"][0].as_py())
        srt = t.sort_by("__bucket").drop_columns(["__part", "__lsh_side"])
        d = os.path.join(index_dir, f"__part={part}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(srt, os.path.join(d, "index.parquet"), row_group_size=65536)
        return pa.table({"part": pa.array([part], pa.int64()), "rows": pa.array([t.num_rows], pa.int64())})

    emitted.groupby("__part").map_groups(write_part, batch_format="pyarrow").count()
    with open(os.path.join(index_dir, _META), "w") as f:
        json.dump(meta, f)
    return meta


def _read_part(
    index_dir: str, part: int, columns=None, want: np.ndarray | None = None
) -> pa.Table:
    """Read one index partition; with ``want`` (sorted uint64 buckets
    the delta touches) only the row groups whose [min, max] bucket
    range intersects them are read — the build sorts each partition by
    bucket into small row groups precisely so this min/max-statistics
    pruning works."""
    path = os.path.join(index_dir, f"__part={part}")
    if not os.path.isdir(path):
        return pa.table(
            {c: pa.array([], pa.uint64() if c == "__bucket" else pa.string()) for c in (columns or ["__bucket"])}
        )
    files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")]
    parts = []
    for fp in files:
        pf = pq.ParquetFile(fp)
        if want is None or not len(want):
            groups = list(range(pf.metadata.num_row_groups))
        else:
            ci = pf.schema_arrow.get_field_index("__bucket")
            groups = []
            for g in range(pf.metadata.num_row_groups):
                st = pf.metadata.row_group(g).column(ci).statistics
                if st is None or not st.has_min_max:
                    groups.append(g)
                    continue
                lo = np.uint64(st.min)
                hi = np.uint64(st.max)
                # any wanted bucket inside [lo, hi]?
                i = np.searchsorted(want, lo)
                if i < len(want) and want[i] <= hi:
                    groups.append(g)
        if groups:
            parts.append(pf.read_row_groups(groups, columns=columns))
    if not parts:
        return pa.table(
            {c: pa.array([], pa.uint64() if c == "__bucket" else pa.string()) for c in (columns or ["__bucket"])}
        )
    return pa.concat_tables(parts)


def probe_linkage_lsh_index(
    new_keys: rd.Dataset,
    index_dir: str,
    *,
    method: str,
    max_distance: float,
    q: int = 2,
    max_bucket: int = 4096,
) -> rd.Dataset:
    """(src = new doc, dst = old doc, dist) edges between the delta's
    distinct-key reps and the persisted index, under the same candidate
    semantics as the live two-table LSH join: a key pair is a candidate
    iff SOME band co-buckets it in a bucket where neither the old nor
    the new side alone holds more than ``max_bucket`` rows, generated
    exactly once (first such band owns the pair), then verified with
    the exact string kernel."""
    from .linkage import _distinct_key_reps, string_scorer

    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)
    P = meta["num_partitions"]
    new_emit = _index_emission(_distinct_key_reps(new_keys, P), meta).materialize()

    # ---- phase A: per-side census -> the (tiny) capped set. The cap
    # rule mirrors the live two-table LSH join exactly (dedup.py
    # _cross_pairs_by_bucket + _bucket_census): a bucket is capped iff
    # EITHER side's count exceeds max_bucket — matching the "a capped
    # side caps the whole bucket" ownership semantics, so probe == live
    # cross holds across the stop-word boundary too.
    def census(t: pa.Table) -> pa.Table:
        part = int(t["__part"][0].as_py())
        nb = t["__bucket"].to_numpy(zero_copy_only=False)
        ob = _read_part(
            index_dir, part, columns=["__bucket"], want=np.unique(nb)
        )["__bucket"].to_numpy(zero_copy_only=False)
        # cap status only matters for buckets the delta touches
        un, cn = np.unique(nb, return_counts=True)
        uo, co = np.unique(ob[np.isin(ob, un)], return_counts=True)
        over = np.union1d(un[cn > max_bucket], uo[co > max_bucket])
        return pa.table({"__capped": pa.array(over, pa.uint64())})

    capped_parts = [
        b["__capped"].to_numpy(zero_copy_only=False)
        for b in new_emit.groupby("__part")
        .map_groups(census, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    capped = np.sort(np.concatenate(capped_parts)) if capped_parts else np.empty(0, np.uint64)
    cref = ray.put(capped)

    # ---- phase B: the delta's rows (side 0) and the old rows of the
    # buckets they touch (side 1) through the live join's scorer
    score_fn, prefilter = string_scorer(method, max_distance, q)
    score_part = _bucket_scorer(
        "doc_id",
        "key",
        score_fn,
        bands=meta["minhash_bands"],
        max_bucket=max_bucket,
        prefilter=prefilter,
        two_table=True,
    )
    cols = ["__bucket", "doc_id", "key", "__lsh_side", "__bh", "__sk"]

    def probe(t: pa.Table) -> pa.Table:
        new = t.select(cols)
        nb = np.unique(t["__bucket"].to_numpy(zero_copy_only=False))
        old = _read_part(
            index_dir, int(t["__part"][0].as_py()), columns=[c for c in cols if c != "__lsh_side"], want=nb
        )
        rows = [new]
        if old.num_rows:
            old = old.filter(pa.array(np.isin(old["__bucket"].to_numpy(), nb)))
            side = pa.array(np.ones(old.num_rows, np.int8))
            rows.append(old.add_column(3, "__lsh_side", side).cast(new.schema))
        out = score_part(pa.concat_tables(rows), ray.get(cref))
        return out.rename_columns(["src", "dst", "dist"])

    return new_emit.groupby("__part").map_groups(probe, batch_format="pyarrow")
