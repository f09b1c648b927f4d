"""Persisted LSH blocking index for INCREMENTAL linkage at corpus scale.

`cluster_documents_incremental`'s cross join still streams the ENTIRE
old key table through the band exchange on every fold-in — correct, but
O(N_old) shuffle per daily delta. This module removes that term: the
nightly run persists its banded-MinHash emission table ONCE, hive-
partitioned by bucket hash, from its keyed label join (each distinct
key labelled with its cluster, so the index's ids ARE old cluster
ids), and each daily probe

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
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..exchange import exchange, partition_ids
from .dedup import MAX_BUCKET, _band_emitter, _bucket_scorer
from .linkage import LINKAGE_BANDS, JaroCharBoundFilter, _distinct_key_reps, string_scorer

_META = "index_meta.json"
_BANDING = {
    "minhash_bands": LINKAGE_BANDS.bands,
    "minhash_perm": LINKAGE_BANDS.num_perm,
    "shingle_k": LINKAGE_BANDS.shingle_k,
    "seed": LINKAGE_BANDS.seed,
}

# The live join's band emission (text carried). The sketch is the jaro
# char-bound's, which is threshold-independent (the threshold enters
# only at ``keep`` time), so the index serves any jw ``max_distance``;
# non-jaro probes simply ignore it.
_emit = _band_emitter("key", "doc_id", LINKAGE_BANDS, prefilter=JaroCharBoundFilter(0.0))


def _read_meta(index_dir: str) -> dict:
    """The index's meta, checked: probing an index of other banding, or
    one whose ids are doc ids rather than cluster ids (its meta carries
    a ``has_clusters`` key), would give a fold-in that equals no full
    re-run."""
    with open(os.path.join(index_dir, _META)) as f:
        meta = json.load(f)
    want = {**_BANDING, "num_partitions": meta.get("num_partitions")}
    if meta != want:
        raise ValueError(
            f"{index_dir} is not a cluster-baked index of this banding: its "
            f"{_META} is {meta}, expected {want}; rebuild it"
        )
    return meta


def _part_of(t: pa.Table, num_partitions: int) -> int:
    """The partition number of an :func:`exchange` group on
    ``__bucket``: its first row's, which every row of the group shares."""
    return int(partition_ids([t["__bucket"].slice(0, 1)], num_partitions)[0])


def write_linkage_lsh_index(labelled: rd.Dataset, index_dir: str, *, num_partitions: int = 32) -> dict:
    """Persist the banded emission of a (doc_id, key, cluster_id) table
    — the nightly run's keyed label join — hive-partitioned by
    bucket-hash partition (`write_partitioned` layout: resumable,
    partition-prunable). Returns the meta dict also written to
    ``index_dir/index_meta.json``.

    The index holds one row per band of each distinct non-null key,
    its id the cluster of the key's min doc id: probes then emit (new
    doc, old CLUSTER) edges directly, and the fold-in needs no
    cluster-collapse join. Every doc emits its bands; all copies of a
    key land in the same bucket partitions, where the write keeps the
    min doc id's row per (bucket, key), so no value-dedup exchange
    runs before the emission."""
    meta = {**_BANDING, "num_partitions": num_partitions}

    def emit(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["key"]))
        e = _emit(t)  # LINKAGE_BANDS.bands consecutive rows per input row
        cl = t["cluster_id"].take(pa.array(np.repeat(np.arange(t.num_rows), LINKAGE_BANDS.bands)))
        return e.append_column("__cl", cl)

    # each partition is written SORTED by bucket in small row groups, so
    # probes prune to the row groups overlapping the delta's buckets via
    # parquet min/max statistics instead of scanning the whole partition
    os.makedirs(index_dir, exist_ok=True)

    def write_part(t: pa.Table) -> pa.Table:
        part = _part_of(t, num_partitions)
        # every copy of a key emits the same buckets: keep one row per
        # (bucket, key), the one of the key's min doc id
        t = t.sort_by([("__bucket", "ascending"), ("key", "ascending"), ("doc_id", "ascending")])
        b, k = (t[c].to_numpy(zero_copy_only=False) for c in ("__bucket", "key"))
        t = t.filter(pa.array(np.r_[True, (b[1:] != b[:-1]) | (k[1:] != k[:-1])]))
        srt = pa.table(
            {"__bucket": t["__bucket"], "doc_id": t["__cl"], "key": t["key"], "__bh": t["__bh"], "__sk": t["__sk"]}
        )
        d = os.path.join(index_dir, f"__part={part}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(srt, os.path.join(d, "index.parquet"), row_group_size=65536)
        return pa.table({"part": pa.array([part], pa.int64()), "rows": pa.array([srt.num_rows], pa.int64())})

    exchange(
        labelled.map_batches(emit, batch_format="pyarrow"),
        "__bucket",
        num_partitions,
        write_part,
        batch_format="pyarrow",
    )
    with open(os.path.join(index_dir, _META), "w") as f:
        json.dump(meta, f)
    return meta


def build_linkage_lsh_index(
    keys: rd.Dataset,
    index_dir: str,
    *,
    old_clusters: rd.Dataset,
    num_partitions: int = 32,
    id_type: pa.DataType = pa.string(),
) -> dict:
    """:func:`write_linkage_lsh_index` of ``keys`` (an
    :func:`~fozziejoin_ray.pipelines.linkage.extract_keys` table)
    labelled by ``old_clusters`` (their run's (doc_id, cluster_id)):
    the index for key and cluster tables that were not produced
    together, as in the incremental job."""
    from ..joins.hashjoin import hash_join

    labelled = hash_join(
        keys,
        old_clusters,
        "doc_id",
        "doc_id",
        how="inner",
        num_partitions=num_partitions,
        left_schema=pa.schema([("doc_id", id_type), ("key", pa.string())]),
        right_schema=pa.schema([("doc_id", id_type), ("cluster_id", id_type)]),
    )
    return write_linkage_lsh_index(labelled, index_dir, num_partitions=num_partitions)


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
    max_bucket: int = MAX_BUCKET,
) -> rd.Dataset:
    """(src = new doc, dst = old doc, dist) edges between the delta's
    distinct-key reps and the persisted index, under the same candidate
    semantics as the live two-table LSH join: a key pair is a candidate
    iff SOME band co-buckets it in a bucket where neither the old nor
    the new side alone holds more than ``max_bucket`` rows, generated
    exactly once (first such band owns the pair), then verified with
    the exact string kernel."""
    P = _read_meta(index_dir)["num_partitions"]
    new_emit = _distinct_key_reps(new_keys, P).map_batches(_emit, batch_format="pyarrow").materialize()

    # ---- phase A: per-side census -> the (tiny) capped set, the only
    # place the probe decides the stop-word cap. The rule mirrors the
    # live two-table LSH join's dedup._bucket_census: a bucket is capped
    # iff EITHER side's count exceeds max_bucket, and the scorer pairs
    # nothing in it and skips its band in ownership, so probe == live
    # cross holds across the stop-word boundary too.
    def census(t: pa.Table) -> pa.Table:
        part = _part_of(t, P)
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
        for b in exchange(new_emit, "__bucket", P, census, batch_format="pyarrow")
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
        bands=LINKAGE_BANDS.bands,
        prefilter=prefilter,
        two_table=True,
    )
    cols = ["__bucket", "doc_id", "key", "__lsh_side", "__bh", "__sk"]

    def probe(t: pa.Table) -> pa.Table:
        new = t.select(cols)
        nb = np.unique(t["__bucket"].to_numpy(zero_copy_only=False))
        old = _read_part(
            index_dir, _part_of(t, P), columns=[c for c in cols if c != "__lsh_side"], want=nb
        )
        rows = [new]
        if old.num_rows:
            old = old.filter(pa.array(np.isin(old["__bucket"].to_numpy(), nb)))
            side = pa.array(np.ones(old.num_rows, np.int8))
            rows.append(old.add_column(3, "__lsh_side", side).cast(new.schema))
        out = score_part(pa.concat_tables(rows), ray.get(cref))
        return out.rename_columns(["src", "dst", "dist"])

    return exchange(new_emit, "__bucket", P, probe, batch_format="pyarrow")
