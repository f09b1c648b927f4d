"""Deterministic dataset splitting for training pipelines.

``hash_split`` assigns every row a split label ("train"/"val"/...)
from a polynomial hash of its key — the property a 100 TB pipeline
needs: the assignment is a pure function of the key, so it is stable
across reruns, partitionings, cluster sizes and engines (the exact
formula is SQL-replicable, same Horner construction the fingerprint
oracle uses), and rows never need a shuffle — one stateless
``map_batches`` labels everything in place.

Hash: h = Horner(codepoints of str(key) + ":" + salt, base 131,
mod 2^31-1); bucket = h mod 10_000; labels assigned by cumulative
ratio thresholds over the bucket space.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange
from .text import _fp_powers

_M = np.uint64(2147483647)
_BASE = 131
_BUCKETS = 10_000
# sample_per_group's exchange width (hash partitions, each holding many
# groups: one partition-function call per partition, not per group)
_GROUP_PARTITIONS = 32


def _horner_mix(codes: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Shared hash core: per-row Horner hash (base 131 mod 2^31-1) over
    the flat codepoint stream ``codes`` segmented by ``lens``, then the
    non-linear mix ``(h^2 + 48271*h) mod M`` — Horner alone is linear,
    so consecutive keys (or salts differing in one character) would land
    in consecutive buckets and a salt change would barely reshuffle
    assignments."""
    total = int(lens.sum())
    h = np.zeros(len(lens), dtype=np.uint64)
    if total:
        ends = np.cumsum(lens)
        rev = np.repeat(ends - 1, lens) - np.arange(total, dtype=np.int64)
        w = _fp_powers(_BASE, int(lens.max()))
        terms = (codes.astype(np.uint64) * w[rev]) % _M
        h = np.add.reduceat(terms, ends - lens) % _M
        h[lens == 0] = 0  # reduceat repeats the next segment for empties
    return (h * h + np.uint64(48271) * h) % _M  # < 2^62 + 2^47: no overflow


def _rank_of(keys, salt: str) -> np.ndarray:
    """Vectorized Horner-mix hash mod 2^31-1 of ``salt + ':' + str(key)``.

    ``keys`` may be an Arrow array/chunked array (string or integer
    types take a fully-Arrow path: cast + fill_null('None') + prefix
    concat in C++, codepoints read straight off the utf8 buffer when
    ASCII) or any python iterable (row-wise str() fallback, kept for
    float/bool keys whose Arrow cast rendering differs from str()).
    Null keys hash the literal 'None' representation — deterministic,
    never errors. Full [0, 2^31-1) resolution (the sampling rank);
    bucket consumers modulo it down."""
    arr = None
    if isinstance(keys, pa.ChunkedArray):
        arr = keys.combine_chunks()
    elif isinstance(keys, pa.Array):
        arr = keys
    if arr is not None and (
        pa.types.is_string(arr.type)
        or pa.types.is_large_string(arr.type)
        or pa.types.is_integer(arr.type)
        or pa.types.is_null(arr.type)
    ):
        s = arr if pa.types.is_string(arr.type) else arr.cast(pa.string())
        s = pc.fill_null(s, "None")
        s = pc.binary_join_element_wise(f"{salt}:", s, "")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        nbytes = pc.binary_length(s).to_numpy().astype(np.int64)
        lens = pc.utf8_length(s).to_numpy().astype(np.int64)
        if np.array_equal(lens, nbytes):
            # pure-ASCII fast path: utf8 bytes ARE the codepoints — read
            # them zero-copy off the value buffer between the row offsets
            off = np.frombuffer(s.buffers()[1], dtype=np.int32)
            off = off[s.offset : s.offset + len(s) + 1]
            buf = np.frombuffer(s.buffers()[2], dtype=np.uint8)
            codes = buf[off[0] : off[-1]]
        else:
            one = pa.ListArray.from_arrays(pa.array([0, len(s)], pa.int32()), s)
            big = pc.binary_join(one, "")[0].as_py()
            codes = np.frombuffer(big.encode("utf-32-le"), dtype=np.uint32)
        return _horner_mix(codes, lens)
    if arr is not None:
        keys = arr.to_pylist()
    strs = [f"{salt}:{k}" for k in keys]
    lens = np.array([len(s) for s in strs], dtype=np.int64)
    codes = np.frombuffer("".join(strs).encode("utf-32-le"), dtype=np.uint32)
    return _horner_mix(codes, lens)


def _bucket_of(keys, salt: str) -> np.ndarray:
    return (_rank_of(keys, salt) % np.uint64(_BUCKETS)).astype(np.int64)


def label_bounds(ratios: dict[str, float]) -> tuple[list[str], np.ndarray]:
    """Validate ``ratios`` and return (labels, cumulative bucket-space
    thresholds) — the shared primitive behind :func:`hash_split` and
    the composed curation pipeline's inline split assignment."""
    if not ratios:
        raise ValueError("ratios must be a non-empty {label: fraction} dict")
    tot = sum(ratios.values())
    if abs(tot - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {tot}")
    labels = list(ratios)
    cum = np.cumsum([ratios[l] for l in labels])
    bounds = np.minimum(np.round(cum * _BUCKETS).astype(np.int64), _BUCKETS)
    return labels, bounds


def hash_split(
    ds: rd.Dataset,
    key_col: str,
    ratios: dict[str, float],
    *,
    salt: str = "",
    out_col: str = "split",
) -> rd.Dataset:
    """Append ``out_col`` with a deterministic split label per row.
    ``ratios`` values must sum to 1 (1e-9 tolerance); thresholds are
    cumulative over a 10,000-bucket space, so realized proportions are
    exact to 1e-4 in expectation."""
    labels, bounds = label_bounds(ratios)

    def fn(t: pa.Table) -> pa.Table:
        b = _bucket_of(t.column(key_col), salt)
        li = np.searchsorted(bounds, b, side="right")
        out = np.array(labels, dtype=object)[np.minimum(li, len(labels) - 1)]
        return t.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def rank_sql_expr(key_expr: str, *, salt: str = "") -> str:
    """DuckDB expression computing the SAME full-resolution mixed hash
    as :func:`_rank_of` — the sampling-rank primitive behind
    :func:`uniform_sample_k`'s oracle and the bucket expression."""
    # COALESCE mirrors Python str(None) == 'None'; int/string keys render
    # identically in both engines (float keys may not — use int/str keys)
    s = f"'{salt}:' || COALESCE(CAST({key_expr} AS VARCHAR), 'None')"
    h = (
        f"list_reduce(list_prepend(0::BIGINT, "
        f"list_transform(range(1, length({s}) + 1), i -> unicode(substr({s}, i, 1))::BIGINT)), "
        f"(a, c) -> (a * {_BASE} + c) % 2147483647)"
    )
    return f"(({h}) * ({h}) + 48271 * ({h})) % 2147483647"


def bucket_sql_expr(key_expr: str, *, salt: str = "") -> str:
    """DuckDB expression computing the SAME bucket in [0, 10000) as
    :func:`_bucket_of` for column/expression ``key_expr`` — the shared
    primitive behind the split and stratified-sample oracles."""
    return f"(({rank_sql_expr(key_expr, salt=salt)}) % {_BUCKETS})"


def uniform_sample_k(
    ds: rd.Dataset,
    key_col: str,
    k: int,
    *,
    salt: str = "",
) -> rd.Dataset:
    """Deterministic uniform sample of EXACTLY ``min(k, n)`` rows: the
    k smallest rows under the (mixed-hash, key) total order — a pure
    function of the keys, so stable across reruns, partitionings and
    engines (``rank_sql_expr`` is the SQL mirror), unlike
    ``Dataset.random_sample`` (fractional, seed/partitioning-dependent)
    or reservoir sampling (order-dependent). Requires unique keys for
    the order to be total; hash ties across distinct keys are broken by
    the key itself.

    Scale shape: each batch prunes locally to its k smallest candidates
    (so the sort input is <= k * num_batches rows, not the dataset),
    then one small distributed sort + limit picks the global k. No
    driver-side collection.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def prune(t: pa.Table) -> pa.Table:
        import pandas as pd

        h = _rank_of(t.column(key_col), salt).astype(np.int64)
        t2 = t.append_column("__usk_h", pa.array(h))
        if t.num_rows <= k:
            return t2
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        # null-safe hash-tie break: nulls sort after non-null keys (SQL
        # NULLS LAST); a None in an object array would crash lexsort
        isnull = pd.isna(keys)
        if isnull.any():
            fill = keys[~isnull][0] if (~isnull).any() else 0
            keys = np.where(isnull, fill, keys)
            order = np.lexsort((keys, isnull, h))[:k]
        else:
            order = np.lexsort((keys, h))[:k]
        return t2.take(pa.array(np.sort(order)))

    out = ds.map_batches(prune, batch_format="pyarrow").sort(["__usk_h", key_col]).limit(k)
    return out.map_batches(
        lambda t: t.drop_columns(["__usk_h"]), batch_format="pyarrow"
    )


def weighted_sample(
    ds: rd.Dataset,
    key_col: str,
    weight_col: str,
    *,
    salt: str = "",
) -> rd.Dataset:
    """Deterministic per-row Bernoulli sampling with a PER-ROW keep
    probability: row survives iff ``bucket(key) < clamp(weight, 0, 1) *
    10000`` — the generalization of :func:`stratified_sample` from
    per-group constants to a weight COLUMN (quality-weighted
    downsampling: keep each document with probability proportional to
    its quality score, the standard corpus-mixing move). Pure hash
    filter: zero shuffle, stable across reruns/partitionings/engines
    (same bucket primitive as ``hash_split``; the SQL mirror is
    ``bucket_sql_expr(key) < LEAST(GREATEST(w, 0), 1) * 10000``). NULL
    or NaN weights never keep the row in the ENGINE; the SQL mirror
    matches for NULL (comparison yields NULL), but DuckDB sorts literal
    NaN as greatest, so a weight column that can hold NaN needs an
    ``AND NOT isnan(w)`` guard in the mirror.
    Realized rates are exact to the 1e-4 bucket resolution."""

    def fn(t: pa.Table) -> pa.Table:
        b = _bucket_of(t.column(key_col), salt)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        thr = np.clip(w, 0.0, 1.0) * _BUCKETS  # NaN propagates -> compare False
        with np.errstate(invalid="ignore"):
            keep = b < thr
        return t.filter(pa.array(np.where(np.isnan(thr), False, keep)))

    return ds.map_batches(fn, batch_format="pyarrow")


def sample_per_group(
    ds: rd.Dataset,
    key_col: str,
    group_col: str,
    k: int,
    *,
    salt: str = "",
) -> rd.Dataset:
    """Deterministic sample of EXACTLY ``min(k, group size)`` rows per
    ``group_col`` group: each group's k smallest rows under the
    (mixed-hash(key), key) total order — the per-group analog of
    :func:`uniform_sample_k` (same hash, same SQL mirror via
    ``rank_sql_expr`` + ``row_number() OVER (PARTITION BY ...)``), for
    balanced per-domain/per-language eval draws and quota inspection
    samples. Stable across reruns, partitionings and engines; requires
    unique keys for the order to be total.

    Scale shape: each batch prunes locally to <= k candidates per group
    present in the batch (one C++ sort + a vectorized run-position
    mask), so the single group exchange moves <= k * num_batches rows
    per group, never the dataset; no driver-side collection. Groups are
    hash-partitioned by the exchange — a group with fewer than
    k * num_batches candidate rows is never a skew hazard."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def _keep_k_per_run(srt: pa.Table) -> pa.Table:
        import pandas as pd

        g = srt.column(group_col).to_numpy(zero_copy_only=False)
        codes = pd.factorize(g, use_na_sentinel=False)[0]  # runs are contiguous
        new = np.r_[True, codes[1:] != codes[:-1]]
        starts = np.flatnonzero(new)
        lens = np.diff(np.r_[starts, np.int64(len(codes))])
        pos = np.arange(len(codes)) - np.repeat(starts, lens)
        return srt.filter(pa.array(pos < k))

    def prune(t: pa.Table) -> pa.Table:
        h = _rank_of(t.column(key_col), salt).astype(np.int64)
        t2 = t.append_column("__spg_h", pa.array(h))
        if t.num_rows <= k:
            return t2
        srt = t2.sort_by(
            [(group_col, "ascending"), ("__spg_h", "ascending"), (key_col, "ascending")]
        )
        return _keep_k_per_run(srt)

    def final(t: pa.Table) -> pa.Table:
        srt = t.sort_by(
            [(group_col, "ascending"), ("__spg_h", "ascending"), (key_col, "ascending")]
        )
        return _keep_k_per_run(srt).drop_columns(["__spg_h"])

    # a partition holds several groups (None and str among them);
    # `final` separates them by value
    cand = ds.map_batches(prune, batch_format="pyarrow")
    return exchange(cand, group_col, _GROUP_PARTITIONS, final, batch_format="pyarrow")


def split_sql_expr(key_expr: str, ratios: dict[str, float], *, salt: str = "") -> str:
    """The DuckDB expression computing the SAME label as
    :func:`hash_split` for column/expression ``key_expr`` — used by the
    driver oracle and handy for cross-engine validation."""
    labels = list(ratios)
    cum = np.cumsum([ratios[l] for l in labels])
    bounds = np.minimum(np.round(cum * _BUCKETS).astype(np.int64), _BUCKETS)
    bucket = bucket_sql_expr(key_expr, salt=salt)
    expr = "CASE "
    for lab, b in zip(labels, bounds):
        if lab != labels[-1]:
            expr += f"WHEN {bucket} < {int(b)} THEN '{lab}' "
        else:
            expr += f"ELSE '{lab}' "
    return expr + "END"


def replicate_weighted(
    ds: rd.Dataset,
    key_col: str,
    weight: float,
    *,
    salt: str = "",
    copy_col: str = "copy",
) -> rd.Dataset:
    """Deterministic row replication at a fractional rate: every row
    appears ``floor(weight)`` times plus one more with probability
    ``frac(weight)`` (the same hash-bucket draw as
    :func:`weighted_sample`), each copy tagged ``copy_col`` = 0..n-1 so
    downstream packing/shuffling can tell copies apart. ``weight < 1``
    degenerates to Bernoulli subsampling (copy always 0). Zero shuffle,
    partitioning-stable, SQL-mirrorable (``UNNEST(range(...))`` with the
    shared bucket expression)."""
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    base = int(np.floor(weight))
    frac = weight - base

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column(copy_col, pa.array([], pa.int64()))
        cnt = np.full(n, base, dtype=np.int64)
        if frac > 0:
            b = _bucket_of(t.column(key_col), salt)
            cnt += (b < frac * _BUCKETS).astype(np.int64)
        idx = np.repeat(np.arange(n, dtype=np.int64), cnt)
        out = t.take(pa.array(idx))
        starts = np.r_[np.int64(0), np.cumsum(cnt)[:-1]]
        copy = np.arange(len(idx), dtype=np.int64) - np.repeat(starts, cnt)
        return out.append_column(copy_col, pa.array(copy))

    return ds.map_batches(fn, batch_format="pyarrow")


def mix_corpora(
    sources: dict[str, tuple[rd.Dataset, float]],
    key_col: str,
    *,
    salt: str = "",
    source_col: str = "source_label",
    copy_col: str = "copy",
) -> rd.Dataset:
    """Training-mix assembly: union the given corpora with per-source
    sampling weights — the standard "2x Wikipedia, 0.3x CommonCrawl"
    move. Each source is independently replicated/subsampled by
    :func:`replicate_weighted` (salted per source so the same key in
    two sources draws independently) and tagged ``source_col``; schemas
    must already agree (project upstream). Zero shuffle end-to-end: the
    mix is a metadata union of per-batch maps; feed it to
    ``random_shuffle`` / ``hash_split`` / ``pack_sequences``
    downstream as the recipe requires."""
    if not sources:
        raise ValueError("sources must be a non-empty {label: (dataset, weight)} dict")
    parts = []
    for label, (ds, w) in sources.items():
        rep = replicate_weighted(
            ds, key_col, w, salt=f"{salt}|{label}", copy_col=copy_col
        )

        def tag(t: pa.Table, _lab=label) -> pa.Table:
            return t.append_column(
                source_col, pa.array(np.repeat(_lab, t.num_rows), pa.string())
            )

        parts.append(rep.map_batches(tag, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
