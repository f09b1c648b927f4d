"""Distributed exact descriptive statistics for pipeline threshold
selection: value counts and discrete quantiles over bounded-cardinality
columns (token counts, lengths, integer quality scores).

A 100 TB curation pipeline picks its filter thresholds ("drop the
bottom 5% by token count") from the corpus distribution; these
operators compute that distribution EXACTLY with one partial-aggregate
pass:

- ``value_counts``: ``map_batches`` computes per-batch (value, count)
  partials — aggregation happens BEFORE the shuffle, so the groupby
  merge moves one row per (batch, distinct value), not per input row.
- ``column_quantiles``: merges the counts and resolves discrete
  quantiles on the driver from the (distinct value, total) table —
  exact, and driver memory is bounded by column CARDINALITY, never row
  count. For genuinely continuous columns (cardinality ~ rows) use a
  sampled approximation instead; exactness there requires a full sort.

Quantile convention matches DuckDB's ``quantile_disc`` (Postgres
``percentile_disc``): the smallest value whose cumulative relative
frequency reaches ``q`` — i.e. the element at 1-based position
``ceil(q * n)`` of the sorted multiset (position 1 for q = 0). NULLs
are ignored, like the SQL aggregate.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange


def value_counts(ds: rd.Dataset, col: str) -> rd.Dataset:
    """(value, count) per distinct value of ``col``; NULLs dropped.
    Per-batch partial counts, then one small groupby-sum merge."""

    def partial(t: pa.Table) -> pa.Table:
        c = t.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        c = c.drop_null()
        vc = c.value_counts()
        if len(vc) == 0:
            return pa.table(
                {"value": pa.array([], c.type), "count": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "value": pc.struct_field(vc, "values"),
                "count": pc.cast(pc.struct_field(vc, "counts"), pa.int64()),
            }
        )

    return ds.select_columns([col]).map_batches(partial, batch_format="pyarrow").groupby(
        "value"
    ).sum("count")


class NoValuesError(ValueError):
    """The column has no non-null value to take a quantile of."""


def column_quantiles(ds: rd.Dataset, col: str, qs: list[float]) -> pa.Table:
    """Exact discrete quantiles of ``col`` at each q in ``qs``.

    Returns an Arrow table (q: float64, value: col's type), one row per
    requested quantile, in the given order. Raises :class:`NoValuesError`
    on an all-null / empty column, and a plain ``ValueError`` on a q
    outside [0, 1]."""
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
    parts = list(value_counts(ds, col).iter_batches(batch_size=None, batch_format="pyarrow"))
    merged = pa.concat_tables(parts) if parts else None
    if merged is None or merged.num_rows == 0:
        raise NoValuesError(f"column {col!r} has no non-null values")
    merged = merged.sort_by("value")
    counts = merged.column("sum(count)").to_numpy(zero_copy_only=False)
    cum = np.cumsum(counts)
    n = int(cum[-1])
    # 1-based rank ceil(q*n), clamped to [1, n]; first value whose
    # cumulative count reaches it
    ranks = np.array([min(max(int(math.ceil(q * n)), 1), n) for q in qs], np.int64)
    idx = np.searchsorted(cum, ranks, side="left")
    vals = merged.column("value").take(pa.array(idx, pa.int64()))
    return pa.table({"q": pa.array([float(q) for q in qs], pa.float64()), "value": vals})


_AGGS = ("count", "sum", "min", "max", "avg")


def group_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    num_partitions: int = 32,
) -> rd.Dataset:
    """General distributed groupby with COMBINER-BEFORE-SHUFFLE: one row
    per distinct key tuple with one output column per ``aggs`` entry
    ``{out_name: (agg, col)}``, agg in count/sum/min/max/avg
    (``("count", "*")`` counts rows; ``("count", col)`` counts non-null).

    This is the wide-aggregation pattern for 100 TB inputs: every batch
    collapses to per-key PARTIALS (count/sum/min/max; avg is carried as
    a sum+count pair and finalized after the merge), so the single hash
    exchange moves one row per (batch, distinct key tuple) instead of
    one per input row. NULLs are ignored by the aggregates (SQL
    semantics); float sums are partial-sum reassociations — exact for
    integer-valued columns, within reassociation noise otherwise
    (callers needing cross-engine bit-equality should aggregate integer
    projections, e.g. cents).
    """
    import pandas as pd

    if not keys:
        raise ValueError("keys must name at least one grouping column")
    for out, (agg, col) in aggs.items():
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r} for {out!r}; expected one of {_AGGS}")
        if col == "*" and agg != "count":
            raise ValueError(f"col='*' only valid with count (got {agg!r} for {out!r})")

    # internal partial plan: out -> list of (partial_col, src_col, how)
    plan: dict[str, list[tuple[str, str, str]]] = {}
    for out, (agg, col) in aggs.items():
        if agg == "count":
            plan[out] = [(f"__p_{out}_c", col, "count")]
        elif agg == "avg":
            plan[out] = [(f"__p_{out}_s", col, "sum"), (f"__p_{out}_c", col, "count")]
        else:
            plan[out] = [(f"__p_{out}_{agg[0]}", col, agg)]
    partial_cols = [p for ps in plan.values() for p in ps]
    merge_how = {pc_: ("sum" if how in ("count", "sum") else how) for pc_, _, how in partial_cols}

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(keys, sort=False, dropna=False)
        cols = {}
        for pc_, col, how in partial_cols:
            if how == "count":
                s = g.size() if col == "*" else g[col].count()
            elif how == "sum":
                # min_count=1: an all-NULL group sums to NULL (SQL), not 0
                s = g[col].sum(min_count=1)
            else:
                s = getattr(g[col], how)()
            cols[pc_] = s
        return pd.DataFrame(cols).reset_index()

    def merge(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            cols = {k: df[k] for k in keys}  # keep key dtypes
            for o, (agg, _c) in aggs.items():
                p0 = plan[o][0][0]
                dt = np.int64 if agg == "count" else (np.float64 if agg == "avg" else df[p0].dtype)
                cols[o] = pd.Series([], dtype=dt)
            return pd.DataFrame(cols)
        g = df.groupby(keys, sort=False, dropna=False)
        # "_s" partials are value sums: re-merge with min_count=1 so an
        # all-NULL group stays NULL through the merge; count partials
        # ("_c") sum plainly (0 is a real count)
        m = pd.DataFrame(
            {
                pc_: (g[pc_].sum(min_count=1) if pc_.endswith("_s") else getattr(g[pc_], how)())
                for pc_, how in merge_how.items()
            }
        ).reset_index()
        out = m[keys].copy()
        for o, (agg, _col) in aggs.items():
            ps = plan[o]
            if agg == "avg":
                out[o] = m[ps[0][0]] / m[ps[1][0]]
            elif agg == "count":
                out[o] = m[ps[0][0]].astype(np.int64)
            else:
                out[o] = m[ps[0][0]]
        return out

    cols_needed = list(
        dict.fromkeys(keys + [c for _, c in aggs.values() if c != "*"])
    )
    partials = ds.select_columns(cols_needed).map_batches(partial, batch_format="pandas")
    return exchange(partials, keys, num_partitions, merge, batch_format="pandas")


def grouped_quantiles(
    ds: rd.Dataset,
    key_col: str,
    col: str,
    qs: list[float],
    *,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Exact per-group discrete quantiles: one output row per
    (``key_col`` value, q in ``qs``) with the quantile_disc-convention
    ``value`` — the per-language / per-source threshold table a
    curation pipeline cuts group-aware filters from.

    Same boundedness contract as :func:`column_quantiles`, per group:
    every batch collapses to (key, value, count) partials before the
    single key-hash exchange, so shuffle volume and partition memory
    are bounded by per-group value CARDINALITY, never row count. All
    of a key's distinct values land in one partition; the resolve step
    is fully vectorized (one composite-key searchsorted per q across
    ALL groups in the partition — no per-group dispatch). NULL keys
    form their own group (SQL GROUP BY semantics); NULL values are
    ignored like the SQL aggregate.
    """
    import pandas as pd

    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not qs:
        raise ValueError("qs must name at least one quantile")
    qarr = np.array(qs, dtype=np.float64)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[[key_col, col]].dropna(subset=[col])
        return (
            df.groupby([key_col, col], sort=False, dropna=False)
            .size()
            .reset_index(name="__c")
        )

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame(
                {
                    key_col: df[key_col],  # keep the key dtype
                    "q": pd.Series([], dtype=np.float64),
                    "value": df[col],
                }
            )
        m = (
            df.groupby([key_col, col], sort=True, dropna=False)["__c"]
            .sum()
            .reset_index()
        )
        # m is sorted by (key, value); group geometry from key runs
        keys = m[key_col].to_numpy()
        vals = m[col].to_numpy()
        cnt = m["__c"].to_numpy(np.int64)
        # factorize instead of != so a NULL key is ONE group (NaN != NaN)
        codes = pd.factorize(keys, use_na_sentinel=False)[0]
        new = np.r_[True, codes[1:] != codes[:-1]]
        gid = np.cumsum(new) - 1  # 0-based group index per row
        starts = np.nonzero(new)[0]
        cs = np.cumsum(cnt)
        base = np.repeat(np.r_[0, cs[starts[1:] - 1]], np.diff(np.r_[starts, len(m)]))
        cum = cs - base  # within-group cumulative counts
        n_g = cum[np.r_[starts[1:] - 1, len(m) - 1]]  # per-group totals
        # composite monotone key: cum < 2^44 rows/group assumed; gid
        # shifts groups onto disjoint ranges so ONE searchsorted
        # resolves every group at once
        shift = np.int64(1) << np.int64(44)
        comp = gid.astype(np.int64) * shift + cum
        rows = []
        for q in qarr:
            ranks = np.minimum(np.maximum(np.ceil(q * n_g).astype(np.int64), 1), n_g)
            tgt = np.arange(len(n_g), dtype=np.int64) * shift + ranks
            idx = np.searchsorted(comp, tgt, side="left")
            rows.append(
                pd.DataFrame(
                    {key_col: keys[starts], "q": np.full(len(n_g), q), "value": vals[idx]}
                )
            )
        out = pd.concat(rows, ignore_index=True)
        # pandas stores the null-key group as NaN (and a null-only
        # partition degrades the whole column to float64): hand Arrow a
        # real None in an object column so every block keeps the key type
        if out[key_col].dtype == object or pd.isna(out[key_col]).any():
            k = out[key_col].astype(object)
            out[key_col] = k.where(pd.notna(k), None)
        return out

    partials = ds.select_columns([key_col, col]).map_batches(partial, batch_format="pandas")
    return exchange(partials, key_col, num_partitions, resolve, batch_format="pandas")


def group_count_distinct(
    ds: rd.Dataset,
    keys: list[str],
    col: str,
    *,
    out_col: str = "n_distinct",
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT ``COUNT(DISTINCT col)`` per key tuple — the aggregate
    :func:`group_aggregate` cannot express with one-row-per-key
    partials (distinctness is a property of the pair set, not a
    mergeable scalar). SQL semantics: NULL ``col`` values are ignored;
    NULL keys form their own group.

    Scale shape: each batch first reduces to its DISTINCT
    (keys..., col) tuples, then ONE exchange partitions those by the
    hash of the FULL tuple — a given pair lands in exactly one
    partition, so the per-partition dedup + per-key counts are globally
    additive — and a second tiny exchange sums at most
    ``num_partitions`` count rows per key. Nothing driver-side; the
    wide exchange moves distinct pairs, never input rows. For pair sets
    too large even for that, :func:`fozziejoin_ray.pipelines.sketch.
    hll_count_distinct` is the sketch sibling."""
    import pandas as pd

    if not keys:
        raise ValueError("keys must name at least one grouping column")

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        # keep NULL-col tuples too: a key whose values are all NULL must
        # still surface with count 0 (SQL GROUP BY emits the group)
        return df[keys + [col]].drop_duplicates()

    def count_part(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates()
        # .count() counts NON-NULL col entries per key; the (key, NULL)
        # tuple contributes the key with 0, never inflating the sum
        g = df.groupby(keys, sort=False, dropna=False)[col].count()
        return g.rename(out_col).reset_index()

    partials = ds.select_columns(list(dict.fromkeys(keys + [col]))).map_batches(
        partial, batch_format="pandas"
    )
    part = exchange(
        partials, list(dict.fromkeys(keys + [col])), num_partitions, count_part,
        batch_format="pandas",
    )
    return group_aggregate(
        part, keys, {out_col: ("sum", out_col)}, num_partitions=num_partitions
    )


def approx_quantiles(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    *,
    bins: int = 8192,
) -> pa.Table:
    """Approximate quantiles for genuinely CONTINUOUS columns — the
    sketch sibling of :func:`column_quantiles`, whose exact path is
    bounded by column cardinality and out of scope when cardinality ~
    rows (float scores, latencies). Two streamed passes:

    1. global (min, max) from per-batch partials (driver reduces
       2 floats per batch);
    2. a fixed ``bins``-bucket histogram per batch over that range,
       tree-merged by ADDITION in ``map_batches`` levels of 64 (the
       same mergeable-sketch shape as CMS/HLL), resolved on the driver
       from the cumulative histogram.

    Deterministic (the grid is a pure function of the data's min/max),
    partitioning-invariant, and rank-exact in WHICH bin each quantile
    falls: the returned value is the bin's upper edge, so the error is
    one bin width, (max-min)/bins — 0.01% of the range at the default.
    NULLs, NaNs AND infinities are ignored (a single inf would
    otherwise poison the whole grid); a constant column short-circuits
    to the exact value. Returns a
    small in-memory table ``(q, value)``; raises ValueError on empty
    input like :func:`column_quantiles`."""
    if not qs or not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"qs must be non-empty fractions in [0, 1], got {qs}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")

    proj = ds.select_columns([col]).materialize()

    def mm(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[np.isfinite(v)]
        if not len(v):
            return pa.table({"lo": pa.array([], pa.float64()), "hi": pa.array([], pa.float64())})
        return pa.table({"lo": pa.array([v.min()]), "hi": pa.array([v.max()])})

    lo, hi = np.inf, -np.inf
    for b in proj.map_batches(mm, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        if b.num_rows:
            lo = min(lo, b["lo"].to_numpy(zero_copy_only=False).min())
            hi = max(hi, b["hi"].to_numpy(zero_copy_only=False).max())
    if not np.isfinite(lo):
        raise ValueError(f"approx_quantiles: no finite values in {col!r}")
    if hi == lo:
        # constant column: the answer is exact, no histogram needed
        return pa.table(
            {"q": pa.array(qs, pa.float64()), "value": pa.array([lo] * len(qs), pa.float64())}
        )
    width = hi - lo
    edges = lo + np.arange(1, bins + 1) * (width / bins)

    def hist(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[np.isfinite(v)]
        idx = np.minimum(
            ((v - lo) / width * bins).astype(np.int64), bins - 1
        )
        h = np.bincount(idx, minlength=bins).astype(np.int64)
        return pa.table({"h": pa.array([h])})

    def merge_rows(t: pa.Table) -> pa.Table:
        hs = t["h"].combine_chunks()
        merged = (
            hs.flatten().to_numpy(zero_copy_only=False).reshape(-1, bins).sum(axis=0)
        )
        return pa.table({"h": pa.array([merged])})

    reduced = proj.map_batches(hist, batch_format="pyarrow").map_batches(
        merge_rows, batch_format="pyarrow", batch_size=64
    )
    total = np.zeros(bins, dtype=np.int64)
    for b in reduced.iter_batches(batch_size=None, batch_format="pyarrow"):
        total += (
            b["h"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .reshape(-1, bins)
            .sum(axis=0)
        )
    cum = np.cumsum(total)
    n = int(cum[-1])
    out_v = []
    for q in qs:
        pos = max(1, math.ceil(q * n))  # quantile_disc convention
        out_v.append(float(edges[np.searchsorted(cum, pos)]))
    return pa.table({"q": pa.array(qs, pa.float64()), "value": pa.array(out_v, pa.float64())})
