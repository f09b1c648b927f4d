"""Top-k-per-group: keep each group's k best rows by an ordering column.

The data-curation staple (k best-quality documents per domain, k most
recent events per user, k nearest duplicates per cluster) expressed as
ONE hash shuffle on the group key + a vectorized per-partition
sort/head — groups never span partitions, so the partition-local top-k
IS the global top-k and no second pass is needed.

Determinism: ordering ties break on ``tie_cols`` (ascending), which
callers should make a unique key; the emitted ``rank`` is the 1-based
row number under that total order, matching a SQL
``row_number() OVER (PARTITION BY g ORDER BY v DESC, tie)`` QUALIFY.
"""

from __future__ import annotations

import numpy as np
import ray.data as rd

from ..exchange import exchange


def top_k_per_group(
    ds: rd.Dataset,
    group_cols: list[str] | str,
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tie_cols: list[str] | str | None = None,
    rank_col: str | None = "rank",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Rows of ``ds`` ranked within each group by ``order_col``
    (descending by default, ties broken by ``tie_cols`` ascending),
    keeping ``rank <= k``. Null ordering values sort last and are kept
    only if a group has fewer than k non-null rows (SQL NULLS LAST)."""
    import pandas as pd

    if isinstance(group_cols, str):
        group_cols = [group_cols]
    if isinstance(tie_cols, str):
        tie_cols = [tie_cols]
    tie_cols = list(tie_cols or [])
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def part(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            if rank_col is not None:
                df[rank_col] = pd.Series([], dtype=np.int64)
            return df
        # NULLS LAST regardless of direction: sort on a null-marker first
        marker = df[order_col].isna().astype(np.int8)
        df = (
            df.assign(__null=marker)
            .sort_values(
                ["__null", *group_cols, order_col, *tie_cols],
                ascending=[True, *([True] * len(group_cols)), not descending, *([True] * len(tie_cols))],
                kind="stable",
            )
            .drop(columns="__null")
        )
        # group rows are no longer contiguous (nulls sorted to the back),
        # so rank via groupby-cumcount, then filter
        rank = df.groupby(group_cols, sort=False, dropna=False).cumcount().to_numpy() + 1
        keep = rank <= k
        out = df.iloc[np.nonzero(keep)[0]]
        if rank_col is not None:
            out = out.assign(**{rank_col: rank[keep].astype(np.int64)})
        return out

    return exchange(ds, group_cols, num_partitions, part, batch_format="pandas")
