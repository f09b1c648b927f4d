"""Event-stream operators for training-data pipelines: gap-based
sessionization and per-session aggregates.

Not reference operators — fozziejoin has no event-stream surface; these
are the standard building blocks a behavioral-data pipeline needs next
to the temporal joins (user histories -> sessions -> session features).

Scale design: ONE hash shuffle on the entity column puts every user's
events in one partition; inside a partition everything is vectorized
pandas over integer microseconds (no floats anywhere, so results are
bit-exact and SQL-replicable). Sessions of one user never span
partitions, so per-partition aggregates are already global — no second
shuffle for :func:`session_stats`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..exchange import exchange

UNIT_US = {
    "us": 1,
    "ms": 1_000,
    "seconds": 1_000_000,
    "minutes": 60_000_000,
    "hours": 3_600_000_000,
    "days": 86_400_000_000,
}


def _gap_us(gap: float, unit: str) -> int:
    if unit not in UNIT_US:
        raise ValueError(f"unknown unit {unit!r}; expected one of {tuple(UNIT_US)}")
    return int(round(float(gap) * UNIT_US[unit]))


def _flags_and_seq(df, user_col: str, ts_col: str, gap_us: int):
    """Sort by (user, ts) and return the sorted frame plus the 1-based
    per-user session sequence. A new session starts at the user's first
    event or when the gap to the previous event EXCEEDS ``gap_us``
    (strictly greater: a gap of exactly ``gap`` stays in-session).
    Equal timestamps trivially stay in-session, so tie order never
    changes membership.

    The timestamp column is normalized to datetime64[us] first: an input
    that reaches pandas as timestamp[ns]/[ms]/[s] would otherwise view to
    the wrong integer unit and be compared against a microsecond gap."""
    df = df.sort_values([user_col, ts_col], kind="stable")
    if df[ts_col].dtype != "datetime64[us]":
        df = df.copy()
        df[ts_col] = df[ts_col].astype("datetime64[us]")
    ts_us = df[ts_col].astype("int64").to_numpy()  # timestamp[us] -> micros
    users = df[user_col].to_numpy()
    new_user = np.r_[True, users[1:] != users[:-1]]
    gap_break = np.r_[False, (ts_us[1:] - ts_us[:-1]) > gap_us]
    flag = new_user | gap_break
    # per-user cumulative count of breaks = global cumsum minus the
    # cumsum just before each user's first row
    cs = np.cumsum(flag)
    base = np.repeat(cs[new_user] - 1, np.diff(np.r_[np.nonzero(new_user)[0], len(df)]))
    return df, (cs - base).astype(np.int64)


def sessionize(
    events: rd.Dataset,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    gap: float = 30,
    unit: str = "minutes",
    session_col: str = "session_seq",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Append a 1-based per-user session sequence number: a new session
    starts when the gap to the user's previous event exceeds ``gap``."""
    gus = _gap_us(gap, unit)

    def part(df):
        if not len(df):
            return df
        df, seq = _flags_and_seq(df, user_col, ts_col, gus)
        df = df.copy()
        df[session_col] = seq
        return df

    return exchange(events, user_col, num_partitions, part, batch_format="pandas")


def window_agg(
    events: rd.Dataset,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    width: float = 1,
    hop: float | None = None,
    unit: str = "hours",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Tumbling / hopping window aggregation: one row per
    (``user_col``, ``win_start``) with ``n_events`` and the
    sum/min/max of ``value_col``. ``win_start`` is the window's start
    as int64 epoch-microseconds (windows are epoch-aligned multiples
    of ``hop``), so results are engine-portable and SQL-replicable.

    ``hop=None`` (or ``hop == width``) gives tumbling windows; a
    ``hop`` that divides ``width`` gives hopping windows where every
    event lands in exactly ``width/hop`` windows.

    Scale design: windows are assigned and PARTIALLY AGGREGATED inside
    each batch (pandas groupby over the np.repeat-replicated window
    keys — the replication collapses immediately), so the single hash
    shuffle moves one row per (user, window, batch), not per event;
    the per-partition merge then combines partials. Sum-of-partial-sums
    equals any other float64 summation order only approximately —
    callers comparing across engines should round (the driver oracle
    rounds to 6 decimals, far coarser than the ~1e-10 noise here)."""
    import pandas as pd

    wus = _gap_us(width, unit)
    hus = wus if hop is None else _gap_us(hop, unit)
    if wus <= 0 or hus <= 0:
        raise ValueError("width and hop must be positive")
    if wus % hus:
        raise ValueError(f"hop must divide width (width={wus}us, hop={hus}us)")
    reps = wus // hus

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([user_col, ts_col, value_col]).to_pandas()
        if df[ts_col].dtype != "datetime64[us]":
            df[ts_col] = df[ts_col].astype("datetime64[us]")
        ts_us = df[ts_col].astype("int64").to_numpy()
        last_hop = ts_us // hus  # floor; epoch timestamps are non-negative
        if reps == 1:  # tumbling: reps==1 forces hop == width
            win = last_hop * wus
            users = df[user_col].to_numpy()
            vals = df[value_col].to_numpy()
        else:
            k = np.tile(np.arange(reps, dtype=np.int64), len(df))
            win = (np.repeat(last_hop, reps) - k) * hus
            users = np.repeat(df[user_col].to_numpy(), reps)
            vals = np.repeat(df[value_col].to_numpy(), reps)
        g = pd.DataFrame({user_col: users, "win_start": win, "v": vals}).groupby(
            [user_col, "win_start"], sort=False
        )["v"]
        agg = g.agg(["size", "sum", "min", "max"]).reset_index()  # size == COUNT(*)
        agg.columns = [user_col, "win_start", "n_events", "value_sum", "value_min", "value_max"]
        agg["n_events"] = agg["n_events"].astype(np.int64)
        # drop the pandas schema-metadata dict: it defeats Ray's schema
        # dedup (unhashable) and carries no information downstream
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    def merge(df):
        if not len(df):
            return df
        g = df.groupby([user_col, "win_start"], sort=False)
        out = g.agg(
            n_events=("n_events", "sum"),
            value_sum=("value_sum", "sum"),
            value_min=("value_min", "min"),
            value_max=("value_max", "max"),
        ).reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return exchange(
        events.map_batches(partial, batch_format="pyarrow"), [user_col, "win_start"],
        num_partitions, merge, batch_format="pandas",
    )


def pivot_event_counts(
    events: rd.Dataset,
    *,
    user_col: str = "user_id",
    type_col: str = "event_type",
    categories: list[str] | tuple[str, ...],
    num_partitions: int = 32,
) -> rd.Dataset:
    """One row per user with a ``n_<category>`` int64 count column per
    entry of ``categories`` (the classic long->wide event pivot).

    ``categories`` must be passed explicitly: a distributed engine cannot
    discover the output schema from the data without an extra pass, and a
    fixed schema is what downstream feature stores need anyway. Rows whose
    type is not in ``categories`` count toward the user's row presence but
    no pivot column (documented: they are neither dropped users nor an
    error).

    Scale design: counts are PARTIALLY AGGREGATED inside each batch with
    one ``np.add.at`` scatter over (user x category) cells, so the single
    hash shuffle moves one row per (user, batch) — not per event; the
    per-partition merge sums partials. Exact (integer counts).
    """
    import pandas as pd

    cats = list(categories)
    if len(set(cats)) != len(cats) or not cats:
        raise ValueError("categories must be a non-empty list of distinct types")
    ncols = [f"n_{c}" for c in cats]

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([user_col, type_col]).to_pandas()
        # factorize, not np.unique: a NULL user id is ONE group (unique
        # raises on object arrays containing None and SQL GROUP BY keeps
        # the null group)
        uidx, users = pd.factorize(df[user_col].to_numpy(), use_na_sentinel=False)
        users = np.asarray(users)
        codes = pd.Categorical(df[type_col], categories=cats).codes.astype(np.int64)
        mat = np.zeros((len(users), len(cats)), dtype=np.int64)
        known = codes >= 0
        np.add.at(mat, (uidx[known], codes[known]), 1)
        cols: dict[str, object] = {user_col: users}
        for j, name in enumerate(ncols):
            cols[name] = mat[:, j]
        return pa.Table.from_pandas(
            pd.DataFrame(cols), preserve_index=False
        ).replace_schema_metadata(None)

    def merge(df):
        if not len(df):
            return df
        out = (
            df.groupby(user_col, sort=False, as_index=False, dropna=False)[ncols]
            .sum()
        )
        for c in ncols:
            out[c] = out[c].astype(np.int64)
        if out[user_col].dtype == object:
            k = out[user_col]
            out[user_col] = k.where(pd.notna(k), None)
        return out

    partials = events.select_columns([user_col, type_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return exchange(partials, user_col, num_partitions, merge, batch_format="pandas")


def event_funnel(
    events: rd.Dataset,
    *,
    steps: list[str] | tuple[str, ...],
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Greedy-earliest funnel: one row per user with ``funnel_depth`` =
    the number of leading ``steps`` the user completed with STRICTLY
    increasing timestamps, matching each step at its earliest feasible
    event, plus ``completed`` (depth == len(steps)).

    Greedy-earliest is the standard funnel semantics and is also optimal
    here: taking the earliest feasible match for step *i* can only widen
    the choices for step *i+1*, so the greedy depth equals the maximum
    achievable depth. Equal-timestamp events cannot chain (strict ``>``),
    which keeps the result independent of tie order.

    Scale design: one hash shuffle on ``user_col``; inside a partition
    the scan loops over STEPS (a handful), never rows — each step is one
    boolean mask plus one ``np.minimum.at`` grouped-min over the
    partition's events. Users with zero qualifying events still appear
    (depth 0).
    """
    import pandas as pd

    steps = list(steps)
    if not steps:
        raise ValueError("steps must name at least one event type")
    _I64MAX = np.iinfo(np.int64).max

    def part(df):
        if not len(df):
            return pd.DataFrame(
                {
                    user_col: pd.Series([], dtype=df[user_col].dtype if user_col in df else object),
                    "funnel_depth": pd.Series([], dtype=np.int64),
                    "completed": pd.Series([], dtype=bool),
                }
            )
        if df[ts_col].dtype != "datetime64[us]":
            df = df.copy()
            df[ts_col] = df[ts_col].astype("datetime64[us]")
        ts = df[ts_col].astype("int64").to_numpy()
        # factorize, not np.unique: None-safe, and the NULL group is
        # pinned to depth 0 below (NULL never equals NULL, so the SQL
        # oracle's step joins can never advance a null user)
        uidx, users = pd.factorize(df[user_col].to_numpy(), use_na_sentinel=False)
        users = np.asarray(users)
        types = df[type_col].to_numpy()
        depth = np.zeros(len(users), dtype=np.int64)
        prev = np.full(len(users), np.iinfo(np.int64).min)
        for i, step in enumerate(steps):
            elig = (depth[uidx] == i) & (types == step) & (ts > prev[uidx])
            t_min = np.full(len(users), _I64MAX)
            np.minimum.at(t_min, uidx[elig], ts[elig])
            adv = (t_min < _I64MAX) & (depth == i)
            depth[adv] += 1
            prev[adv] = t_min[adv]
        depth[pd.isna(users)] = 0
        out = pd.DataFrame(
            {
                user_col: users,
                "funnel_depth": depth,
                "completed": depth == len(steps),
            }
        )
        if out[user_col].dtype == object:
            k = out[user_col]
            out[user_col] = k.where(pd.notna(k), None)
        return out

    return exchange(
        events.select_columns([user_col, ts_col, type_col]), user_col, num_partitions, part,
        batch_format="pandas",
    )


def window_distinct(
    events: rd.Dataset,
    *,
    ts_col: str = "ts",
    entity_col: str = "user_id",
    width: float = 1,
    unit: str = "hours",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Exact distinct-entity count per epoch-aligned tumbling window
    (active users per hour/day — the de-facto traffic metric). Output:
    ``(win_start int64-us, n_distinct int64, n_events int64)``.

    The distinct-aggregation pattern: each batch reduces to its DISTINCT
    (window, entity) pairs plus an event-count partial, the single
    window-hash exchange moves those pairs (bounded by per-window entity
    cardinality x batches, never raw events), and each window resolves
    exactly inside one partition. NULL entities count toward
    ``n_events`` but not ``n_distinct`` (COUNT(DISTINCT x) ignores
    NULL).
    """
    import pandas as pd

    wus = _gap_us(width, unit)
    if wus <= 0:
        raise ValueError("width must be positive")

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([ts_col, entity_col]).to_pandas()
        if df[ts_col].dtype != "datetime64[us]":
            df[ts_col] = df[ts_col].astype("datetime64[us]")
        if df[ts_col].isna().any():
            raise ValueError(
                "window_distinct requires non-null timestamps (NaT viewed "
                "as int64 wraps the window id); filter null rows first"
            )
        win = (df[ts_col].astype("int64").to_numpy() // wus) * wus
        ent = df[entity_col]
        nevents = pd.Series(win).groupby(win, sort=False).size()
        pairs = pd.DataFrame({"win_start": win, "e": ent}).dropna(subset=["e"])
        pairs = pairs.drop_duplicates()
        ev = pd.DataFrame(
            {
                "win_start": nevents.index.to_numpy(np.int64),
                "e": np.full(len(nevents), None, dtype=object),
                "n_events_part": nevents.to_numpy(np.int64),
            }
        )
        pairs["n_events_part"] = np.int64(0)
        return pd.concat([pairs, ev], ignore_index=True)

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame(
                {
                    "win_start": pd.Series([], dtype=np.int64),
                    "n_distinct": pd.Series([], dtype=np.int64),
                    "n_events": pd.Series([], dtype=np.int64),
                }
            )
        g = df.groupby("win_start", sort=False)
        nd = g["e"].nunique(dropna=True)
        ne = g["n_events_part"].sum()
        return pd.DataFrame(
            {
                "win_start": nd.index.to_numpy(np.int64),
                "n_distinct": nd.to_numpy(np.int64),
                "n_events": ne.to_numpy(np.int64),
            }
        )

    partials = events.select_columns([ts_col, entity_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return exchange(partials, "win_start", num_partitions, resolve, batch_format="pandas")


def rolling_agg(
    events: rd.Dataset,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    width: float = 1,
    unit: str = "hours",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-EVENT trailing-window aggregates: for every input row, the
    count and value-sum of the same user's events with timestamp in
    ``[ts - width, ts]`` (inclusive both ends — SQL ``RANGE BETWEEN
    width PRECEDING AND CURRENT ROW`` semantics, so equal-timestamp
    peers are always included and the result is tie-order independent).
    Appends ``n_win`` (int64) and ``sum_win`` (float64).

    The feature-engineering sibling of :func:`window_agg`: tumbling
    windows give one row per bucket, this gives one row per event with
    its own trailing context (velocity / burst features).

    Scale design: one hash shuffle on ``user_col``; per partition the
    events sort once by (user, ts) and each window resolves with TWO
    vectorized searchsorted probes against the sorted timestamp run
    plus a prefix-sum difference — no per-event loop, no window
    re-scan. Exact for integer-microsecond timestamps; sums are prefix
    differences of float64 (callers comparing across engines should
    round, as with window_agg). NULL users form one partition (SQL
    PARTITION BY); NULL timestamps are rejected (a NaT has no window).
    """
    import pandas as pd

    wus = _gap_us(width, unit)
    if wus <= 0:
        raise ValueError("width must be positive")

    def part(df):
        if not len(df):
            return pd.DataFrame(
                {
                    user_col: pd.Series([], dtype=df[user_col].dtype if user_col in df else object),
                    ts_col: pd.Series([], dtype="datetime64[us]"),
                    value_col: pd.Series([], dtype=np.float64),
                    "n_win": pd.Series([], dtype=np.int64),
                    "sum_win": pd.Series([], dtype=np.float64),
                }
            )
        df = df.sort_values([user_col, ts_col], kind="stable")
        if df[ts_col].dtype != "datetime64[us]":
            df = df.copy()
            df[ts_col] = df[ts_col].astype("datetime64[us]")
        if df[ts_col].isna().any():
            raise ValueError(
                "rolling_agg requires non-null timestamps (a NaT has no "
                "trailing window); filter null rows first"
            )
        ts = df[ts_col].astype("int64").to_numpy()
        users = df[user_col].to_numpy()
        vals = df[value_col].to_numpy(dtype=np.float64)
        # factorize, not !=: NULL users form ONE partition run (NaN != NaN
        # would split every null row into its own run), matching SQL
        # PARTITION BY; sort_values put nulls last so codes stay contiguous
        codes = pd.factorize(users, use_na_sentinel=False)[0]
        new = np.r_[True, codes[1:] != codes[:-1]]
        starts = np.nonzero(new)[0]
        run_id = np.cumsum(new) - 1
        base = starts[run_id]  # each row's run start index
        # per-row window bounds within the sorted global arrays: the
        # composite (run_id * span + ts-offset) trick keeps runs disjoint
        # so ONE searchsorted serves every user at once; span is sized to
        # the partition's widest run so the composite stays in int64
        off = ts - ts[base]  # non-negative within a run
        # per-run cumulative bases (cumsum of each run's OWN span), not
        # nruns * max_span: overflow then needs ~2^63 us of CUMULATIVE
        # per-user activity (~292k user-years) instead of tripping at
        # ~29k users per partition over a 10-year timestamp span
        ends = np.r_[starts[1:], len(off)]
        spans = off[ends - 1] + wus + 1  # off is nondecreasing per run
        if float(spans.sum(dtype=np.float64)) >= 9.0e18:
            raise ValueError(
                "rolling_agg composite key overflow: partition holds "
                f"{len(starts)} users with ~2^63 us of cumulative span — "
                "raise num_partitions to shrink per-partition load"
            )
        rb = np.r_[np.int64(0), np.cumsum(spans[:-1])]
        comp = rb[run_id] + off
        lo_target = rb[run_id] + np.maximum(off - wus, 0)
        lo = np.searchsorted(comp, lo_target, side="left")
        hi = np.searchsorted(comp, comp, side="right")
        n_win = (hi - lo).astype(np.int64)  # COUNT(*): rows, incl. null values
        nn = ~np.isnan(vals)
        csum = np.r_[0.0, np.cumsum(np.where(nn, vals, 0.0))]
        cnn = np.r_[0, np.cumsum(nn)]
        s = csum[hi] - csum[lo]
        # SQL SUM ignores NULLs and is NULL over an all-null window
        s = np.where(cnn[hi] - cnn[lo] > 0, s, np.nan)
        out = df.copy()
        out["n_win"] = n_win
        out["sum_win"] = s
        return out

    return exchange(
        events.select_columns([user_col, ts_col, value_col]), user_col, num_partitions, part,
        batch_format="pandas",
    )


def session_stats(
    events: rd.Dataset,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    gap: float = 30,
    unit: str = "minutes",
    num_partitions: int = 32,
) -> rd.Dataset:
    """One row per (user, session): event count, first/last timestamp and
    integer-microsecond duration. Exact by construction (ints and
    timestamps only); a user's sessions live in one partition, so the
    per-partition aggregate IS the global aggregate."""
    gus = _gap_us(gap, unit)

    def part(df):
        import pandas as pd

        if not len(df):
            return pd.DataFrame(
                {
                    user_col: pd.Series([], dtype=df[user_col].dtype if user_col in df else object),
                    "session_seq": pd.Series([], dtype=np.int64),
                    "n_events": pd.Series([], dtype=np.int64),
                    "ts_first": pd.Series([], dtype="datetime64[us]"),
                    "ts_last": pd.Series([], dtype="datetime64[us]"),
                    "duration_us": pd.Series([], dtype=np.int64),
                }
            )
        df, seq = _flags_and_seq(df, user_col, ts_col, gus)
        # rows are (user, ts)-sorted and seq is monotone per user, so
        # sessions are contiguous runs — run-length math replaces a
        # second pandas groupby/sort (min/max of a sorted run are its
        # endpoints)
        users = df[user_col].to_numpy()
        ts_us = df[ts_col].astype("int64").to_numpy()
        n = len(df)
        new = np.r_[True, (users[1:] != users[:-1]) | (seq[1:] != seq[:-1])]
        idx = np.nonzero(new)[0]
        last = np.r_[idx[1:], n] - 1
        first_us = ts_us[idx]
        last_us = ts_us[last]
        return pd.DataFrame(
            {
                user_col: users[idx],
                "session_seq": seq[idx],
                "n_events": np.diff(np.r_[idx, n]).astype(np.int64),
                "ts_first": first_us.astype("datetime64[us]"),
                "ts_last": last_us.astype("datetime64[us]"),
                "duration_us": (last_us - first_us).astype(np.int64),
            }
        )

    return exchange(
        events.select_columns([user_col, ts_col]), user_col, num_partitions, part,
        batch_format="pandas",
    )
