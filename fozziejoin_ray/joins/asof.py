"""As-of joins: match each left row to its nearest right row in time.

Not a reference operator — fozziejoin's temporal join returns EVERY row
within ``max_distance`` (R/fozzie_temporal_join.R:44-110); training-data
pipelines constantly need the other shape: "the latest signal at or
before this example's timestamp" (feature lookups, label alignment,
point-in-time correctness). ``fuzzy_asof_join`` keeps the reference's
surrounding conventions (NA never matches, inclusive tolerance with the
f64 epsilon, all six join modes via the shared assembler) and adds:

- ``direction``: "backward" (right.t <= left.t, the default), "forward"
  (right.t >= left.t), or "nearest" (smaller absolute gap; ties break
  backward, the pandas ``merge_asof`` convention);
- ``tolerance``: optional max gap (required for the blocked strategy);
- ``on_exact``: equality keys that must match before the time
  comparison (the per-entity as-of, e.g. per ``user_id``);
- tie rule: among right rows sharing the winning timestamp, the largest
  right id wins (deterministic on both the Ray and SQL sides).

Strategies:

- "broadcast": the right (t, id, exact-key) columns are collected,
  grouped by exact key and time-sorted ONCE, shipped via ``ray.put``,
  and each left batch is a plain task that reads them and resolves its
  rows with vectorized searchsorted probes per exact-key group. Right
  side must fit the object store — the natural shape when the right is
  a reference series (prices, model versions, config changes).
- "blocked" (both sides huge; requires ``tolerance``): the time line is
  tiled at width ``tolerance`` and exchanged once — rights to their
  home tile, lefts to the 2 (backward/forward) or 3 (nearest) tiles
  that can contain their winner; each partition picks its local best
  per left row, and a second, small exchange over the <= 3 local
  winners per left row picks the global one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..exchange import exchange
from ..semantics import F64_EPS, check_mode
from .modes import normalize_by
from .numeric_join import _numeric_np, run_plan
from .rowids import collect_columns
from .string_join import LID, RID

_DIRECTIONS = ("backward", "forward", "nearest")
# broadcast plan left batch size
_BATCH = 65536


def _exact_codes(arrays: list, index=None):
    """Factorize one or more exact-key columns into int codes. With
    ``index`` (a pandas Index built by a previous call), map into ITS
    categories (-1 = unseen). Null/NaN keys code to -1 (NA never
    matches)."""
    import pandas as pd

    if len(arrays) == 1:
        vals = pd.Index(arrays[0])
    else:
        vals = pd.MultiIndex.from_arrays(arrays)
    if index is None:
        codes, uniques = pd.factorize(vals)
        if isinstance(uniques, pd.MultiIndex):
            mask = np.zeros(len(codes), dtype=bool)
            for a in arrays:
                mask |= pd.isna(pd.Series(a)).to_numpy()
            codes = np.where(mask, -1, codes)
        return codes, pd.Index(uniques) if not isinstance(uniques, pd.Index) else uniques
    return index.get_indexer(vals), index


class RightAsofIndex:
    """Time-sorted right side, grouped by exact key: flat sorted arrays
    plus [start, end) offsets per group. Built once, shared zero-copy."""

    def __init__(self, tvals: np.ndarray, rids: np.ndarray, rid_type, ekeys: list):
        import pandas as pd

        ok = ~np.isnan(tvals)
        for a in ekeys:
            ok &= ~pd.isna(pd.Series(a)).to_numpy()
        tvals, rids = tvals[ok], rids[ok]
        ekeys = [np.asarray(a)[ok] for a in ekeys]
        self.rid_type = rid_type
        if ekeys:
            codes, self.key_index = _exact_codes(ekeys)
        else:
            codes, self.key_index = np.zeros(len(tvals), np.int64), None
        # sort by (group, t, rid): stable take-last == largest rid on ties
        df = pd.DataFrame({"c": codes, "t": tvals, "r": rids})
        df = df.sort_values(["c", "t", "r"], kind="stable")
        self.t = df["t"].to_numpy(dtype=np.float64)
        self.rids = df["r"].to_numpy()
        c = df["c"].to_numpy()
        ngroups = int(c[-1]) + 1 if len(c) else 0
        self.grp_start = np.searchsorted(c, np.arange(ngroups), side="left")
        self.grp_end = np.searchsorted(c, np.arange(ngroups), side="right")

    def lookup_codes(self, ekey_arrays: list) -> np.ndarray:
        if self.key_index is None:
            return np.zeros(len(ekey_arrays[0]) if ekey_arrays else 0, np.int64)
        codes, _ = _exact_codes(ekey_arrays, self.key_index)
        return codes


def _resolve(idx: RightAsofIndex, codes, x, direction: str, tol: float | None):
    """Per left row: position of the winning right row in idx order, or
    -1. Vectorized searchsorted per exact-key group."""
    n = len(x)
    pos = np.full(n, -1, dtype=np.int64)
    gap = np.full(n, np.nan)
    if len(idx.t) == 0:
        # right side had no usable rows (all-null ordering values, or
        # simply empty): NA-never-matches => every left row is unmatched
        return pos, gap
    ok = (~np.isnan(x)) & (codes >= 0)
    thr = (tol + F64_EPS) if tol is not None else None

    def backward(rows, gs, ge):
        p = gs + np.searchsorted(idx.t[gs:ge], x[rows], side="right") - 1
        good = p >= gs
        d = x[rows] - idx.t[np.clip(p, gs, None)]
        if thr is not None:
            good &= d <= thr
        return np.where(good, p, -1), np.where(good, d, np.nan)

    def forward(rows, gs, ge):
        p = gs + np.searchsorted(idx.t[gs:ge], x[rows], side="left")
        good = p < ge
        pc_ = np.clip(p, None, max(ge - 1, gs))
        d = idx.t[pc_] - x[rows]
        if thr is not None:
            good &= d <= thr
        # ties on the winning timestamp take the largest rid: extend the
        # first >= x hit to the last row sharing its timestamp
        if good.any():
            gp = np.nonzero(good)[0]
            p = p.copy()
            p[gp] = gs + np.searchsorted(idx.t[gs:ge], idx.t[p[gp]], side="right") - 1
        return np.where(good, p, -1), np.where(good, d, np.nan)

    for g in np.unique(codes[ok]):
        rows = np.nonzero(ok & (codes == g))[0]
        gs, ge = int(idx.grp_start[g]), int(idx.grp_end[g])
        if gs >= ge:
            continue
        if direction == "backward":
            p, d = backward(rows, gs, ge)
        elif direction == "forward":
            p, d = forward(rows, gs, ge)
        else:  # nearest: smaller gap wins, ties break backward
            pb, db = backward(rows, gs, ge)
            pf, df_ = forward(rows, gs, ge)
            use_f = (pf >= 0) & ((pb < 0) | (df_ < db))
            p = np.where(use_f, pf, pb)
            d = np.where(use_f, df_, db)
        pos[rows] = p
        gap[rows] = d
    return pos, gap


def resolve_left_batch(
    idx: RightAsofIndex, batch: pa.Table, lid: str, lkey: str, l_exact: list,
    direction: str, tolerance: float | None,
) -> pa.Table:
    """The broadcast plan's per-batch task: each row of a left batch
    matched to its winning right row in ``idx``; emits (lid, rid, gap)."""
    x = _numeric_np(batch.column(lkey))
    ek = [batch.column(c).to_numpy(zero_copy_only=False) for c in l_exact]
    codes = idx.lookup_codes(ek) if ek else np.zeros(len(x), np.int64)
    pos, gap = _resolve(idx, codes, x, direction, tolerance)
    hit = pos >= 0
    lids = batch.column(lid).to_numpy(zero_copy_only=False)[hit]
    return pa.table(
        {
            LID: pa.array(lids, type=batch.schema.field(lid).type),
            RID: pa.array(idx.rids[pos[hit]], type=idx.rid_type),
            "__fj_d0": pa.array(gap[hit], pa.float64()),
        }
    )


# ------------------------------------------------------------- blocked path

_AB = "__ab_bucket"
_AS = "__ab_side"
_AI = "__ab_id"
_AT = "__ab_t"


def _asof_emit(side: int, id_col: str, t_col: str, exact_cols: list[str], width: float, direction: str):
    """Rights to their home tile floor(t/width); lefts to every tile that
    can hold their winner under ``tolerance`` (2 for backward/forward,
    3 for nearest), so each (left, candidate) pair meets exactly once —
    in the candidate's home tile."""
    offs = {"backward": (-1, 0), "forward": (0, 1), "nearest": (-1, 0, 1)}[direction]

    def fn(t: pa.Table) -> pa.Table:
        import pandas as pd

        v = _numeric_np(t[t_col])
        ok = ~np.isnan(v)
        for c in exact_cols:
            ok &= ~pd.isna(pd.Series(t[c].to_numpy(zero_copy_only=False))).to_numpy()
        okpos = np.nonzero(ok)[0]
        b0 = np.floor(v[okpos] / width).astype(np.int64)
        if side == 1:
            rows, bks = okpos, b0
        else:
            rows = np.repeat(okpos, len(offs))
            bks = (b0[:, None] + np.array(offs)[None, :]).ravel()
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        take = pa.array(rows, pa.int64())
        cols = {
            _AB: pa.array(bks),
            _AS: pa.array(np.full(len(rows), side, dtype=np.int8)),
            _AI: idc.take(take),
            _AT: pa.array(v[rows], pa.float64()),
        }
        for i, c in enumerate(exact_cols):
            ec = t[c].combine_chunks() if isinstance(t[c], pa.ChunkedArray) else t[c]
            cols[f"__ae{i}"] = ec.take(take)
        return pa.table(cols)

    return fn


def _blocked_asof_edges(
    left, right, lkey, rkey, l_exact, r_exact, lid, rid,
    direction: str, tol: float, num_partitions: int,
) -> rd.Dataset:
    import pandas as pd

    nexact = len(l_exact)
    el = left.select_columns([lid, lkey] + l_exact).map_batches(
        _asof_emit(0, lid, lkey, l_exact, tol, direction), batch_format="pyarrow"
    )
    er = right.select_columns([rid, rkey] + r_exact).map_batches(
        _asof_emit(1, rid, rkey, r_exact, tol, direction), batch_format="pyarrow"
    )

    def local_best(t: pa.Table) -> pa.Table:
        idt = t.schema.field(_AI).type
        empty = pa.table(
            {
                LID: pa.array([], idt),
                RID: pa.array([], idt),
                "__t": pa.array([], pa.float64()),
                "__fj_d0": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        side = t[_AS].to_numpy(zero_copy_only=False)
        rsel = np.nonzero(side == 1)[0]
        lsel = np.nonzero(side == 0)[0]
        if not len(rsel) or not len(lsel):
            return empty
        # candidates within this partition share (exact keys, tile) up to
        # hash collisions; resolve exactly with the grouped index
        rt = t.take(pa.array(rsel, pa.int64()))
        idx = RightAsofIndex(
            rt[_AT].to_numpy(zero_copy_only=False).astype(np.float64),
            (rt[_AI].combine_chunks() if isinstance(rt[_AI], pa.ChunkedArray) else rt[_AI]).to_numpy(zero_copy_only=False),
            idt,
            [rt[f"__ae{i}"].to_numpy(zero_copy_only=False) for i in range(nexact)],
        )
        lt = t.take(pa.array(lsel, pa.int64()))
        x = lt[_AT].to_numpy(zero_copy_only=False).astype(np.float64)
        ek = [lt[f"__ae{i}"].to_numpy(zero_copy_only=False) for i in range(nexact)]
        codes = idx.lookup_codes(ek) if ek else np.zeros(len(x), np.int64)
        pos, gap = _resolve(idx, codes, x, direction, tol)
        hit = pos >= 0
        lids = (lt[_AI].combine_chunks() if isinstance(lt[_AI], pa.ChunkedArray) else lt[_AI]).to_numpy(zero_copy_only=False)[hit]
        return pa.table(
            {
                LID: pa.array(lids, idt),
                RID: pa.array(idx.rids[pos[hit]], idt),
                "__t": pa.array(idx.t[pos[hit]], pa.float64()),
                "__fj_d0": pa.array(gap[hit], pa.float64()),
            }
        )

    tile_keys = [_AB] + [f"__ae{i}" for i in range(nexact)]
    locals_ = exchange([el, er], tile_keys, num_partitions, local_best, batch_format="pyarrow")

    # global winner among the <= len(offs) local winners per left row
    def global_best(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return df.drop(columns=["__t"], errors="ignore")
        if direction == "nearest":
            # smaller gap wins; gap ties break backward (t <= x has the
            # same gap only when both sides are equidistant; backward =
            # smaller t); then largest rid
            df = df.sort_values(
                [LID, "__fj_d0", "__t", RID], ascending=[True, True, True, False], kind="stable"
            )
        elif direction == "backward":
            df = df.sort_values([LID, "__t", RID], ascending=[True, False, False], kind="stable")
        else:
            df = df.sort_values([LID, "__t", RID], ascending=[True, True, False], kind="stable")
        df = df.drop_duplicates(LID, keep="first")
        return df.drop(columns=["__t"])

    return exchange(locals_, LID, num_partitions, global_best, batch_format="pandas")


def fuzzy_asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    on_exact=None,
    direction: str = "backward",
    tolerance: float | None = None,
    how: str = "inner",
    distance_col: str | None = None,
    left_id: str | None = None,
    right_id: str | None = None,
    num_partitions: int = 16,
    strategy: str = "auto",
    drop_cols: tuple = (),
) -> rd.Dataset:
    """Nearest-match join on a numeric ordering column (see module doc).

    ``by``: exactly one (left_col, right_col) ordering pair; ``on_exact``:
    optional equality keys, same forms as ``by``. The blocked strategy
    requires a finite ``tolerance``; "auto" picks it when there is one
    and the right side has more than ``rowids.BROADCAST_ROWS`` rows."""
    check_mode(how)
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; expected one of {_DIRECTIONS}")
    by = normalize_by(by, left, right)
    if len(by) != 1:
        raise ValueError("asof join takes exactly one ordering key pair")
    exact = normalize_by(on_exact, left, right) if on_exact is not None else []
    tiles = tolerance is not None and tolerance > 0
    if strategy == "blocked" and not tiles:
        raise ValueError(
            "blocked asof requires a finite tolerance > 0 (unbounded lookback "
            "cannot tile, and width-0 tiles are undefined; exact-timestamp "
            "matching at tolerance=0 works via the broadcast strategy)"
        )
    if strategy == "auto" and not tiles:
        strategy = "broadcast"
    lkey, rkey = by[0]
    l_exact = [l for l, _ in exact]
    r_exact = [r for _, r in exact]

    def build_edges(strategy, left, right, lid, rid):
        if strategy == "blocked":
            return _blocked_asof_edges(
                left, right, lkey, rkey, l_exact, r_exact, lid, rid,
                direction, float(tolerance), num_partitions,
            )
        rt = collect_columns(right, [rid, rkey] + sorted(set(r_exact)))
        index = ray.put(
            RightAsofIndex(
                _numeric_np(rt[rkey]),
                rt[rid].to_numpy(zero_copy_only=False),
                rt.schema.field(rid).type,
                [rt[c].to_numpy(zero_copy_only=False) for c in r_exact],
            )
        )
        tol = None if tolerance is None else float(tolerance)

        def probe(batch: pa.Table) -> pa.Table:
            return resolve_left_batch(ray.get(index), batch, lid, lkey, l_exact, direction, tol)

        return left.select_columns([lid, lkey] + sorted(set(l_exact))).map_batches(
            probe, batch_format="pyarrow", batch_size=_BATCH
        )

    return run_plan(
        left,
        right,
        strategy,
        left_id,
        right_id,
        build_edges,
        how=how,
        num_partitions=num_partitions,
        drop_cols=drop_cols,
        distance_cols=[distance_col] if distance_col else [],
        n_dist=1,
    )


def fuzzy_temporal_asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    tolerance: float | None = None,
    unit: str = "seconds",
    **kwargs,
) -> rd.Dataset:
    """As-of join on Date / timestamp keys: the reference's temporal
    unit rules (temporal.py / fozzie_temporal_join.R:91-97) applied to
    :func:`fuzzy_asof_join` — Date keys demand unit='days' and count in
    days; timestamp keys convert ``tolerance`` to seconds."""
    from .temporal import UNIT_MULTIPLIERS, _check_kinds, _to_numeric_cols

    if unit not in UNIT_MULTIPLIERS:
        raise ValueError(f"unknown unit {unit!r}; expected one of {tuple(UNIT_MULTIPLIERS)}")
    by = normalize_by(by, left, right)
    if len(by) != 1:
        raise ValueError("asof join takes exactly one ordering key pair")
    lkind = _check_kinds(left, [l for l, _ in by])
    rkind = _check_kinds(right, [r for _, r in by])
    if lkind != rkind:
        raise TypeError("Join columns must be of the same temporal type across both data frames")
    tol = None
    if tolerance is not None:
        if lkind == "date":
            if unit != "days":
                raise ValueError("When joining on Date columns, unit must be 'days'.")
            tol = float(tolerance)
        else:
            tol = float(tolerance) * UNIT_MULTIPLIERS[unit]

    P = "__fj_t_"
    left_n = _to_numeric_cols(left, [by[0][0]], lkind, P)
    right_n = _to_numeric_cols(right, [by[0][1]], rkind, P)
    drop = (P + by[0][0], P + by[0][1])
    return fuzzy_asof_join(
        left_n,
        right_n,
        by=[(P + by[0][0], P + by[0][1])],
        tolerance=tol,
        drop_cols=drop,
        **kwargs,
    )
