"""Interval-overlap joins (real and integer/IRanges semantics).

Predicate spec (exact mirror of the reference):

- real mode (/root/reference/src/rust/src/interval/real.rs:90-121):
  ``gap = rs-le if le<rs else ls-re if re<ls else 0``;
  ``overlap_len = max(min(le,re) - max(ls,rs), 0)``;
  match iff gap <= maxgap and overlap_len >= minoverlap and the
  overlap_type predicate holds (any / within / start / end,
  interval/mod.rs:6-24). Queries are expanded by ``maxgap + 1e-6``
  (real.rs:79-88) so touching intervals match at maxgap=0.
- integer mode (interval/integer.rs:96-139, IRanges semantics):
  inclusive endpoints; ``gap`` counted in integer space
  (``rs-le-1`` / ``ls-re-1``) so [1,2] and [3,4] touch at maxgap=0;
  ``overlap_len = min(le,re) - max(ls,rs) + 1``.
- ``interval_mode="auto"`` infers integer iff all four key columns are
  integer-typed (/root/reference/R/fozzie_interval_join.R:60-70).
- start > end anywhere is an error (real.rs:47-63).
- No distance columns (lib.rs:201-204).

Physical plan: right intervals broadcast once; an actor pool streams
left batches and evaluates the predicates as chunked vectorized numpy
over the full right set — the distributed analog of the reference's
shared interval tree. (For two huge sides, tile-partition the number
line and apply the same predicates per tile; the predicates here are
the single source of truth.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..exchange import exchange
from ..semantics import check_mode
from .modes import assemble, normalize_by
from .rowids import ensure_row_id, exceeds_rows
from .string_join import LID, RID

OVERLAP_TYPES = ("any", "within", "start", "end")
_INT_TYPES = {pa.int8(), pa.int16(), pa.int32(), pa.int64()}


def interval_matches(
    ls: np.ndarray,
    le: np.ndarray,
    rs: np.ndarray,
    re: np.ndarray,
    *,
    mode: str,
    overlap_type: str,
    maxgap: float,
    minoverlap: float,
) -> np.ndarray:
    """Boolean (n_left, n_right) match matrix for broadcasted interval
    arrays; single source of truth for both physical plans."""
    LS = ls[:, None]
    LE = le[:, None]
    RS = rs[None, :]
    RE = re[None, :]
    if mode == "integer":
        gap = np.where(LE < RS, RS - LE - 1, np.where(RE < LS, LS - RE - 1, 0))
        ov = np.minimum(LE, RE) - np.maximum(LS, RS) + 1
    else:
        gap = np.where(LE < RS, RS - LE, np.where(RE < LS, LS - RE, 0.0))
        ov = np.maximum(np.minimum(LE, RE) - np.maximum(LS, RS), 0.0)
    keep = (gap <= maxgap) & (ov >= minoverlap)
    if overlap_type == "within":
        keep &= (LS >= RS - maxgap) & (LE <= RE + maxgap)
    elif overlap_type == "start":
        keep &= np.abs(LS - RS) <= maxgap
    elif overlap_type == "end":
        keep &= np.abs(LE - RE) <= maxgap
    return keep


def interval_matches_flat(
    ls: np.ndarray,
    le: np.ndarray,
    rs: np.ndarray,
    re: np.ndarray,
    *,
    mode: str,
    overlap_type: str,
    maxgap: float,
    minoverlap: float,
) -> np.ndarray:
    """Boolean mask over aligned candidate pairs (1-D arrays); same
    predicates as :func:`interval_matches`."""
    if mode == "integer":
        gap = np.where(le < rs, rs - le - 1, np.where(re < ls, ls - re - 1, 0))
        ov = np.minimum(le, re) - np.maximum(ls, rs) + 1
    else:
        gap = np.where(le < rs, rs - le, np.where(re < ls, ls - re, 0.0))
        ov = np.maximum(np.minimum(le, re) - np.maximum(ls, rs), 0.0)
    keep = (gap <= maxgap) & (ov >= minoverlap)
    if overlap_type == "within":
        keep &= (ls >= rs - maxgap) & (le <= re + maxgap)
    elif overlap_type == "start":
        keep &= np.abs(ls - rs) <= maxgap
    elif overlap_type == "end":
        keep &= np.abs(le - re) <= maxgap
    return keep


class RightIntervalIndex:
    """Right intervals sorted by start, with the max interval length, so a
    left query [ls-g, le+g] prunes to the start window
    [ls - g - max_len, le + g] via two searchsorted probes — the
    vectorized stand-in for the reference's interval tree
    (/root/reference/src/rust/src/interval/real.rs:68-88)."""

    def __init__(self, rs: np.ndarray, re: np.ndarray, rids: np.ndarray, rid_type=None):
        self.rid_type = rid_type  # arrow type: empty batches must emit typed ids
        order = np.argsort(rs, kind="stable")
        self.rs = rs[order]
        self.re = re[order]
        self.rids = rids[order]
        self.max_len = float((re - rs).max()) if len(rs) else 0.0


def _concat_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts + offsets


class BroadcastIntervalScorer:
    def __init__(self, index_ref, cfg: dict):
        self.idx: RightIntervalIndex = ray.get(index_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        idx = self.idx
        skey, ekey = cfg["left_start"], cfg["left_end"]
        ls = np.asarray(batch.column(skey).cast(pa.float64()).to_numpy(zero_copy_only=False))
        le = np.asarray(batch.column(ekey).cast(pa.float64()).to_numpy(zero_copy_only=False))
        if np.any(ls > le):  # NaN comparisons are False, so NA rows pass through unmatched
            raise ValueError("Invalid interval in left table: start > end")
        lids = batch.column(cfg["lid"]).to_numpy(zero_copy_only=False)

        g = cfg["maxgap"] + (0.0 if cfg["mode"] == "integer" else 1e-6)
        slack = 1.0 if cfg["mode"] == "integer" else 0.0
        # candidates: right starts within [ls - g - max_len - slack, le + g + slack]
        lo = np.searchsorted(idx.rs, ls - g - idx.max_len - slack, side="left")
        hi = np.searchsorted(idx.rs, le + g + slack, side="right")
        nan_mask = np.isnan(ls) | np.isnan(le)
        lo[nan_mask] = 0
        hi[nan_mask] = 0
        counts = np.maximum(hi - lo, 0)
        lrow = np.repeat(np.arange(len(ls)), counts)
        rpos = _concat_ranges(lo, counts)
        keep = interval_matches_flat(
            ls[lrow],
            le[lrow],
            idx.rs[rpos],
            idx.re[rpos],
            mode=cfg["mode"],
            overlap_type=cfg["overlap_type"],
            maxgap=cfg["maxgap"],
            minoverlap=cfg["minoverlap"],
        )
        lrow = lrow[keep]
        rpos = rpos[keep]
        return pa.table(
            {
                LID: pa.array(lids[lrow], type=batch.schema.field(cfg["lid"]).type),
                RID: pa.array(idx.rids[rpos], type=idx.rid_type),
            }
        )


_TB = "__ti_tile"
_TS = "__ti_side"
_TI = "__ti_id"


def _interval_emit(
    side: int,
    id_col: str,
    scol: str,
    ecol: str,
    tile: float,
    expand: float,
    skip_longer_than: float | None = None,
):
    """map_batches fn emitting (tile, side, id, s, e) rows — rights cover
    the tiles their interval touches, lefts the tiles of their
    maxgap+slack-expanded query interval. Rows with NaN endpoints emit
    nothing (NA never matches); start > end raises (reference
    real.rs:47-63). ``skip_longer_than`` drops intervals longer than the
    cutoff from the tiling (the two-level scheme routes them through a
    broadcast instead — see :func:`_blocked_interval_edges`)."""

    def fn(t: pa.Table) -> pa.Table:
        s = np.asarray(t[scol].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
                       if isinstance(t[scol], pa.ChunkedArray)
                       else t[scol].cast(pa.float64()).to_numpy(zero_copy_only=False))
        e = np.asarray(t[ecol].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
                       if isinstance(t[ecol], pa.ChunkedArray)
                       else t[ecol].cast(pa.float64()).to_numpy(zero_copy_only=False))
        if np.any(s > e):
            which = "df2" if side == 1 else "left table"
            raise ValueError(f"Invalid interval in {which}: start > end")
        valid = ~(np.isnan(s) | np.isnan(e))
        if skip_longer_than is not None:
            valid &= (e - s) <= skip_longer_than
        ok = np.nonzero(valid)[0]
        lo = s[ok] - (expand if side == 0 else 0.0)
        hi = e[ok] + (expand if side == 0 else 0.0)
        t0 = np.floor(lo / tile).astype(np.int64)
        t1 = np.floor(hi / tile).astype(np.int64)
        counts = t1 - t0 + 1
        rows = np.repeat(ok, counts)
        total = int(counts.sum())
        tiles = np.repeat(t0, counts) + (
            np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        return pa.table(
            {
                _TB: pa.array(tiles),
                _TS: pa.array(np.full(total, side, dtype=np.int8)),
                _TI: idc.take(pa.array(rows)),
                "__ti_s": pa.array(s[rows] if total else np.empty(0)),
                "__ti_e": pa.array(e[rows] if total else np.empty(0)),
            }
        )

    return fn


def _blocked_interval_edges(
    left: rd.Dataset,
    right: rd.Dataset,
    by,
    lid: str,
    rid: str,
    mode: str,
    overlap_type: str,
    maxgap: float,
    minoverlap: float,
    num_partitions: int,
    tile_width: float | None = None,
    long_cutoff: float | None = None,
) -> rd.Dataset:
    """Both-sides-large interval join: number-line tiling instead of a
    driver-side broadcast (the scale analog of the reference's shared
    interval tree, real.rs:68-88). One all-to-all on hash(tile); inside a
    partition, each tile's rights are start-sorted and probed with the
    same vectorized window + exact predicates as the broadcast path.
    A pair that meets in several tiles is kept only in the canonical
    tile containing max(left query start, right start) — exactly once.

    Heavy tails are handled with a TWO-LEVEL split: right intervals
    longer than ``long_cutoff`` (auto: the tile width) never enter the
    tiling — they are collected, start-sorted, broadcast via ``ray.put``
    and probed by the left stream exactly like the broadcast strategy —
    so per-tile replication of the short side is bounded by
    ``long_cutoff/tile_width + 1 <= 2`` tiles per right interval while
    arbitrarily long intervals cost one broadcast row each. Partitioning
    assumption: the long TAIL (not the body) fits the object store; a
    corpus where most intervals are long wants a larger explicit
    ``tile_width`` instead. ``tile_width`` auto = 2x the sampled p95
    right-interval length, floored by the gap window."""
    g = float(maxgap) + (0.0 if mode == "integer" else 1e-6)
    slack = 1.0 if mode == "integer" else 0.0
    expand = g + slack

    if tile_width is None:
        samp = pa.concat_tables(
            list(
                right.limit(10_000)
                .select_columns([by[0][1], by[1][1]])
                .iter_batches(batch_size=None, batch_format="pyarrow")
            )
        )
        rs_ = np.asarray(samp[by[0][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
        re_ = np.asarray(samp[by[1][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
        lens = (re_ - rs_)[~(np.isnan(rs_) | np.isnan(re_))]
        p95 = float(np.percentile(lens, 95)) if len(lens) else 1.0
        tile_width = max(2.0 * p95, 4.0 * expand, 1e-6)
    tw = float(tile_width)
    cutoff = tw if long_cutoff is None else float(long_cutoff)

    # long rights -> broadcast side channel (start > end validation for
    # them happens in their own emit-side check below)
    def long_only(t: pa.Table) -> pa.Table:
        s = np.asarray(t[by[0][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
        e = np.asarray(t[by[1][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
        keep = (e - s) > cutoff  # NaN endpoints compare False (NA never matches)
        return t.filter(pa.array(keep))

    long_tables = list(
        right.select_columns([rid, by[0][1], by[1][1]])
        .map_batches(long_only, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    long_rt = pa.concat_tables(long_tables) if long_tables else None

    el = left.select_columns([lid, by[0][0], by[1][0]]).map_batches(
        _interval_emit(0, lid, by[0][0], by[1][0], tw, expand), batch_format="pyarrow"
    )
    er = right.select_columns([rid, by[0][1], by[1][1]]).map_batches(
        _interval_emit(1, rid, by[0][1], by[1][1], tw, expand, skip_longer_than=cutoff),
        batch_format="pyarrow",
    )

    def score_part(t: pa.Table) -> pa.Table:
        idt = t.schema.field(_TI).type
        empty = pa.table({LID: pa.array([], idt), RID: pa.array([], idt)})
        if t.num_rows == 0:
            return empty
        side = t[_TS].to_numpy(zero_copy_only=False)
        tiles = t[_TB].to_numpy(zero_copy_only=False)
        ids = (
            t[_TI].combine_chunks() if isinstance(t[_TI], pa.ChunkedArray) else t[_TI]
        ).to_numpy(zero_copy_only=False)
        ss = t["__ti_s"].to_numpy(zero_copy_only=False)
        ee = t["__ti_e"].to_numpy(zero_copy_only=False)
        lpos = np.nonzero(side == 0)[0]
        rpos = np.nonzero(side == 1)[0]
        if not len(lpos) or not len(rpos):
            return empty
        r_tile = tiles[rpos]
        r_rs = ss[rpos]
        ro = np.lexsort((r_rs, r_tile))
        r_tile_s = r_tile[ro]
        r_rs_s = r_rs[ro]
        r_re_s = ee[rpos][ro]
        rpos_s = rpos[ro]
        l_tile = tiles[lpos]
        out_l: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        for tl in np.unique(l_tile):
            seg_lo = int(np.searchsorted(r_tile_s, tl, side="left"))
            seg_hi = int(np.searchsorted(r_tile_s, tl, side="right"))
            if seg_lo == seg_hi:
                continue
            lsel = lpos[l_tile == tl]
            ls = ss[lsel]
            le = ee[lsel]
            rs_seg = r_rs_s[seg_lo:seg_hi]
            re_seg = r_re_s[seg_lo:seg_hi]
            max_len = float((re_seg - rs_seg).max())
            qlo = ls - expand
            qhi = le + expand
            wlo = np.searchsorted(rs_seg, qlo - max_len, side="left")
            whi = np.searchsorted(rs_seg, qhi, side="right")
            counts = np.maximum(whi - wlo, 0)
            lrow = np.repeat(np.arange(len(lsel)), counts)
            rrow = _concat_ranges(wlo, counts)
            keep = interval_matches_flat(
                ls[lrow],
                le[lrow],
                rs_seg[rrow],
                re_seg[rrow],
                mode=mode,
                overlap_type=overlap_type,
                maxgap=maxgap,
                minoverlap=minoverlap,
            )
            # exactly-once across tiles: canonical tile of the pair
            keep &= (
                np.floor(np.maximum(qlo[lrow], rs_seg[rrow]) / tw).astype(np.int64) == tl
            )
            lrow = lrow[keep]
            rrow = rrow[keep]
            if len(lrow):
                out_l.append(lsel[lrow])
                out_r.append(rpos_s[seg_lo + rrow])
        if not out_l:
            return empty
        la = np.concatenate(out_l)
        rb = np.concatenate(out_r)
        return pa.table({LID: pa.array(ids[la], idt), RID: pa.array(ids[rb], idt)})

    tiled = exchange([el, er], _TB, num_partitions, score_part, batch_format="pyarrow")
    if long_rt is None or long_rt.num_rows == 0:
        return tiled
    # broadcast sub-join for the long tail: identical predicates, one
    # edge stream unioned with the tiled edges (disjoint right sets ->
    # still exactly once per pair)
    import ray

    lrs = np.asarray(long_rt[by[0][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
    lre = np.asarray(long_rt[by[1][1]].cast(pa.float64()).to_numpy(zero_copy_only=False))
    if np.any(lrs > lre):
        raise ValueError("Invalid interval in df2: start > end")
    index = RightIntervalIndex(
        lrs,
        lre,
        long_rt[rid].to_numpy(zero_copy_only=False),
        rid_type=long_rt.schema.field(rid).type,
    )
    cfg = {
        "lid": lid,
        "left_start": by[0][0],
        "left_end": by[1][0],
        "mode": mode,
        "overlap_type": overlap_type,
        "maxgap": maxgap,
        "minoverlap": minoverlap,
    }
    long_edges = left.select_columns([lid, by[0][0], by[1][0]]).map_batches(
        BroadcastIntervalScorer,
        fn_constructor_args=(ray.put(index), cfg),
        batch_format="pyarrow",
        concurrency=(1, 8),
        num_cpus=1,
    )
    return tiled.union(long_edges)


def fuzzy_interval_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    how: str = "inner",
    overlap_type: str = "any",
    maxgap: float = 0.0,
    minoverlap: float = 0.0,
    interval_mode: str = "auto",
    left_id: str | None = None,
    right_id: str | None = None,
    num_partitions: int = 16,
    concurrency=(1, 8),
    batch_size: int = 16384,
    drop_cols: tuple = (),
    strategy: str = "auto",
    broadcast_threshold: int = 2_000_000,
    tile_width: float | None = None,
    long_cutoff: float | None = None,
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_interval_join``
    (/root/reference/R/fozzie_interval_join.R:47-83).

    ``strategy``: "broadcast" ships the (sorted) right intervals to every
    scorer actor; "blocked" tiles the number line and shuffles BOTH sides
    (the path for two huge inputs); "auto" picks blocked when the right
    side exceeds ``broadcast_threshold`` rows."""
    check_mode(how)
    if overlap_type not in OVERLAP_TYPES:
        raise ValueError(f"Unknown overlap type: {overlap_type}")
    if interval_mode not in ("auto", "real", "integer"):
        raise ValueError(f"unknown interval_mode {interval_mode!r}")
    if strategy not in ("auto", "broadcast", "blocked"):
        raise ValueError(f"unknown strategy {strategy!r}")
    by = normalize_by(by, left, right)
    if len(by) != 2:
        raise ValueError("Expected exactly two columns for interval matching (start and end)")

    if interval_mode == "auto":
        lsch = left.schema()
        rsch = right.schema()
        ltypes = {dict(zip(lsch.names, lsch.types))[l] for l, _ in by}
        rtypes = {dict(zip(rsch.names, rsch.types))[r] for _, r in by}
        interval_mode = (
            "integer" if (ltypes | rtypes) <= _INT_TYPES else "real"
        )

    if strategy == "auto":
        strategy = "blocked" if exceeds_rows(right, broadcast_threshold) else "broadcast"
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src")
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src")

    if strategy == "blocked":
        edges = _blocked_interval_edges(
            left,
            right,
            by,
            lid,
            rid,
            interval_mode,
            overlap_type,
            float(maxgap),
            float(minoverlap),
            num_partitions,
            tile_width,
            long_cutoff,
        )
        return assemble(
            left,
            right,
            edges,
            how=how,
            lid=lid,
            rid=rid,
            distance_cols=[],
            num_partitions=num_partitions,
            drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
            n_dist=0,
        )

    rcols = [rid, by[0][1], by[1][1]]
    tables = list(
        right.select_columns(rcols).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    rt = pa.concat_tables(tables)
    rs = np.asarray(rt.column(by[0][1]).cast(pa.float64()).to_numpy(zero_copy_only=False))
    re = np.asarray(rt.column(by[1][1]).cast(pa.float64()).to_numpy(zero_copy_only=False))
    if np.any(rs > re):
        bad = int(np.nonzero(rs > re)[0][0]) + 1
        raise ValueError(f"Invalid interval in df2 at row {bad}: start > end")
    index_ref = ray.put(
        RightIntervalIndex(
            rs, re, rt.column(rid).to_numpy(zero_copy_only=False), rt.schema.field(rid).type
        )
    )
    cfg = {
        "left_start": by[0][0],
        "left_end": by[1][0],
        "lid": lid,
        "mode": interval_mode,
        "overlap_type": overlap_type,
        "maxgap": float(maxgap),
        "minoverlap": float(minoverlap),
    }
    left_cols = [lid] + sorted({l for l, _ in by})
    edges = left.select_columns(left_cols).map_batches(
        BroadcastIntervalScorer,
        fn_constructor_args=(index_ref, cfg),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
    return assemble(
        left,
        right,
        edges,
        how=how,
        lid=lid,
        rid=rid,
        distance_cols=[],
        num_partitions=num_partitions,
        drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
        n_dist=0,
    )
