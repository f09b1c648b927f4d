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

Physical plans (numeric_join's frame and sorted-window kernel): the
candidates of a left interval are the right intervals whose start lies
in its expanded query ``[ls - g - max_len, le + g]``, with ``max_len``
the longest right interval of the right's length class — the vectorized
stand-in for the reference's shared interval tree (real.rs:68-88). The
classes are the rights within the cutoff :func:`auto_tile_width`, the
longer ones and the open-ended ones (an infinite endpoint), so a few
long rights widen only their own class's windows.
:func:`interval_pairs` scores the candidates for both plans:

- broadcast: the right intervals are collected, start-sorted and
  ``ray.put`` once; each left batch is a plain task that reads them and
  probes each length class;
- blocked (two huge sides): the number line is cut into tiles; a right
  goes to every tile it touches, a left to every tile of its expanded
  query, and the tiles meet in one ``exchange()``. A pair that meets in
  several tiles is kept only in its canonical tile, the one holding
  max(left query start, right start). Right intervals longer than a
  tile skip the tiling and are broadcast to the left stream instead
  (a two-level split), so a heavy tail costs one broadcast row per long
  interval, not one row per tile it spans. Open-ended left intervals
  (an infinite endpoint) skip it the other way: they are collected and
  broadcast to the stream of tiled rights.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..semantics import INTERVAL_EPS, check_mode
from .modes import normalize_by
from .numeric_join import (
    _numeric_np,
    block_edges,
    block_emit,
    broadcast_edges,
    broadcast_left_edges,
    grid_block,
    run_plan,
    stack_slabs,
    window_slabs,
)
from .rowids import collect_columns

OVERLAP_TYPES = ("any", "within", "start", "end")
_INT_TYPES = {pa.int8(), pa.int16(), pa.int32(), pa.int64()}
# broadcast plan left batch size
_BATCH = 16384


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
    """Boolean mask over aligned candidate pairs (1-D arrays): the
    predicate of both plans."""
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


def _expand(mode: str, maxgap: float) -> float:
    """How far a left query reaches past its endpoints: ``maxgap`` plus
    the reference's 1e-6 in real mode (real.rs:79-88), plus one in integer
    mode, where [1,2] and [3,4] touch."""
    return maxgap + (1.0 if mode == "integer" else INTERVAL_EPS)


def auto_tile_width(lens: np.ndarray, expand: float) -> float:
    """The long-interval cutoff of both plans: 2x the p95 of the finite
    right-interval lengths ``lens`` (1 without any), floored by the gap
    window ``4 * expand``. The blocked plan tiles the number line at this
    width and broadcasts the longer rights; the broadcast plan probes
    them apart (:func:`interval_pairs`)."""
    lens = lens[np.isfinite(lens)]
    p95 = float(np.percentile(lens, 95)) if len(lens) else 1.0
    return max(2.0 * p95, 4.0 * expand, 1e-6)


def interval_pairs(
    lv: list, rv: list, blocks=None, *, mode, overlap_type, maxgap, minoverlap, tile_width=None
) -> list[np.ndarray]:
    """Interval-join pairs ``[lrow, rpos]`` of left intervals ``lv = [ls,
    le]`` and right intervals ``rv = [rs, re]`` (start-sorted, no NaN).

    The rights are probed in three length classes, each with windows
    reaching back by its own longest interval: those no longer than
    ``tile_width`` (None: :func:`auto_tile_width` of ``rv``), the longer
    ones, and the open-ended ones. So one open-ended right adds at most
    one candidate per left. In the tiled plan ``blocks = (ltile, rtile)``
    are the rows' tiles of width ``tile_width``, and a pair is kept only
    where both its rows sit in its canonical tile, so it is found once
    across tiles."""
    ls, le = lv
    rs, re = rv
    if np.any(ls > le):  # NaN comparisons are False, so NA rows pass through unmatched
        raise ValueError("Invalid interval in left table: start > end")
    g = _expand(mode, maxgap)
    qlo, qhi = ls - g, le + g
    lens = re - rs  # [inf, inf] has a NaN length; it is open-ended
    if tile_width is None:
        tile_width = auto_tile_width(lens, g)
    is_open, is_long = _is_open(rs, re), lens > tile_width
    parts = []
    for cls in (~is_open & ~is_long, ~is_open & is_long, is_open):
        sel = np.flatnonzero(cls)
        if not len(sel):
            continue
        whole = len(sel) == len(rs)  # the usual single class needs no gathers
        max_len = float(np.fmax.reduce(lens[sel], initial=0.0))
        for lrow, spos in window_slabs(rs if whole else rs[sel], qlo - max_len, qhi):
            rpos = spos if whole else sel[spos]
            keep = interval_matches_flat(
                ls[lrow],
                le[lrow],
                rs[rpos],
                re[rpos],
                mode=mode,
                overlap_type=overlap_type,
                maxgap=maxgap,
                minoverlap=minoverlap,
            )
            if blocks is not None:
                canon = grid_block(np.maximum(qlo[lrow], rs[rpos]), tile_width)
                keep &= (canon == blocks[0][lrow]) & (canon == blocks[1][rpos])
            parts.append((lrow[keep], rpos[keep]))
    return stack_slabs(parts, 0)


def _is_open(s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Open-ended intervals: an infinite endpoint."""
    return np.isinf(s) | np.isinf(e)


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
    ``expand``-ed query interval. Rows with NaN endpoints emit nothing
    (NA never matches); start > end raises (reference real.rs:47-63).
    Open-ended lefts (whose query covers endless tiles) and, with
    ``skip_longer_than``, rights longer than the cutoff skip the tiling;
    the two-level split broadcasts them instead."""

    def cover(v):
        s, e = v
        if np.any(s > e):
            which = "df2" if side == 1 else "left table"
            raise ValueError(f"Invalid interval in {which}: start > end")
        if side == 0:
            return np.where(_is_open(s, e), np.nan, s) - expand, e + expand
        if skip_longer_than is not None:
            s = np.where(e - s > skip_longer_than, np.nan, s)
        return s, e

    return block_emit(side, id_col, [scol, ecol], tile, cover)


def _where(cols: list[str], pred):
    """map_batches fn keeping the rows where ``pred(start, end)`` holds."""

    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(pred(*(_numeric_np(t[c]) for c in cols))))

    return fn


def _blocked_interval_edges(
    left: rd.Dataset,
    right: rd.Dataset,
    by,
    lid: str,
    rid: str,
    spec: dict,
    num_partitions: int,
    tile_width: float | None = None,
) -> rd.Dataset:
    """Both-sides-large interval join: number-line tiles and the two
    broadcasts of the two-level split (module doc). ``tile_width`` auto =
    :func:`auto_tile_width` of a sample of the right-interval lengths.
    Partitioning assumption: the long rights and the open-ended lefts
    (not the body) fit the object store; a corpus where most intervals
    are long wants a larger explicit ``tile_width`` instead."""
    lcols = [by[0][0], by[1][0]]
    rcols = [by[0][1], by[1][1]]
    expand = _expand(spec["mode"], spec["maxgap"])
    if tile_width is None:
        samp = collect_columns(right.limit(10_000), rcols)
        lens = _numeric_np(samp[rcols[1]]) - _numeric_np(samp[rcols[0]])
        tile_width = auto_tile_width(lens, expand)
    tw = float(tile_width)
    emits = (
        _interval_emit(0, lid, *lcols, tw, expand),
        _interval_emit(1, rid, *rcols, tw, expand, skip_longer_than=tw),
    )
    score = partial(interval_pairs, **spec, tile_width=tw)
    edges = [block_edges(left, right, lid, rid, by, emits, score, num_partitions)]
    # each pair once: tiled lefts x tiled rights above, every left x the
    # long rights, the open-ended lefts x the tiled rights
    long_rt = collect_columns(
        right.map_batches(_where(rcols, lambda s, e: e - s > tw), batch_format="pyarrow"),
        [rid, *rcols],
    )
    if long_rt.num_rows:
        edges.append(broadcast_edges(left, long_rt, lid, rid, by, score, _BATCH))
    open_lt = collect_columns(
        left.map_batches(_where(lcols, _is_open), batch_format="pyarrow"), [lid, *lcols]
    )
    if open_lt.num_rows:
        short = right.map_batches(_where(rcols, lambda s, e: ~(e - s > tw)), batch_format="pyarrow")
        edges.append(broadcast_left_edges(short, open_lt, lid, rid, by, score, _BATCH))
    return edges[0].union(*edges[1:]) if len(edges) > 1 else edges[0]


def _broadcast_interval_edges(
    left: rd.Dataset, right: rd.Dataset, by, lid: str, rid: str, spec: dict
) -> rd.Dataset:
    """The broadcast plan: the right intervals collected, start-sorted
    and ``ray.put`` once, and one pass over the left batches, each
    probing every length class of :func:`interval_pairs` at the cutoff
    :func:`auto_tile_width` of all right-interval lengths."""
    rt = collect_columns(right, [rid, by[0][1], by[1][1]])
    rs, re = _numeric_np(rt[by[0][1]]), _numeric_np(rt[by[1][1]])
    bad = np.flatnonzero(rs > re)
    if len(bad):
        raise ValueError(f"Invalid interval in df2 at row {bad[0] + 1}: start > end")
    tw = auto_tile_width(re - rs, _expand(spec["mode"], spec["maxgap"]))
    score = partial(interval_pairs, **spec, tile_width=tw)
    return broadcast_edges(left, rt, lid, rid, by, score, _BATCH)


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
    drop_cols: tuple = (),
    strategy: str = "auto",
    tile_width: float | None = None,
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_interval_join``
    (/root/reference/R/fozzie_interval_join.R:47-83).

    ``strategy``: "broadcast" puts the start-sorted right intervals in
    the object store once, for every left batch's task to read;
    "blocked" tiles the number line and exchanges BOTH sides (the path
    for two huge inputs); "auto" picks blocked when the right side has
    more than ``rowids.BROADCAST_ROWS`` rows."""
    check_mode(how)
    if overlap_type not in OVERLAP_TYPES:
        raise ValueError(f"Unknown overlap type: {overlap_type}")
    if interval_mode not in ("auto", "real", "integer"):
        raise ValueError(f"unknown interval_mode {interval_mode!r}")
    # the plan fans the right side out (its schema, the tile-width sample,
    # the long-tail collect, the tiled emission, the assembly): run it once
    right = right.materialize()
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
    spec = {
        "mode": interval_mode,
        "overlap_type": overlap_type,
        "maxgap": float(maxgap),
        "minoverlap": float(minoverlap),
    }

    def build_edges(strategy, left, right, lid, rid):
        if strategy == "blocked":
            return _blocked_interval_edges(
                left, right, by, lid, rid, spec, num_partitions, tile_width
            )
        return _broadcast_interval_edges(left, right, by, lid, rid, spec)

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
        distance_cols=[],
        n_dist=0,
    )
