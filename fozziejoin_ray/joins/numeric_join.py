"""Numeric fuzzy joins: difference (abs-diff window) and vector distance,
and the sorted-window probe and plan frame every numeric join shares.

Semantics mirror the reference:

- difference join: a pair matches iff ``|x - y| <= max_distance +
  f64::EPSILON`` (/root/reference/src/rust/src/difference/mod.rs:28);
  multi-key = AND of per-key thresholds with per-key distance columns
  (difference/mod.rs:84-160); NA never matches (:138-141); integer or
  double key columns accepted (utils.rs:116-133).
- distance join: k-column row vectors, euclidean (sqrt of sum of
  squares) or manhattan (sum of abs), keep ``dist <= max_distance``
  (/root/reference/src/rust/src/distance/mod.rs:108-122); rows with NA
  in any key drop silently (NaN fails <=).

Candidates come from one kernel, :func:`window_slabs`: the right side is
sorted on its first key, and a left row meets the right rows whose first
key lies in its query window — two vectorized ``searchsorted`` probes,
the distributed analog of the reference's grid-bucket probe
(difference/mod.rs:19-54). A pair within ``max_distance`` in L1 or L2 is
within it on the first key too, so the distance join probes the same
window where the reference computes the full cross product
(distance/mod.rs:94-128). Each family scores through one function
(:func:`difference_pairs`, :func:`distance_pairs`,
``interval_join.interval_pairs``), called by both physical plans:

- broadcast (:func:`broadcast_edges`): the right side is collected,
  sorted once and ``ray.put``; each left batch is a plain task that
  reads it and scores against it as one segment;
- blocked (:func:`block_edges`, both sides huge): both sides emit their
  rows to blocks of a grid and meet in one ``exchange()``; a partition
  scores its left rows against the rights of their block. For these two
  joins the grid has width ``max_distance``: a right goes to its home
  block, a left to every block its query window touches, so every pair
  of the window meets exactly once, in the right value's home block.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..exchange import exchange
from ..semantics import F64_EPS, check_mode, distance_col_names
from .modes import assemble, normalize_by
from .rowids import BROADCAST_ROWS, collect_columns, ensure_row_id, exceeds_rows
from .string_join import LID, RID, SLAB_PAIRS, dist_names

# broadcast plan left batch sizes
_DIFF_BATCH = 65536
_DIST_BATCH = 16384


def _numeric_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """To float64 with NaN for nulls."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(arr.cast(pa.float64()).to_numpy(zero_copy_only=False), dtype=np.float64)


def _take(col: pa.ChunkedArray | pa.Array, idx: np.ndarray) -> pa.Array:
    return col.take(pa.array(idx, pa.int64()))


# a difference below 2^-537.5 squares to 0, and a larger one whose square
# is subnormal squares with an absolute error of up to 2^-1075
_SQUARE_UNDERFLOW = 2.0**-537


def _widen(qlo: np.ndarray, qhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Query bounds ``x ∓ d`` pushed outward by two ulps of ``|x| + d``,
    the larger finite bound's magnitude, and by at least
    ``_SQUARE_UNDERFLOW``. A computed ``|x - y| <= d`` holds for some
    ``y`` just outside the rounded bounds (0.2 against 2.7 at d = 2.5
    sits six ulps of 0.2 below ``2.7 - 2.5``); rounding of ``x - y`` and
    of ``x ∓ d`` each err by at most half an ulp of ``|x| + d``. A
    euclidean distance squares ``x - y``, so it can read <= d for ``|x
    - y|`` up to ``d + 2^-537.5`` (0.0 against 2.2e-311 at d = 0 reads
    0). An infinite bound needs no widening. The exact predicate still
    decides."""
    m = np.abs(np.stack([qlo, qhi]))
    ulps = 2 * np.spacing(np.where(np.isfinite(m), m, 0.0).max(axis=0))
    pad = np.maximum(ulps, _SQUARE_UNDERFLOW)
    return qlo - pad, qhi + pad


def _span(x: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Key 0's window ``[x - d, x + d]``. At ``d = inf`` an infinite
    ``x`` gives an ``inf - inf`` bound, read as unbounded (``|x - y|`` is
    inf <= d for every finite ``y``); a null ``x`` keeps NaN bounds."""
    lo, hi = x - d, x + d
    num = ~np.isnan(x)
    return np.where(np.isnan(lo) & num, -np.inf, lo), np.where(np.isnan(hi) & num, np.inf, hi)


def window_slabs(rv: np.ndarray, qlo: np.ndarray, qhi: np.ndarray, blocks=None):
    """The sorted-window probe: left row i meets every right position p
    with ``qlo[i] <= rv[p] <= qhi[i]`` (bounds widened by :func:`_widen`;
    ``rv`` sorted, no NaN; a NaN bound meets nothing). With ``blocks =
    (lblock, rblock)`` a left row meets only the rights of its own block
    (``rblock`` must be non-decreasing along ``rv``).

    Yields ``(lrow, rpos)`` candidate slabs of at most ``SLAB_PAIRS``
    pairs, splitting a left row's window across slabs when it is longer,
    so a batch's candidates are never all held at once."""
    wlo, whi = _widen(qlo, qhi)
    lo = np.searchsorted(rv, wlo, side="left")
    hi = np.searchsorted(rv, whi, side="right")
    if blocks is not None:
        lb, rb = blocks
        lo = np.maximum(lo, np.searchsorted(rb, lb, side="left"))
        hi = np.minimum(hi, np.searchsorted(rb, lb, side="right"))
    n = np.where(np.isnan(qlo) | np.isnan(qhi), 0, np.maximum(hi - lo, 0))
    end = np.cumsum(n)
    start = end - n
    total = int(end[-1]) if len(end) else 0
    for s in range(0, total, SLAB_PAIRS):
        e = min(s + SLAB_PAIRS, total)
        r0 = int(np.searchsorted(end, s, side="right"))
        r1 = int(np.searchsorted(start, e, side="left"))
        # the part [a, a + c) of each row's pair range inside [s, e)
        a = np.maximum(start[r0:r1], s)
        c = np.minimum(end[r0:r1], e) - a
        first = lo[r0:r1] + (a - start[r0:r1])
        lrow = np.repeat(np.arange(r0, r1), c)
        yield lrow, np.arange(e - s) + np.repeat(first - (np.cumsum(c) - c), c)


def stack_slabs(parts: list[tuple], ndist: int) -> list[np.ndarray]:
    """Slab results ``(lrow, rpos, d0, ...)`` concatenated column-wise."""
    if not parts:
        return [np.empty(0, np.int64)] * 2 + [np.empty(0, np.float64)] * ndist
    return [np.concatenate(c) for c in zip(*parts)]


def difference_pairs(lv: list, rv: list, blocks=None, *, thr: float) -> list[np.ndarray]:
    """Difference-join pairs of left keys ``lv`` and right keys ``rv``
    (per-key float arrays, ``rv`` sorted on key 0 without NaN): ``[lrow,
    rpos, d0, ..., dk]``, every key within ``|x - y| <= thr`` (NaN never
    matches), one distance column per key."""
    parts = []
    for lrow, rpos in window_slabs(rv[0], *_span(lv[0], thr), blocks):
        dists: list[np.ndarray] = []
        for x, y in zip(lv, rv):
            d = np.abs(x[lrow] - y[rpos])
            keep = d <= thr
            lrow, rpos = lrow[keep], rpos[keep]
            dists = [c[keep] for c in dists] + [d[keep]]
        parts.append((lrow, rpos, *dists))
    return stack_slabs(parts, len(lv))


def distance_pairs(
    lv: list, rv: list, blocks=None, *, max_distance: float, method: str
) -> list[np.ndarray]:
    """Distance-join pairs (arrays as in :func:`difference_pairs`):
    ``[lrow, rpos, d]`` with the L1 or L2 distance over all keys ``<=
    max_distance``; |x0 - y0| <= d holds for both, so key 0's window
    holds every match."""
    parts = []
    for lrow, rpos in window_slabs(rv[0], *_span(lv[0], max_distance), blocks):
        D = np.zeros(len(lrow))
        for x, y in zip(lv, rv):
            diff = x[lrow] - y[rpos]
            D += np.abs(diff) if method == "manhattan" else diff * diff
        if method != "manhattan":
            D = np.sqrt(D)
        keep = D <= max_distance  # NaN in any dim fails -> NA never matches
        parts.append((lrow[keep], rpos[keep], D[keep]))
    return stack_slabs(parts, 1)


def edge_table(lids: pa.Array, rids: pa.Array, dists: list[np.ndarray]) -> pa.Table:
    cols = {LID: lids, RID: rids}
    for name, d in zip(dist_names(len(dists)), dists):
        cols[name] = pa.array(d, pa.float64())
    return pa.table(cols)


# ----------------------------------------------------------- broadcast plan


def score_left_batch(held, batch: pa.Table, lid: str, by, score) -> pa.Table:
    """The broadcast plan's per-batch task: a batch of left rows scored
    by ``score(lv, rv)`` against ``held``, the whole sorted right side
    as one segment (:func:`sorted_right`)."""
    rv, rids = held
    lrow, rpos, *dists = score([_numeric_np(batch.column(l)) for l, _ in by], rv)
    return edge_table(_take(batch.column(lid), lrow), _take(rids, rpos), dists)


def score_right_batch(held, batch: pa.Table, rid: str, by, score) -> pa.Table:
    """:func:`score_left_batch` with the sides' roles swapped: ``held``
    is left rows, and each right batch is sorted and probed by all of
    them."""
    lv, lids = held
    rv, rids = sorted_right(batch, rid, by)
    lrow, rpos, *dists = score(lv, rv)
    return edge_table(_take(lids, lrow), _take(rids, rpos), dists)


def sorted_right(rt: pa.Table, rid: str, by) -> tuple[list[np.ndarray], pa.Array]:
    """The broadcast plan's right side: ``rt``'s keys as float arrays
    sorted on the first, rows with a null key dropped (NA never matches),
    and the row ids in the same order."""
    vals = [_numeric_np(rt.column(r)) for _, r in by]
    ok = np.flatnonzero(~np.isnan(np.vstack(vals)).any(axis=0))
    order = ok[np.argsort(vals[0][ok], kind="stable")]
    return [v[order] for v in vals], _take(rt.column(rid), order)


def _stream(
    ds: rd.Dataset, id_col: str, cols, held, scorer, by, score, batch_size: int
) -> rd.Dataset:
    """``ds``'s batches as plain tasks, each reading the one ``ray.put``
    of ``held`` and calling ``scorer(held, batch, id_col, by, score)``."""
    ref = ray.put(held)

    def probe(batch: pa.Table) -> pa.Table:
        return scorer(ray.get(ref), batch, id_col, by, score)

    return ds.select_columns([id_col] + sorted(set(cols))).map_batches(
        probe, batch_format="pyarrow", batch_size=batch_size
    )


def broadcast_edges(
    left: rd.Dataset, rt: pa.Table, lid: str, rid: str, by, score, batch_size: int
) -> rd.Dataset:
    """The broadcast plan over ``rt``, the collected right side: it is
    sorted once (:func:`sorted_right`) and ``ray.put``, and ``score(lv,
    rv)`` runs per left batch."""
    held = sorted_right(rt, rid, by)
    return _stream(left, lid, [l for l, _ in by], held, score_left_batch, by, score, batch_size)


def broadcast_left_edges(
    right: rd.Dataset, lt: pa.Table, lid: str, rid: str, by, score, batch_size: int
) -> rd.Dataset:
    """The broadcast plan with the sides' roles swapped: ``lt``, collected
    left rows, is ``ray.put`` once, and ``score(lv, rv)`` runs per right
    batch, sorted on its first key."""
    held = ([_numeric_np(lt[l]) for l, _ in by], lt[lid])
    return _stream(right, rid, [r for _, r in by], held, score_right_batch, by, score, batch_size)


# ------------------------------------------------------------- blocked plan

_NB = "__nb_bucket"
_NS = "__nb_side"
_NI = "__nb_id"
# grid blocks stay within +-2^52, exact in float64 and int64
_BMAX = float(1 << 52)


def grid_block(x: np.ndarray, width: float) -> np.ndarray:
    """Block ``floor(x / width)`` of each (non-NaN) value: monotone in
    ``x``, clipped to +-2^52 so +-inf and overflowing quotients land in
    the end blocks; a grid of infinite width is one block."""
    if not np.isfinite(width):
        return np.zeros(len(x), np.int64)
    return np.floor(np.clip(x / width, -_BMAX, _BMAX)).astype(np.int64)


def block_emit(side: int, id_col: str, key_cols: list[str], width: float, cover):
    """map_batches fn emitting (block, side, id, v0..vk) rows: a row goes
    to every :func:`grid_block` from ``lo``'s to ``hi``'s of its
    ``cover(vals) -> (lo, hi)``. Rows with a null key or a NaN cover emit
    nothing (NA never matches)."""

    def fn(t: pa.Table) -> pa.Table:
        vals = [_numeric_np(t[c]) for c in key_cols]
        lo, hi = cover(vals)
        ok = np.flatnonzero(~np.isnan(np.vstack([lo, hi, *vals])).any(axis=0))
        b0 = grid_block(lo[ok], width)
        n = np.maximum(grid_block(hi[ok], width) - b0 + 1, 0)
        rows = np.repeat(ok, n)
        cols = {
            _NB: pa.array(np.arange(len(rows)) + np.repeat(b0 - (np.cumsum(n) - n), n), pa.int64()),
            _NS: pa.array(np.full(len(rows), side, dtype=np.int8)),
            _NI: _take(t[id_col], rows),
        }
        for i, v in enumerate(vals):
            cols[f"__nb_v{i}"] = pa.array(v[rows], pa.float64())
        return pa.table(cols)

    return fn


def _partition_scorer(score, nkeys: int):
    """exchange() partition fn: the partition's lefts scored against its
    rights (sorted on the first key) with the rows' blocks."""

    def score_part(t: pa.Table) -> pa.Table:
        side = t[_NS].to_numpy(zero_copy_only=False)
        blk = t[_NB].to_numpy(zero_copy_only=False)
        vals = [t[f"__nb_v{i}"].to_numpy(zero_copy_only=False) for i in range(nkeys)]
        lpos = np.flatnonzero(side == 0)
        rpos = np.flatnonzero(side == 1)
        rpos = rpos[np.argsort(vals[0][rpos], kind="stable")]
        lrow, rsel, *dists = score(
            [v[lpos] for v in vals], [v[rpos] for v in vals], (blk[lpos], blk[rpos])
        )
        return edge_table(_take(t[_NI], lpos[lrow]), _take(t[_NI], rpos[rsel]), dists)

    return score_part


def block_edges(
    left: rd.Dataset, right: rd.Dataset, lid: str, rid: str, by, emits, score, num_partitions: int
) -> rd.Dataset:
    """The blocked plan: ``emits = (left fn, right fn)`` (see
    :func:`block_emit`) send both sides to their blocks, which meet in one
    ``exchange()``; each partition calls ``score(lv, rv, (lblock,
    rblock))`` once with its rights sorted on the first key."""
    el = left.select_columns([lid] + sorted({l for l, _ in by})).map_batches(
        emits[0], batch_format="pyarrow"
    )
    er = right.select_columns([rid] + sorted({r for _, r in by})).map_batches(
        emits[1], batch_format="pyarrow"
    )
    score_part = _partition_scorer(score, len(by))
    return exchange([el, er], _NB, num_partitions, score_part, batch_format="pyarrow")


def window_emits(lid: str, rid: str, by, half: float):
    """Block emission for key 0's window ``x ± half`` on a grid of width
    ``half`` (unit blocks when ``half`` is within float rounding of zero):
    a right to its home block, a left to every block its (widened) window
    touches, so each pair of the window meets once."""
    width = half if half > F64_EPS else 1.0
    return (
        block_emit(0, lid, [l for l, _ in by], width, lambda v: _widen(*_span(v[0], half))),
        block_emit(1, rid, [r for _, r in by], width, lambda v: (v[0], v[0])),
    )


def _window_edges(strategy, left, right, lid, rid, by, score, half, batch_size, num_partitions):
    """Edges of a join whose candidates are key 0's window ``x ± half``:
    the broadcast plan, or the blocked plan on :func:`window_emits`' grid."""
    if strategy == "broadcast":
        rt = collect_columns(right, [rid] + sorted({r for _, r in by}))
        return broadcast_edges(left, rt, lid, rid, by, score, batch_size)
    emits = window_emits(lid, rid, by, half)
    return block_edges(left, right, lid, rid, by, emits, score, num_partitions)


def run_plan(
    left: rd.Dataset,
    right: rd.Dataset,
    strategy: str,
    left_id: str | None,
    right_id: str | None,
    build_edges,
    *,
    how: str,
    num_partitions: int,
    drop_cols: tuple,
    distance_cols: list[str],
    n_dist: int,
) -> rd.Dataset:
    """The numeric joins' frame: resolve ``strategy`` ("auto" blocks when
    the right side has more than ``BROADCAST_ROWS`` rows), attach row
    ids, build the match edges with ``build_edges(strategy, left, right,
    lid, rid)`` and assemble ``how`` from them."""
    if strategy not in ("auto", "broadcast", "blocked"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = "blocked" if exceeds_rows(right, BROADCAST_ROWS) else "broadcast"
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src")
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src")
    return assemble(
        left,
        right,
        build_edges(strategy, left, right, lid, rid),
        how=how,
        lid=lid,
        rid=rid,
        distance_cols=distance_cols,
        num_partitions=num_partitions,
        drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
        n_dist=n_dist,
    )


def fuzzy_difference_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    how: str = "inner",
    max_distance: float = 1.0,
    distance_col: str | None = None,
    left_id: str | None = None,
    right_id: str | None = None,
    num_partitions: int = 16,
    drop_cols: tuple = (),
    strategy: str = "auto",
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_difference_join``
    (/root/reference/R/fozzie_difference_join.R:37-52).

    ``strategy``: "broadcast" puts the sorted right keys in the object
    store once, for every left batch's task to read; "blocked"
    grid-buckets BOTH sides at width ``max_distance`` and exchanges them
    (the path for two huge inputs, reference grid design
    difference/mod.rs:19-54); "auto" picks blocked when the right side
    has more than ``rowids.BROADCAST_ROWS`` rows."""
    check_mode(how)
    by = normalize_by(by, left, right)
    thr = float(max_distance) + F64_EPS
    score = partial(difference_pairs, thr=thr)
    return run_plan(
        left,
        right,
        strategy,
        left_id,
        right_id,
        lambda s, l, r, lid, rid: _window_edges(
            s, l, r, lid, rid, by, score, thr, _DIFF_BATCH, num_partitions
        ),
        how=how,
        num_partitions=num_partitions,
        drop_cols=drop_cols,
        distance_cols=distance_col_names(distance_col, by),
        n_dist=len(by),
    )


def fuzzy_distance_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    method: str = "euclidean",
    how: str = "inner",
    max_distance: float = 1.0,
    distance_col: str | None = None,
    left_id: str | None = None,
    right_id: str | None = None,
    num_partitions: int = 16,
    drop_cols: tuple = (),
    strategy: str = "auto",
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_distance_join``
    (/root/reference/R/fozzie_distance_join.R:37-54): multi-column
    euclidean/manhattan distance within ``max_distance``. One distance
    column regardless of key count (distance/mod.rs:108-122).

    ``strategy``: "broadcast" puts the right keys, sorted on the first,
    in the object store once, for every left batch's task to read;
    "blocked" grid-buckets BOTH sides on the first key at width
    ``max_distance`` and exchanges them (the path for two huge inputs);
    "auto" picks blocked when the right side has more than
    ``rowids.BROADCAST_ROWS`` rows."""
    check_mode(how)
    if method not in ("euclidean", "manhattan"):
        raise ValueError(f"unknown distance method {method!r}")
    by = normalize_by(by, left, right)
    maxd = float(max_distance)
    score = partial(distance_pairs, max_distance=maxd, method=method)
    return run_plan(
        left,
        right,
        strategy,
        left_id,
        right_id,
        lambda s, l, r, lid, rid: _window_edges(
            s, l, r, lid, rid, by, score, maxd, _DIST_BATCH, num_partitions
        ),
        how=how,
        num_partitions=num_partitions,
        drop_cols=drop_cols,
        distance_cols=[distance_col] if distance_col else [],
        n_dist=1,
    )
