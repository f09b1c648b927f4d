"""Numeric fuzzy joins: difference (abs-diff window) and vector distance.

Semantics mirror the reference:

- difference join: a pair matches iff ``|x - y| <= max_distance +
  f64::EPSILON`` (/root/reference/src/rust/src/difference/mod.rs:28);
  multi-key = AND of per-key thresholds with per-key distance columns
  (difference/mod.rs:84-160); NA never matches (:138-141); integer or
  double key columns accepted (utils.rs:116-133).
- distance join: k-column row vectors, euclidean (sqrt of sum of
  squares) or manhattan (sum of abs), keep ``dist <= max_distance``
  (/root/reference/src/rust/src/distance/mod.rs:108-122); rows with NA
  in any key drop silently (NaN fails <=); float columns only (:50-58).

Physical plan (broadcast path): the right key column is sorted once,
broadcast via ``ray.put``, and an actor pool streams left batches,
finding candidates with two vectorized ``searchsorted`` probes — the
distributed analog of the reference's grid-bucket probe
(difference/mod.rs:19-54). The blocked path (both sides huge) grid-
buckets values at width ``max_distance`` and shuffles with one groupby:
right rows to their own bucket, left rows to buckets {b-1, b, b+1}, so
every within-threshold pair meets in exactly one block (the right
value's home bucket).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..exchange import exchange
from ..semantics import F64_EPS, check_mode, distance_col_names
from .modes import assemble, normalize_by
from .rowids import ensure_row_id, exceeds_rows
from .string_join import LID, RID, dist_names


def _concat_ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate [lo[i], lo[i]+counts[i]) ranges without a python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts + offsets


def _numeric_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """To float64 with NaN for nulls."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(arr.cast(pa.float64()).to_numpy(zero_copy_only=False), dtype=np.float64)


class RightDifferenceIndex:
    def __init__(
        self, key_values: np.ndarray, rids: np.ndarray, extra: dict[str, np.ndarray], rid_type=None
    ):
        valid = ~np.isnan(key_values)
        self.rids = rids
        self.rid_type = rid_type  # arrow type: empty batches must emit typed ids
        self.extra = extra
        self.valid_pos = np.nonzero(valid)[0]
        vals = key_values[valid]
        order = np.argsort(vals, kind="stable")
        self.sorted_vals = vals[order]
        self.sorted_pos = self.valid_pos[order]  # positions into original rows


class BroadcastDifferenceScorer:
    def __init__(self, index_ref, cfg: dict):
        self.idx: RightDifferenceIndex = ray.get(index_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        idx = self.idx
        by = cfg["by"]
        thr = cfg["max_distance"] + F64_EPS

        x = _numeric_np(batch.column(by[0][0]))
        lids = batch.column(cfg["lid"]).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(x)

        lo = np.searchsorted(idx.sorted_vals, x - thr, side="left")
        hi = np.searchsorted(idx.sorted_vals, x + thr, side="right")
        lo[~ok] = 0
        hi[~ok] = 0
        counts = hi - lo
        lrow = np.repeat(np.arange(len(x)), counts)
        spos = _concat_ranges(lo, counts)
        d0 = np.abs(x[lrow] - idx.sorted_vals[spos])
        keep = d0 <= thr
        lrow = lrow[keep]
        rpos = idx.sorted_pos[spos[keep]]
        dists = [d0[keep]]

        for lkey, rkey in by[1:]:
            lv = _numeric_np(batch.column(lkey))[lrow]
            rv = idx.extra[rkey][rpos]
            dk = np.abs(lv - rv)
            keep2 = dk <= thr  # NaN fails -> NA never matches
            lrow = lrow[keep2]
            rpos = rpos[keep2]
            dists = [d[keep2] for d in dists] + [dk[keep2]]

        cols = {
            LID: pa.array(lids[lrow], type=batch.schema.field(cfg["lid"]).type),
            RID: pa.array(idx.rids[rpos], type=idx.rid_type),
        }
        for name, d in zip(dist_names(len(by)), dists):
            cols[name] = pa.array(d, type=pa.float64())
        return pa.table(cols)


_NB = "__nb_bucket"
_NS = "__nb_side"
_NI = "__nb_id"


def _diff_emit(side: int, id_col: str, key_cols: list[str], width: float):
    """map_batches fn: (bucket, side, id, v0..vk) rows. Rights go to their
    home bucket floor(v/width); lefts to buckets {b-1, b, b+1} so every
    within-threshold pair meets in the right value's home bucket exactly
    once (reference grid design, difference/mod.rs:19-54). NaN/null keys
    emit nothing (NA never matches)."""

    def fn(t: pa.Table) -> pa.Table:
        v = _numeric_np(t[key_cols[0]])
        ok = np.nonzero(~np.isnan(v))[0]
        b0 = np.floor(v[ok] / width).astype(np.int64)
        if side == 1:
            rows = ok
            bks = b0
        else:
            rows = np.repeat(ok, 3)
            bks = (b0[:, None] + np.array([-1, 0, 1])[None, :]).ravel()
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        take = pa.array(rows)
        cols = {
            _NB: pa.array(bks),
            _NS: pa.array(np.full(len(rows), side, dtype=np.int8)),
            _NI: idc.take(take),
        }
        for i, c in enumerate(key_cols):
            cols[f"__nb_v{i}"] = pa.array(_numeric_np(t[c])[rows] if len(rows) else np.empty(0))
        return pa.table(cols)

    return fn


def _blocked_difference_edges(
    left: rd.Dataset,
    right: rd.Dataset,
    by,
    lid: str,
    rid: str,
    max_distance: float,
    num_partitions: int,
) -> rd.Dataset:
    """Both-sides-large difference join: grid-bucket shuffle instead of a
    driver-side broadcast. One all-to-all on hash(bucket); inside each
    partition rights are value-sorted once and every left probe is two
    vectorized searchsorted calls clipped to the probe bucket's segment
    (segments found by searchsorted over the int64 bucket ids, so the
    emission-side floor() and the probe-side clip can never disagree)."""
    thr = float(max_distance) + F64_EPS
    width = float(max_distance) if max_distance > 0 else 1.0
    lkeys = [l for l, _ in by]
    rkeys = [r for _, r in by]
    nkeys = len(by)

    el = left.select_columns([lid] + sorted(set(lkeys))).map_batches(
        _diff_emit(0, lid, lkeys, width), batch_format="pyarrow"
    )
    er = right.select_columns([rid] + sorted(set(rkeys))).map_batches(
        _diff_emit(1, rid, rkeys, width), batch_format="pyarrow"
    )

    def score_part(t: pa.Table) -> pa.Table:
        idt = t.schema.field(_NI).type
        empty_cols = {LID: pa.array([], idt), RID: pa.array([], idt)}
        for n in dist_names(nkeys):
            empty_cols[n] = pa.array([], pa.float64())
        empty = pa.table(empty_cols)
        if t.num_rows == 0:
            return empty
        side = t[_NS].to_numpy(zero_copy_only=False)
        bkt = t[_NB].to_numpy(zero_copy_only=False)
        ids = (
            t[_NI].combine_chunks() if isinstance(t[_NI], pa.ChunkedArray) else t[_NI]
        ).to_numpy(zero_copy_only=False)
        vals = [t[f"__nb_v{i}"].to_numpy(zero_copy_only=False) for i in range(nkeys)]
        lpos = np.nonzero(side == 0)[0]
        rpos = np.nonzero(side == 1)[0]
        if not len(lpos) or not len(rpos):
            return empty
        rv = vals[0][rpos]
        order = np.argsort(rv, kind="stable")  # floor(v/w) is monotone in v
        rv_s = rv[order]
        rb_s = bkt[rpos][order]
        rpos_s = rpos[order]
        x = vals[0][lpos]
        lb = bkt[lpos]
        seg_lo = np.searchsorted(rb_s, lb, side="left")
        seg_hi = np.searchsorted(rb_s, lb, side="right")
        vlo = np.searchsorted(rv_s, x - thr, side="left")
        vhi = np.searchsorted(rv_s, x + thr, side="right")
        lo = np.maximum(seg_lo, vlo)
        hi = np.minimum(seg_hi, vhi)
        counts = np.maximum(hi - lo, 0)
        lrow = np.repeat(np.arange(len(lpos)), counts)
        spos = _concat_ranges(lo, counts)
        d0 = np.abs(x[lrow] - rv_s[spos])
        keep = d0 <= thr
        lrow = lrow[keep]
        rsel = rpos_s[spos[keep]]
        dists = [d0[keep]]
        for ki in range(1, nkeys):
            lv = vals[ki][lpos[lrow]]
            rvk = vals[ki][rsel]
            dk = np.abs(lv - rvk)
            keep2 = dk <= thr  # NaN fails -> NA never matches
            lrow = lrow[keep2]
            rsel = rsel[keep2]
            dists = [d[keep2] for d in dists] + [dk[keep2]]
        cols = {
            LID: pa.array(ids[lpos[lrow]], idt),
            RID: pa.array(ids[rsel], idt),
        }
        for n, d in zip(dist_names(nkeys), dists):
            cols[n] = pa.array(d, pa.float64())
        return pa.table(cols)

    return exchange([el, er], _NB, num_partitions, score_part, batch_format="pyarrow")


def _collect_right_numeric(right: rd.Dataset, rid: str, by) -> tuple:
    # returns (key values, rid values, rid arrow type, extra key arrays)
    cols = [rid] + sorted({r for _, r in by})
    tables = [
        t
        for t in right.select_columns(cols).iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    rt = pa.concat_tables(tables) if tables else None
    if rt is None:
        raise ValueError("right dataset is empty with no schema")
    key0 = by[0][1]
    extra = {r: _numeric_np(rt.column(r)) for _, r in by[1:]}
    return (
        _numeric_np(rt.column(key0)),
        rt.column(rid).to_numpy(zero_copy_only=False),
        rt.schema.field(rid).type,
        extra,
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
    concurrency=(1, 8),
    batch_size: int = 65536,
    drop_cols: tuple = (),
    strategy: str = "auto",
    broadcast_threshold: int = 2_000_000,
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_difference_join``
    (/root/reference/R/fozzie_difference_join.R:37-52).

    ``strategy``: "broadcast" ships the sorted right keys to every scorer
    actor; "blocked" grid-buckets BOTH sides at width ``max_distance``
    and shuffles (the path for two huge inputs, reference grid design
    difference/mod.rs:19-54); "auto" picks blocked when the right side
    exceeds ``broadcast_threshold`` rows."""
    check_mode(how)
    if strategy not in ("auto", "broadcast", "blocked"):
        raise ValueError(f"unknown strategy {strategy!r}")
    by = normalize_by(by, left, right)
    if strategy == "auto":
        strategy = "blocked" if exceeds_rows(right, broadcast_threshold) else "broadcast"
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src")
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src")

    if strategy == "blocked":
        edges = _blocked_difference_edges(
            left, right, by, lid, rid, float(max_distance), num_partitions
        )
        return assemble(
            left,
            right,
            edges,
            how=how,
            lid=lid,
            rid=rid,
            distance_cols=distance_col_names(distance_col, by),
            num_partitions=num_partitions,
            drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
            n_dist=len(by),
        )

    key_vals, rids, rid_type, extra = _collect_right_numeric(right, rid, by)
    index_ref = ray.put(RightDifferenceIndex(key_vals, rids, extra, rid_type))
    cfg = {"by": by, "lid": lid, "max_distance": float(max_distance)}
    left_cols = [lid] + sorted({l for l, _ in by})
    edges = left.select_columns(left_cols).map_batches(
        BroadcastDifferenceScorer,
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
        distance_cols=distance_col_names(distance_col, by),
        num_partitions=num_partitions,
        drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
        n_dist=len(by),
    )


class RightDistanceIndex:
    def __init__(self, matrix: np.ndarray, rids: np.ndarray, rid_type=None):
        self.matrix = matrix  # (m, k) float64, NaN for nulls
        self.rids = rids
        self.rid_type = rid_type  # arrow type: empty batches must emit typed ids


class BroadcastDistanceScorer:
    """Chunked vectorized cdist against the broadcast right matrix; the
    reference computes the full cross product (distance/mod.rs:94-128) —
    here it streams in left chunks bounded to ~64 MB of scratch."""

    def __init__(self, index_ref, cfg: dict):
        self.idx: RightDistanceIndex = ray.get(index_ref)
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        R = self.idx.matrix
        m, k = R.shape
        maxd = cfg["max_distance"]
        method = cfg["method"]
        X = np.column_stack([_numeric_np(batch.column(l)) for l, _ in cfg["by"]])
        lids = batch.column(cfg["lid"]).to_numpy(zero_copy_only=False)

        lrows: list[np.ndarray] = []
        rrows: list[np.ndarray] = []
        dvals: list[np.ndarray] = []
        chunk = max(1, int(8_000_000 / max(1, m * k)))
        for s in range(0, len(X), chunk):
            Xc = X[s : s + chunk]
            diff = Xc[:, None, :] - R[None, :, :]
            if method == "manhattan":
                D = np.abs(diff).sum(axis=2)
            else:
                D = np.sqrt((diff * diff).sum(axis=2))
            li, ri = np.nonzero(D <= maxd)  # NaN fails <= : NA rows drop
            lrows.append(li + s)
            rrows.append(ri)
            dvals.append(D[li, ri])
        lrow = np.concatenate(lrows) if lrows else np.empty(0, np.int64)
        rrow = np.concatenate(rrows) if rrows else np.empty(0, np.int64)
        d = np.concatenate(dvals) if dvals else np.empty(0, np.float64)
        return pa.table(
            {
                LID: pa.array(
                    lids[lrow.astype(np.int64)], type=batch.schema.field(cfg["lid"]).type
                ),
                RID: pa.array(self.idx.rids[rrow.astype(np.int64)], type=self.idx.rid_type),
                "__fj_d0": pa.array(d, type=pa.float64()),
            }
        )


def _blocked_distance_edges(
    left: rd.Dataset,
    right: rd.Dataset,
    by,
    lid: str,
    rid: str,
    max_distance: float,
    method: str,
    num_partitions: int,
) -> rd.Dataset:
    """Both-sides-large distance join: grid-bucket shuffle on the FIRST
    key dimension instead of a driver-side broadcast matrix. Any pair
    with euclidean/manhattan distance <= d has per-coordinate |diff|
    <= d, so bucketing dim 0 at width ``max_distance`` (rights home,
    lefts ±1, reference grid design difference/mod.rs:19-54) loses no
    pairs; inside each partition rights are sorted by dim 0, every left
    probes a searchsorted window clipped to its bucket's segment, and
    the full k-dim distance is computed vectorized on the window pairs.
    """
    maxd = float(max_distance)
    width = maxd if maxd > 0 else 1.0
    lkeys = [l for l, _ in by]
    rkeys = [r for _, r in by]
    nkeys = len(by)

    el = left.select_columns([lid] + sorted(set(lkeys))).map_batches(
        _diff_emit(0, lid, lkeys, width), batch_format="pyarrow"
    )
    er = right.select_columns([rid] + sorted(set(rkeys))).map_batches(
        _diff_emit(1, rid, rkeys, width), batch_format="pyarrow"
    )

    def score_part(t: pa.Table) -> pa.Table:
        idt = t.schema.field(_NI).type
        empty = pa.table(
            {LID: pa.array([], idt), RID: pa.array([], idt), "__fj_d0": pa.array([], pa.float64())}
        )
        if t.num_rows == 0:
            return empty
        side = t[_NS].to_numpy(zero_copy_only=False)
        bkt = t[_NB].to_numpy(zero_copy_only=False)
        ids = (
            t[_NI].combine_chunks() if isinstance(t[_NI], pa.ChunkedArray) else t[_NI]
        ).to_numpy(zero_copy_only=False)
        vals = [t[f"__nb_v{i}"].to_numpy(zero_copy_only=False) for i in range(nkeys)]
        lpos = np.nonzero(side == 0)[0]
        rpos = np.nonzero(side == 1)[0]
        if not len(lpos) or not len(rpos):
            return empty
        rv = vals[0][rpos]
        order = np.argsort(rv, kind="stable")  # floor(v/w) is monotone in v
        rv_s = rv[order]
        rb_s = bkt[rpos][order]
        rpos_s = rpos[order]
        x = vals[0][lpos]
        lb = bkt[lpos]
        seg_lo = np.searchsorted(rb_s, lb, side="left")
        seg_hi = np.searchsorted(rb_s, lb, side="right")
        vlo = np.searchsorted(rv_s, x - maxd, side="left")
        vhi = np.searchsorted(rv_s, x + maxd, side="right")
        lo = np.maximum(seg_lo, vlo)
        hi = np.minimum(seg_hi, vhi)
        counts = np.maximum(hi - lo, 0)
        lrow = np.repeat(np.arange(len(lpos)), counts)
        spos = _concat_ranges(lo, counts)
        rsel = rpos_s[spos]
        if method == "manhattan":
            D = np.abs(x[lrow] - rv_s[spos])
            for ki in range(1, nkeys):
                D += np.abs(vals[ki][lpos[lrow]] - vals[ki][rsel])
        else:
            D = (x[lrow] - rv_s[spos]) ** 2
            for ki in range(1, nkeys):
                diff = vals[ki][lpos[lrow]] - vals[ki][rsel]
                D += diff * diff
            D = np.sqrt(D)
        keep = D <= maxd  # NaN in any dim fails -> NA never matches
        return pa.table(
            {
                LID: pa.array(ids[lpos[lrow[keep]]], idt),
                RID: pa.array(ids[rsel[keep]], idt),
                "__fj_d0": pa.array(D[keep], pa.float64()),
            }
        )

    return exchange([el, er], _NB, num_partitions, score_part, batch_format="pyarrow")


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
    concurrency=(1, 8),
    batch_size: int = 16384,
    drop_cols: tuple = (),
    strategy: str = "auto",
    broadcast_threshold: int = 2_000_000,
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_distance_join``
    (/root/reference/R/fozzie_distance_join.R:37-54): multi-column
    euclidean/manhattan distance within ``max_distance``. One distance
    column regardless of key count (distance/mod.rs:108-122).

    ``strategy``: "broadcast" ships the right (m, k) matrix to every
    scorer actor; "blocked" grid-buckets BOTH sides on the first key at
    width ``max_distance`` and shuffles (the path for two huge inputs);
    "auto" picks blocked when the right side exceeds
    ``broadcast_threshold`` rows."""
    check_mode(how)
    if method not in ("euclidean", "manhattan"):
        raise ValueError(f"unknown distance method {method!r}")
    if strategy not in ("auto", "broadcast", "blocked"):
        raise ValueError(f"unknown strategy {strategy!r}")
    by = normalize_by(by, left, right)
    if strategy == "auto":
        strategy = "blocked" if exceeds_rows(right, broadcast_threshold) else "broadcast"
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src")
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src")

    if strategy == "blocked":
        edges = _blocked_distance_edges(
            left, right, by, lid, rid, float(max_distance), method, num_partitions
        )
        return assemble(
            left,
            right,
            edges,
            how=how,
            lid=lid,
            rid=rid,
            distance_cols=[distance_col] if distance_col else [],
            num_partitions=num_partitions,
            drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
            n_dist=1,
        )

    rcols = [rid] + [r for _, r in by]
    tables = list(
        right.select_columns(rcols).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    rt = pa.concat_tables(tables)
    matrix = np.column_stack([_numeric_np(rt.column(r)) for _, r in by])
    index_ref = ray.put(
        RightDistanceIndex(
            matrix, rt.column(rid).to_numpy(zero_copy_only=False), rt.schema.field(rid).type
        )
    )
    cfg = {"by": by, "lid": lid, "max_distance": float(max_distance), "method": method}
    left_cols = [lid] + sorted({l for l, _ in by})
    edges = left.select_columns(left_cols).map_batches(
        BroadcastDistanceScorer,
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
        distance_cols=[distance_col] if distance_col else [],
        num_partitions=num_partitions,
        drop_ids=["__fj_lid_src", "__fj_rid_src", *drop_cols],
        n_dist=1,
    )
