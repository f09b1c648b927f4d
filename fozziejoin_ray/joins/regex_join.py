"""Regex join: left string values matched against right-side patterns.

Mirrors /root/reference/src/rust/src/regex/mod.rs:7-63 — every right
key-1 pattern is compiled once (the reference builds one RegexSet; here
the compiled pattern list is ``ray.put`` once and each left batch is a
plain task that reads it), each left value emits
one edge per matching pattern, an invalid key-1 pattern anywhere fails
the whole join, and ``ignore_case`` toggles case-insensitive
compilation. NA on either side never matches.

Multi-key joins AND-refine keys 2..n per surviving pair
(regex/mod.rs:66-117). Divergences (documented): the reference swaps
operands on keys 2..n (builds the regex from the LEFT value —
regex/mod.rs:93-109, flagged as a quirk in SURVEY.md §2.3); this engine
keeps the consistent orientation (left value, right pattern) on every
key. The reference silently drops a pair whose refinement pattern fails
to compile (regex/mod.rs:98-101 ``.ok()``); that behavior is kept.

Scale strategies: "broadcast" puts the whole compiled pattern set in
the object store once, for every left batch's task; "sharded" (both
sides large) builds pattern shards of <= ``broadcast_threshold`` rows
INCREMENTALLY from the right-side batch stream (the driver never
materializes the full pattern table — one shard at a time), scans the
left stream once per shard, and unions the edges — per-task AND driver
memory are bounded by the shard while the total regex work (inherently
|left| x |patterns|) is unchanged.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..semantics import check_mode
from .modes import assemble, normalize_by
from .rowids import ensure_row_id, exceeds_rows
from .string_join import LID, RID

# left batch size
_BATCH = 16384


def _arrow_accepts(pattern: str, ignore_case: bool) -> bool:
    """True when RE2 (Arrow's vectorized kernel) accepts the pattern;
    Python-re-only syntax (backreferences, lookaround) must fall back to
    the per-value loop."""
    import pyarrow.compute as pc

    try:
        pc.match_substring_regex(pa.array([], pa.string()), pattern, ignore_case=ignore_case)
        return True
    except pa.ArrowInvalid:
        return False


class RightPatternIndex:
    def __init__(
        self,
        patterns: np.ndarray,
        rids: np.ndarray,
        ignore_case: bool,
        rid_type=None,
        extra: dict[str, np.ndarray] | None = None,
    ):
        self.rid_type = rid_type  # arrow type: empty batches must emit typed ids
        flags = re.IGNORECASE if ignore_case else 0
        self.ignore_case = ignore_case
        self.rids = rids
        self.extra = extra or {}  # rkey -> per-row refinement pattern array
        # (pattern, compiled, right row positions, use_arrow)
        self.compiled: list[tuple[str, re.Pattern, np.ndarray, bool]] = []
        by_pattern: dict[str, list[int]] = {}
        for pos, p in enumerate(patterns):
            if p is not None:
                by_pattern.setdefault(p, []).append(pos)
        for p, positions in by_pattern.items():
            try:
                cre = re.compile(p, flags)
            except re.error as e:
                raise ValueError(f"invalid regex pattern {p!r}: {e}") from e
            self.compiled.append(
                (p, cre, np.asarray(positions, dtype=np.int64), _arrow_accepts(p, ignore_case))
            )


def _refine_mask(
    idx: RightPatternIndex, lv: np.ndarray, pv: np.ndarray, cache: dict
) -> np.ndarray:
    """Per-pair mask: left value lv[i] matches right pattern pv[i].
    Vectorized by grouping pairs on distinct pattern; invalid or NA
    pattern / NA value -> False (pair dropped, regex/mod.rs:98-109).
    ``cache`` maps a pattern to (compiled or None, use_arrow)."""
    import pandas as pd
    import pyarrow.compute as pc

    n = len(lv)
    out = np.zeros(n, bool)
    if not n:
        return out
    codes, uniques = pd.factorize(pv)  # None -> code -1
    flags = re.IGNORECASE if idx.ignore_case else 0
    for ci, p in enumerate(uniques):
        rows = np.nonzero(codes == ci)[0]
        ent = cache.get(p)
        if ent is None:
            try:
                ent = (re.compile(p, flags), _arrow_accepts(p, idx.ignore_case))
            except re.error:
                ent = (None, False)
            cache[p] = ent
        cre, use_arrow = ent
        if cre is None:
            continue
        vals = lv[rows]
        ok = np.array([v is not None for v in vals], bool)
        vrows = rows[ok]
        if not len(vrows):
            continue
        if use_arrow:
            hit = pc.match_substring_regex(
                pa.array(lv[vrows], pa.string()), p, ignore_case=idx.ignore_case
            ).to_numpy(zero_copy_only=False)
        else:
            hit = np.fromiter(
                (cre.search(v) is not None for v in lv[vrows]), bool, count=len(vrows)
            )
        out[vrows[hit]] = True
    return out


def match_left_batch(idx: RightPatternIndex, batch: pa.Table, by, lid: str) -> pa.Table:
    """The per-batch task: every left value of a batch against every
    pattern of ``idx``; emits (lid, rid) per match."""
    import pyarrow.compute as pc

    col = batch.column(by[0][0])
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lids = batch.column(lid).to_numpy(zero_copy_only=False)
    pos = np.nonzero(pc.is_valid(col).to_numpy(zero_copy_only=False))[0]
    sarr = col.take(pa.array(pos, pa.int64()))
    svals: list | None = None  # materialized lazily for re-only patterns

    lrow_parts: list[np.ndarray] = []
    rpos_parts: list[np.ndarray] = []
    for p, cre, rpos_p, use_arrow in idx.compiled:
        if use_arrow:
            hit = pc.match_substring_regex(
                sarr, p, ignore_case=idx.ignore_case
            ).to_numpy(zero_copy_only=False)
        else:
            if svals is None:
                svals = sarr.to_pylist()
            hit = np.fromiter(
                (cre.search(v) is not None for v in svals), bool, count=len(svals)
            )
        hpos = pos[hit]
        if len(hpos):
            lrow_parts.append(np.repeat(hpos, len(rpos_p)))
            rpos_parts.append(np.tile(rpos_p, len(hpos)))
    if lrow_parts:
        lrow = np.concatenate(lrow_parts)
        rpos = np.concatenate(rpos_parts)
    else:
        lrow = np.empty(0, np.int64)
        rpos = np.empty(0, np.int64)

    # multi-key AND refinement (regex/mod.rs:66-117, orientation kept)
    cache: dict[str, tuple[re.Pattern | None, bool]] = {}
    for lkey, rkey in by[1:]:
        if not len(lrow):
            break
        lv = batch.column(lkey).to_numpy(zero_copy_only=False)[lrow]
        pv = idx.extra[rkey][rpos]
        keep = _refine_mask(idx, lv, pv, cache)
        lrow = lrow[keep]
        rpos = rpos[keep]

    return pa.table(
        {
            LID: pa.array(lids[lrow], type=batch.schema.field(lid).type),
            RID: pa.array(idx.rids[rpos], type=idx.rid_type),
        }
    )


def fuzzy_regex_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    how: str = "inner",
    ignore_case: bool = False,
    left_id: str | None = None,
    right_id: str | None = None,
    num_partitions: int = 16,
    strategy: str = "auto",
    broadcast_threshold: int = 1_000_000,
) -> rd.Dataset:
    """Ray-Data analog of ``fozzie_regex_join``
    (/root/reference/R/fozzie_regex_join.R:36-49)."""
    check_mode(how)
    if strategy not in ("auto", "broadcast", "sharded"):
        raise ValueError(f"unknown strategy {strategy!r}")
    by = normalize_by(by, left, right)
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src")
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src")

    rcols = [rid] + sorted({r for _, r in by})
    if strategy == "auto":
        strategy = "sharded" if exceeds_rows(right, broadcast_threshold) else "broadcast"

    def shard_stream():
        """Build pattern shards incrementally from the right-side batch
        stream — the driver never holds more than one shard (plus one
        in-flight batch), so a pattern table larger than driver memory
        shards through. Always yields at least one (possibly empty)
        shard so every join mode gets an edges dataset."""
        buf: list[pa.Table] = []
        nbuf = 0
        any_out = False
        for t in right.select_columns(rcols).iter_batches(
            batch_size=None, batch_format="pyarrow"
        ):
            s = 0
            while s < t.num_rows:
                take = (
                    min(broadcast_threshold - nbuf, t.num_rows - s)
                    if strategy == "sharded"
                    else t.num_rows - s
                )
                buf.append(t.slice(s, take))
                nbuf += take
                s += take
                if strategy == "sharded" and nbuf >= broadcast_threshold:
                    yield pa.concat_tables(buf)
                    any_out = True
                    buf, nbuf = [], 0
        if buf:
            yield pa.concat_tables(buf)
        elif not any_out:
            s = right.schema()
            sch = pa.schema([pa.field(n, ty) for n, ty in zip(s.names, s.types)])
            yield sch.empty_table().select(rcols)

    left_cols = [lid] + sorted({l for l, _ in by})
    lsel = left.select_columns(left_cols)
    edges: rd.Dataset | None = None
    for shard in shard_stream():
        index = ray.put(
            RightPatternIndex(
                shard.column(by[0][1]).to_numpy(zero_copy_only=False),
                shard.column(rid).to_numpy(zero_copy_only=False),
                ignore_case,
                rid_type=shard.schema.field(rid).type,
                extra={
                    r: shard.column(r).to_numpy(zero_copy_only=False) for _, r in by[1:]
                },
            )
        )

        # index=index binds this shard's index: the map runs after the loop
        def probe(batch: pa.Table, index=index) -> pa.Table:
            return match_left_batch(ray.get(index), batch, by, lid)

        part = lsel.map_batches(probe, batch_format="pyarrow", batch_size=_BATCH)
        edges = part if edges is None else edges.union(part)
    return assemble(
        left,
        right,
        edges,
        how=how,
        lid=lid,
        rid=rid,
        distance_cols=[],
        num_partitions=num_partitions,
        drop_ids=["__fj_lid_src", "__fj_rid_src"],
        n_dist=0,
    )
