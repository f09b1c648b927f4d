"""Equality joins for Ray Datasets, built on groupby + per-partition Acero.

``ray.data.Dataset.join`` in this Ray build mis-resolves join keys when a
plan contains more than one hash-shuffle join (observed:
``ArrowInvalid: No match or multiple matches for key field reference ...``
on the second join of a chain even across a materialize() barrier), so
the engine carries its own grace-style partitioned hash join:

1. both sides get a side tag and are padded to a common schema;
2. one :func:`fozziejoin_ray.exchange.exchange` on the key columns (the
   package's dtype-stable partition hash) co-locates matching keys;
3. each partition is joined locally with pyarrow's C++ ``Table.join``.

This is the "explicit partitioned hash join" pattern for both-sides-large
joins. A side that is already a ``MaterializedDataset`` of at most
:data:`BROADCAST_BYTES` is broadcast instead (Spark's broadcast-hash-join
rule): either side of an inner join (the smaller), the right side of a
``left_*`` join, the left side of a ``right_*`` join, never a side of a
full outer join. Each task over the other side's blocks fetches the
small side's blocks itself (the driver never holds them), preps them
like its own block and runs the same per-partition join, so null, dtype,
nested-column and outer-mode semantics are one code path. A lazy side
is never materialized just to measure it.

Null keys never match (consistent with the engine-wide NA rule — Acero's
hash join shares SQL null semantics, verified empirically); null-key
rows still surface as unmatched in the outer modes, mirroring the
reference's full-join assembly (src/rust/src/merge/full.rs:9-85).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from ..exchange import exchange

_SIDE = "__hj_side"

# a materialized side at most this large is broadcast, not shuffled.
# Broadcast work grows with (big-side blocks x small-side bytes); the
# exchange's does not. Measured on 4 CPUs (inner join, 400k-row big side,
# BENCH_broadcast_crossover_r11.json), broadcast and exchange cost the
# same at ~21 MiB with 64 big-side blocks, and broadcast still wins at
# 10.5 MiB with 16 or 256 blocks; the bound is half the lowest crossover.
BROADCAST_BYTES = 10 << 20

# which sides (0 = left, 1 = right) each mode may broadcast: the side
# whose unmatched rows never reach the output
_BROADCASTABLE = {
    "inner": (0, 1),
    "left_outer": (1,),
    "left_semi": (1,),
    "left_anti": (1,),
    "right_outer": (0,),
    "right_semi": (0,),
    "right_anti": (0,),
    "full_outer": (),
}

_MODES = {
    "inner": "inner",
    "left_outer": "left outer",
    "left_semi": "left semi",
    "left_anti": "left anti",
    "right_outer": "right outer",
    "right_semi": "right semi",
    "right_anti": "right anti",
    "full_outer": "full outer",
}


def _schema_or(ds: rd.Dataset, override: pa.Schema | None, side: str) -> pa.Schema:
    if override is not None:
        return override
    sch = ds.schema()
    if sch is None:
        raise ValueError(
            f"{side} join input has no observable schema (all blocks empty); "
            "pass an explicit schema"
        )
    return pa.schema(list(zip(sch.names, sch.types))) if not isinstance(sch, pa.Schema) else sch


def broadcast_bytes(ds: rd.Dataset) -> int | None:
    """``ds``'s size if it is a materialized Dataset small enough to
    broadcast, else None. Never executes a lazy plan to find out."""
    if not isinstance(ds, MaterializedDataset):
        return None
    n = ds.size_bytes()
    return n if n is not None and n <= BROADCAST_BYTES else None


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str | list[str],
    right_on: str | list[str],
    *,
    how: str = "inner",
    num_partitions: int = 16,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Join two Datasets on equality of ``left_on``/``right_on`` (each a
    column name or a same-length list of names for composite keys).

    ``how``: "inner" | "left_outer" | "left_semi" | "left_anti" |
    "right_outer" | "right_semi" | "right_anti" | "full_outer".
    Output columns: all left columns ++ right columns minus ``right_on``
    (keys survive under their left names, coalesced across sides in the
    outer modes); the semi/anti modes emit only their own side's rows —
    ``right_semi``/``right_anti`` return right rows with the keys renamed
    to the left names, so the contract's key naming holds in every mode.
    Column names must not collide otherwise (callers pre-suffix). Pass
    ``left_schema``/``right_schema`` when a side may be empty — Ray
    reports ``schema() is None`` for datasets whose blocks were all
    empty.
    """
    if how not in _MODES:
        raise ValueError(f"how must be one of {sorted(_MODES)}, got {how!r}")
    lkeys = [left_on] if isinstance(left_on, str) else list(left_on)
    rkeys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(lkeys) != len(rkeys) or not lkeys:
        raise ValueError(f"key lists must be same nonzero length: {lkeys} vs {rkeys}")
    lschema = _schema_or(left, left_schema, "left")
    rschema = _schema_or(right, right_schema, "right")
    lnames = list(lschema.names)
    rnames = list(rschema.names)
    overlap = set(lnames) & (set(rnames) - set(rkeys))
    if overlap:
        raise ValueError(f"column collision between join sides: {sorted(overlap)}")

    lfields = list(zip(lschema.names, lschema.types))
    rfields = list(zip(rschema.names, rschema.types))
    # semi/anti modes never emit the other side's payload — shrink that
    # side to its key columns BEFORE the unified-schema shuffle so only
    # keys cross the exchange (collision validation above still saw the
    # full declared schemas)
    if how in ("left_semi", "left_anti"):
        rfields = [(n, t) for n, t in rfields if n in rkeys]
    elif how in ("right_semi", "right_anti"):
        lfields = [(n, t) for n, t in lfields if n in lkeys]
    all_fields = lfields + [(n, t) for n, t in rfields if n not in rkeys]
    # unified shuffle schema: every column of both sides + side;
    # right keys are carried in the LEFT keys' slots (cast to left types).
    ltypes = dict(lfields)
    key_types = {lk: ltypes[lk] for lk in lkeys}
    r2l = dict(zip(rkeys, lkeys))

    def prep(side: int, key_map: dict[str, str]):
        # key_map: unified (left) key name -> source column on this side.
        # Columns already consumed as keys must not ALSO be read as
        # payload: a right key named like a left payload column would
        # otherwise leak its values into that slot (or crash casting)
        consumed = set(key_map.values())

        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols: dict[str, pa.Array | pa.ChunkedArray] = {}
            for name, typ in all_fields:
                if name in key_map and key_map[name] in t.column_names:
                    cols[name] = t[key_map[name]].cast(key_types[name])
                elif name in t.column_names and name not in consumed:
                    col = t[name]
                    # upstream stages can emit degraded block dtypes for
                    # empty/all-null batches (e.g. arrow `null` from an
                    # empty pandas block); pin every column to the
                    # declared schema so per-partition Acero never sees
                    # a null-typed non-key field
                    cols[name] = col if col.type == typ else col.cast(typ)
                else:
                    cols[name] = pa.nulls(n, type=typ)
            cols[_SIDE] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)

        return fn

    preps = (prep(0, {lk: lk for lk in lkeys}), prep(1, {r2l[rk]: rk for rk in rkeys}))

    lcols = [n for n, _ in lfields]
    rcols = [n for n, _ in rfields if n not in rkeys]
    arrow_how = _MODES[how]
    rk_tmp = [f"__hj_rk{i}" for i in range(len(lkeys))]

    def _is_nested(typ: pa.DataType) -> bool:
        return pa.types.is_nested(typ)

    nested_l = [n for n, typ in lfields if _is_nested(typ) and n not in lkeys]
    nested_r = [n for n, typ in rfields if _is_nested(typ) and n not in rkeys]
    left_in_out = how not in ("right_semi", "right_anti")
    right_in_out = how not in ("left_semi", "left_anti") and left_in_out
    right_only = not left_in_out  # right_semi / right_anti emit right cols

    def join_part(t: pa.Table) -> pa.Table:
        # an exchange partition can hold an all-null int64 column as
        # arrow `null` type when a partition holds rows from ONE side
        # only (observed at num_partitions > distinct-key spread); pin
        # the unified schema before Acero sees the table — it rejects
        # null-typed non-key fields
        for name, typ in all_fields:
            i = t.schema.get_field_index(name)
            if t.schema.field(i).type != typ:
                t = t.set_column(i, name, t[name].cast(typ))
        side = t[_SIDE].to_numpy(zero_copy_only=False)
        lt = t.filter(pa.array(side == 0)).select(lcols)
        rt = t.filter(pa.array(side == 1)).select(lkeys + rcols)
        rt = rt.rename_columns(rk_tmp + rcols)
        # null keys never match: pre-filter rows that cannot join AND
        # would not survive as unmatched output in this mode (Acero
        # already applies SQL null semantics; this just sheds work)
        if how in ("inner", "left_semi", "right_outer", "right_semi", "right_anti"):
            for lk in lkeys:
                lt = lt.filter(pa.compute.is_valid(lt[lk]))
        if how in ("inner", "left_semi", "left_anti", "left_outer", "right_semi"):
            for rk in rk_tmp:
                rt = rt.filter(pa.compute.is_valid(rt[rk]))
        # Acero rejects nested (list/struct) non-key columns: carry row
        # indices through the join and re-attach nested columns by take
        lt_j = lt
        rt_j = rt
        if nested_l:
            lt_j = lt_j.drop_columns(nested_l).append_column(
                "__hj_lrow", pa.array(np.arange(lt.num_rows))
            )
        if nested_r:
            rt_j = rt_j.drop_columns(nested_r).append_column(
                "__hj_rrow", pa.array(np.arange(rt.num_rows))
            )
        out = lt_j.join(
            rt_j,
            keys=lkeys,
            right_keys=rk_tmp,
            join_type=arrow_how,
            coalesce_keys=True,
        )
        # right outer emits the (coalesced) keys under the RIGHT names;
        # restore the unified left names
        for i, lk in enumerate(lkeys):
            if rk_tmp[i] in out.column_names and lk not in out.column_names:
                out = out.rename_columns(
                    [lk if c == rk_tmp[i] else c for c in out.column_names]
                )
        if nested_l and left_in_out:
            idx = out["__hj_lrow"]
            for c in nested_l:
                out = out.append_column(c, lt[c].take(idx))
        if "__hj_lrow" in out.column_names:
            out = out.drop_columns(["__hj_lrow"])
        if nested_r and (right_in_out or right_only):
            idx = out["__hj_rrow"]
            for c in nested_r:
                out = out.append_column(c, rt[c].take(idx))
        if "__hj_rrow" in out.column_names:
            out = out.drop_columns(["__hj_rrow"])
        if right_in_out:
            return out.select(lcols + rcols)
        if right_only:
            return out.select(lkeys + rcols)
        return out.select(lcols)

    sides = (left, right)
    sizes = [(broadcast_bytes(sides[i]), i) for i in _BROADCASTABLE[how]]
    sizes = [s for s in sizes if s[0] is not None]
    if not sizes:
        prepped = [ds.map_batches(fn, batch_format="pyarrow") for ds, fn in zip(sides, preps)]
        return exchange(prepped, lkeys, num_partitions, join_part, batch_format="pyarrow")

    small = min(sizes)[1]
    big_prep, small_prep = preps[1 - small], preps[small]
    refs = [
        ref for bundle in sides[small].iter_internal_ref_bundles() for ref in bundle.block_refs
    ]

    def broadcast_part(t: pa.Table) -> pa.Table:
        blocks = [small_prep(BlockAccessor.for_block(b).to_arrow()) for b in ray.get(refs)]
        return join_part(pa.concat_tables([big_prep(t), *blocks]))

    # one batch per block of the big side: the small side is fetched and
    # prepped once per block, not once per default-sized batch
    return sides[1 - small].map_batches(broadcast_part, batch_format="pyarrow", batch_size=None)
