"""The one hash-partitioned exchange primitive.

Every join, dedup, aggregation and clustering stage that co-locates
rows by key is the same step: send each row to partition
``hash(keys) % P``, then map each partition with ``fn``. This module
owns both halves:

- :func:`partition_ids` computes the id from Arrow columns, by type,
  with no per-row Python. The id is a pure function of the logical key
  tuple, never of a block's physical dtype: ints of any width, bools
  and whole-number floats hash as int64, so the int64 key 7 and the
  float64 7.0 of a null-degraded pandas block land together, and every
  null lands in one constant partition. For non-null int64, uint64
  (< 2^63) and string columns the id equals
  ``pd.util.hash_array(values) % P`` bit for bit, the formula the
  persisted LSH index ``__part``, the checkpoint resume tags and
  ``hash_join``'s partitions were written with. Multi-column keys fold
  per-column hashes with ``h * 1000003 ^ hc``.
- :func:`exchange` is a two-stage shuffle of plain Ray tasks, with no
  sort: one task per input block splits it by :func:`partition_ids`
  into ``P`` slices and counts them, then one task per non-empty
  partition concatenates its slices and calls ``fn`` once. Its cost
  follows the blocks and partitions it moves, not a sort's sample and
  fan-outs. Stages that produce their partials in pandas need no tag
  of their own: the split task hashes each block's Arrow form, where a
  null-degraded float64 key is again a whole number.

Sites that deliver to actors, filter or tag by partition, or name a
partition's files (PageRank ownership, the checkpoint filters and
tags, the persisted LSH index's ``__part=p`` directories) call
:func:`partition_ids` directly.
Content hashes (hashes of values that are NOT partition ids) stay
where they are; ``kernels/stablehash.py`` keeps value hashing.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data._internal.arrow_ops.transform_pyarrow import concat
from ray.data.block import BlockAccessor

_FOLD = np.uint64(1000003)
_NULL = np.uint64(0x2545F4914F6CDD1D)
_I63 = float(2**63)


def _hash_i64(v: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(np.ascontiguousarray(v, dtype=np.int64), categorize=False)


def _hash_f64(f: np.ndarray) -> np.ndarray:
    """Whole numbers in int64 range hash as int64, the rest as float64
    bits (one NaN pattern)."""
    with np.errstate(invalid="ignore"):
        whole = (f == np.floor(f)) & (f >= -_I63) & (f < _I63)
    if whole.all():
        return _hash_i64(f.astype(np.int64))
    h = pd.util.hash_array(np.where(np.isnan(f), np.nan, f), categorize=False)
    if whole.any():
        h[whole] = _hash_i64(np.where(whole, f, 0.0).astype(np.int64))[whole]
    return h


def _numpy(col: pa.Array, fill) -> np.ndarray:
    return np.asarray(pc.fill_null(col, fill).to_numpy(zero_copy_only=False))


def _col_hash(col: pa.Array) -> np.ndarray:
    """uint64 per row, a pure function of (logical value, validity)."""
    typ = col.type
    if pa.types.is_null(typ):
        return np.full(len(col), _NULL, dtype=np.uint64)
    if pa.types.is_boolean(typ):
        h = _hash_i64(_numpy(col, False))
    elif pa.types.is_integer(typ):
        # uint64 >= 2^63 wraps: a collision with a negative int64, never
        # a split of one value
        h = _hash_i64(_numpy(col, 0).astype(np.int64))
    elif pa.types.is_floating(typ):
        h = _hash_f64(_numpy(col.cast(pa.float64()), 0.0))
    else:
        # strings, binary, temporals: their numpy form, as pd.util.hash_array
        # has always hashed them
        h = pd.util.hash_array(np.asarray(col.to_numpy(zero_copy_only=False)), categorize=False)
    if col.null_count:
        h = np.where(col.is_valid().to_numpy(zero_copy_only=False), h, _NULL)
    return h


def partition_ids(cols: Sequence[pa.Array | pa.ChunkedArray], num_partitions: int) -> np.ndarray:
    """int64 partition id in ``[0, num_partitions)`` per row of the key
    tuple ``cols`` (equal-length Arrow columns, chunked or not)."""
    h = None
    for col in cols:
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        hc = (
            np.concatenate([_col_hash(c) for c in chunks])
            if chunks
            else np.empty(0, np.uint64)
        )
        h = hc if h is None else (h * _FOLD) ^ hc
    if h is None:
        raise ValueError("partition_ids needs at least one key column")
    return (h % np.uint64(num_partitions)).astype(np.int64)


@ray.remote
def _split(block, keys: list[str], num_partitions: int):
    """Map side: a block's ``num_partitions`` slices, in partition order,
    then its per-partition row counts."""
    t = BlockAccessor.for_block(block).to_arrow()
    ids = partition_ids([t.column(k) for k in keys], num_partitions)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(num_partitions + 1))
    slices = [t.take(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return (*slices, np.diff(bounds))


@ray.remote
def _reduce(fn: Callable, batch_format: str, *pieces: pa.Table) -> pa.Table:
    """Reduce side: one partition's slices, concatenated with the type
    promotion of Ray's own sort reduce (an int64 slice of one block and
    the float64 slice of a null-degraded pandas block become float64),
    mapped once by ``fn``."""
    t = concat(list(pieces), promote_types=True)
    out = fn(BlockAccessor.for_block(t).to_batch_format(batch_format))
    return BlockAccessor.for_block(BlockAccessor.batch_to_block(out)).to_arrow()


def exchange(
    ds: rd.Dataset | Sequence[rd.Dataset],
    keys: str | Sequence[str],
    num_partitions: int,
    fn: Callable,
    *,
    batch_format: str,
) -> rd.Dataset:
    """Co-locate the rows of ``ds`` (a Dataset, or the union of several)
    by ``keys`` in ``num_partitions`` hash partitions and map each
    non-empty partition once with ``fn`` (a ``batch_format`` batch of
    every row of the partition); a partition holds all rows of each of
    its key tuples and may hold several tuples. Two stages of plain Ray
    tasks, no sort: one split task per non-empty input block, then one
    ``fn`` task per non-empty partition. A barrier: the input runs here,
    at the call, and the result is materialized, one Arrow block per
    non-empty partition in partition order."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    inputs = [ds] if isinstance(ds, rd.Dataset) else list(ds)
    unioned = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    split = _split.options(num_returns=num_partitions + 1)
    parts = [
        split.remote(ref, keys, num_partitions)
        for bundle in unioned.iter_internal_ref_bundles()
        for ref, meta in zip(bundle.block_refs, bundle.metadata)
        if meta.num_rows != 0
    ]
    counts = ray.get([p[-1] for p in parts])
    # the task name shows the partition function in Ray's timeline
    reduce = _reduce.options(name=f"exchange.{getattr(fn, '__name__', 'fn')}")
    outs = []
    for p in range(num_partitions):
        pieces = [refs[p] for refs, c in zip(parts, counts) if c[p]]
        if pieces:
            outs.append(reduce.remote(fn, batch_format, *pieces))
    return rd.from_arrow_refs(outs)
