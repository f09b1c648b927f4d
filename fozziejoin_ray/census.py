"""Hot-key census: exact counts of the keys that occur more than a floor
times, with no shuffle.

Stages that only need the few heavy keys (the LSH stop-word cap, the
blocked join's salt plan) ask this instead of running a
``groupby().count()`` over every key. It makes two passes over
materialized inputs, in the cold-item filtering shape of *LogLog
Filter* (ICDE 2021):

1. **Prune cold keys locally.** A key with global count > ``floor``
   spread over B blocks must have at least ``ceil((floor + 1) / B)``
   rows in SOME block (pigeonhole), so each block counts its own keys
   and sends the driver only those that reach that threshold.
2. **Count the survivors exactly.** Each block counts only the
   candidate keys; the driver sums the partials. Skipped when pass 1
   found no candidate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.dataset import MaterializedDataset

_N = "count_all"


def _count(k: pa.Table) -> pa.Table:
    return k.group_by(k.column_names).aggregate([([], _N)])


def hot_key_census(
    sources: Sequence[tuple[MaterializedDataset, Callable[[pa.Table], pa.Table]]],
    key_schema: pa.Schema,
    floor: int,
) -> pa.Table:
    """The key tuples that occur more than ``floor`` times over all
    ``sources``, and every other tuple that shares its first key column
    with one of them, all with their exact counts: ``key_schema``'s
    columns plus ``count_all``. With one key column that is just the hot
    keys; the blocked join's salt plan keys on (block, side) and so gets
    every side's count of a block that has any side over the floor.

    Each source is a materialized Dataset and a function from one of its
    blocks to that block's key rows (``key_schema``, one row per
    occurrence). The function runs once per block (``batch_size=None``),
    so the block count B comes from metadata and the pigeonhole bound
    holds."""
    n_blocks = max(1, sum(ds.num_blocks() for ds, _ in sources))
    thresh = -(-(floor + 1) // n_blocks)  # ceil

    def run(per_block: Callable[[pa.Table], pa.Table], schema: pa.Schema) -> pa.Table:
        mapped = [
            ds.map_batches(
                lambda t, keys_of=keys_of: per_block(keys_of(t)),
                batch_format="pyarrow",
                batch_size=None,
            )
            for ds, keys_of in sources
        ]
        ds = mapped[0].union(*mapped[1:]) if len(mapped) > 1 else mapped[0]
        parts = [
            bt for bt in ds.iter_batches(batch_size=None, batch_format="pyarrow") if bt.num_rows
        ]
        return pa.concat_tables(parts) if parts else schema.empty_table()

    def candidates(k: pa.Table) -> pa.Table:
        c = _count(k)
        return c.filter(pc.greater_equal(c[_N], thresh)).drop_columns([_N])

    counted = key_schema.append(pa.field(_N, pa.int64()))
    cand = run(candidates, key_schema)
    if not cand.num_rows:
        return counted.empty_table()
    on = key_schema.names[:1]
    cand_ref = ray.put(cand.group_by(on).aggregate([]))

    def exact_counts(k: pa.Table) -> pa.Table:
        return _count(k.join(ray.get(cand_ref), keys=on, join_type="left semi"))

    partial = run(exact_counts, counted)
    keys = key_schema.names
    tot = partial.group_by(keys).aggregate([(_N, "sum")]).rename_columns(keys + [_N])
    hot = tot.filter(pc.greater(tot[_N], floor)).group_by(on).aggregate([])
    return tot.join(hot, keys=on, join_type="left semi")
