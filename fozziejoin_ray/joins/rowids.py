"""Stable row identity for Dataset rows.

The reference works on in-memory frames where 1-based positions are free
(/root/reference/src/rust/src/utils.rs:7-20). A distributed Dataset has no
global row index, so join assembly (left/anti/semi complements) needs an
explicit unique id column. Callers that already have a key (``doc_id``)
pass it; otherwise :func:`ensure_row_id` assigns contiguous int64 ids in
dataset order — a metadata-only pass over block row counts (no data is
read on the driver), at the cost of materializing the dataset's blocks in
the object store. At 100 TB scale inputs are expected to carry their own
id column; this helper exists for reference-parity workloads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.block import BlockAccessor

ROWID = "__fj_rowid"

# a join's "auto" strategy broadcasts a right side of at most this many
# rows and runs its blocked plan above it (see exceeds_rows)
BROADCAST_ROWS = 2_000_000


@ray.remote
def _add_ids(block: pa.Table, start: int, col: str) -> pa.Table:
    return block.append_column(col, pa.array(np.arange(start, start + block.num_rows)))


def collect_columns(ds: rd.Dataset, cols: list[str]) -> pa.Table:
    """``ds``'s ``cols`` as one Arrow table on the driver, for the sides a
    plan broadcasts. ``ds`` streams once. A side without rows comes back
    as an empty table typed by its empty blocks' schemas, which may lack
    columns (null-typed then), so they only type an empty side."""
    tables = [
        BlockAccessor.for_block(ray.get(ref)).to_arrow()
        for bundle in ds.select_columns(cols).iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]
    full = [t for t in tables if t.num_rows]
    if full:
        return pa.concat_tables(full)
    types = {f.name: f.type for t in tables for f in t.schema}
    return pa.table({c: pa.array([], type=types.get(c, pa.null())) for c in cols})


def exceeds_rows(ds: rd.Dataset, threshold: int) -> bool:
    """True if ``ds`` has more than ``threshold`` rows. Runs as an
    early-stopping ``limit(threshold + 1).count()`` probe so a huge input
    only executes enough blocks to cross the line — call this on the RAW
    input BEFORE :func:`ensure_row_id` (probing the wrapped dataset would
    re-execute the id-assignment pipeline just to size it)."""
    return ds.limit(threshold + 1).count() > threshold


def assert_unique_ids(ds: rd.Dataset, id_col: str) -> None:
    """Raise ValueError if ``id_col`` carries duplicates — one
    ``groupby().count()`` probe, a sort shuffle of the single id column.
    The shuffle is a barrier: the whole column is sorted before the first
    five duplicates are taken. Opt-in insurance against the silent row
    multiplication a non-unique id causes in join assembly."""
    counts = (
        ds.select_columns([id_col])
        .groupby(id_col)
        .count()
        .map_batches(
            lambda t: t.filter(pa.compute.greater(t["count()"], 1)),
            batch_format="pyarrow",
        )
    )
    dupes = counts.limit(5).take_all()
    if dupes:
        ex = ", ".join(repr(d[id_col]) for d in dupes)
        raise ValueError(
            f"id column {id_col!r} is not unique (duplicated values include: {ex}); "
            "a non-unique id silently multiplies assembled join rows — pass a "
            "unique key or id_col=None for generated row ids"
        )


def ensure_row_id(
    ds: rd.Dataset, id_col: str | None, col: str = ROWID, validate_ids: bool = False
):
    """Return (dataset, id_column_name). If ``id_col`` is given it must be a
    unique key and is used as-is; otherwise a contiguous int64 id column is
    appended in dataset order.

    WARNING: a non-unique ``id_col`` is NOT detected by default (checking
    costs a groupby-count shuffle per join) and silently multiplies
    assembled rows — every edge touching a duplicated id joins back to
    every row carrying it. Pass ``validate_ids=True`` (one
    :func:`assert_unique_ids` probe) to pay for the check, or
    ``id_col=None`` for the materializing id-assignment pass."""
    if id_col is not None:
        if validate_ids:
            assert_unique_ids(ds, id_col)
        return ds, id_col
    ds = ds.materialize()
    refs = []
    offset = 0
    for bundle in ds.iter_internal_ref_bundles():
        for blk_ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(_add_ids.remote(blk_ref, offset, col))
            offset += meta.num_rows
    return rd.from_arrow_refs(refs), col
