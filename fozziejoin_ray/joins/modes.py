"""Join-mode assembly from the match-edge table.

Distributed analog of /root/reference/src/rust/src/merge/ — the reference
slices in-memory frames by matched row ids (inner.rs, left.rs, right.rs,
full.rs, anti.rs:5-11, semi.rs:5-12); here every mode is built from
equality joins (joins/hashjoin.py) against the edge table. Each of them
broadcasts a side that is materialized and small (the edges, a small
input) and shuffles only when both sides are large or lazy; a small
materialized input stays materialized through its ``.x``/``.y`` rename
so it stays broadcastable:

- inner: edges ⋈ left ⋈ right, ``.x``/``.y`` suffixes on name collisions
  (inner.rs:7-46), distance column(s) appended;
- semi:  left ⋉ edges.lid — one output row per matched left row;
- anti:  left ▷ edges.lid — left rows with no match, null keys included;
- left/right/full: inner ∪ the unmatched side(s) padded with nulls and
  NaN distances (left.rs:57-76, full.rs:31-60). These modes read the
  edge set 2–3 times, and Ray Data shares no common subplan, so the
  edges are materialized once first — as the reference computes its
  matched id pairs once and slices every mode from them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .hashjoin import broadcast_bytes, hash_join

LID = "__fj_lid"
RID = "__fj_rid"


def normalize_by(by, left: rd.Dataset, right: rd.Dataset) -> list[tuple[str, str]]:
    """Resolve ``by`` to an ordered list of (left_col, right_col) pairs,
    mirroring /root/reference/R/rutils.R:20-49: None -> shared columns;
    str / list of str -> same name both sides; dict -> left->right map."""
    lschema = left.schema()
    rschema = right.schema()
    if lschema is None or rschema is None:
        side = "left" if lschema is None else "right"
        raise ValueError(
            f"the {side} dataset has no observable schema (it is empty with no "
            "schema metadata); fuzzy joins need named key columns on both sides"
        )
    lnames = lschema.names
    rnames = rschema.names
    if by is None:
        pairs = [(c, c) for c in lnames if c in set(rnames)]
        if not pairs:
            raise ValueError("by=None but the tables share no column names")
    elif isinstance(by, str):
        pairs = [(by, by)]
    elif isinstance(by, dict):
        pairs = list(by.items())
    elif isinstance(by, (list, tuple)):
        pairs = [(c, c) if isinstance(c, str) else (c[0], c[1]) for c in by]
    else:
        raise TypeError(f"unsupported by: {by!r}")
    for l, r in pairs:
        if l not in lnames:
            raise KeyError(f"left join column {l!r} not found (have {lnames})")
        if r not in rnames:
            raise KeyError(f"right join column {r!r} not found (have {rnames})")
    return pairs


def _suffix_plan(left: rd.Dataset, right: rd.Dataset):
    lnames = list(left.schema().names)
    rnames = list(right.schema().names)
    overlap = set(lnames) & set(rnames)
    lmap = {c: (c + ".x" if c in overlap else c) for c in lnames}
    rmap = {c: (c + ".y" if c in overlap else c) for c in rnames}
    return lmap, rmap


def _rename(ds: rd.Dataset, mapping: dict[str, str]) -> rd.Dataset:
    if all(k == v for k, v in mapping.items()):
        return ds
    out = ds.rename_columns(mapping)
    # a rename makes a lazy plan; keep a broadcastable side broadcastable
    return out.materialize() if broadcast_bytes(ds) is not None else out


def _project(ds: rd.Dataset, cols: list[str], rename: dict[str, str] | None = None) -> rd.Dataset:
    """Projection/rename as an opaque map_batches (keeps Ray's projection
    pushdown from interfering with upstream shuffle ops)."""
    rename = rename or {}

    def fn(t: pa.Table) -> pa.Table:
        if rename:
            t = t.rename_columns([rename.get(c, c) for c in t.column_names])
        return t.select(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def _pad_columns(ds: rd.Dataset, schema: pa.Schema, dist_cols: list[str]) -> rd.Dataset:
    def pad(t: pa.Table) -> pa.Table:
        for field in schema:
            t = t.append_column(field.name, pa.nulls(t.num_rows, type=field.type))
        for d in dist_cols:
            t = t.append_column(d, pa.array(np.full(t.num_rows, np.nan)))
        return t

    return ds.map_batches(pad, batch_format="pyarrow")


def _schema_of(ds: rd.Dataset, names: list[str]) -> pa.Schema:
    sch = ds.schema()
    base = pa.schema(list(zip(sch.names, sch.types)))
    return pa.schema([base.field(n) for n in names])


def assemble(
    left: rd.Dataset,
    right: rd.Dataset,
    edges: rd.Dataset,
    *,
    how: str,
    lid: str,
    rid: str,
    distance_cols: list[str],
    num_partitions: int = 32,
    drop_ids: list[str] = (),
    n_dist: int | None = None,
) -> rd.Dataset:
    lmap, rmap = _suffix_plan(left, right)
    lid_r, rid_r = lmap[lid], rmap[rid]

    lschema = _schema_of(left, list(left.schema().names))
    rschema = _schema_of(right, list(right.schema().names))

    # user-visible output columns, reference order: left ++ right ++ distances
    keep_l = [lmap[c] for c in lschema.names if c not in drop_ids]
    keep_r = [rmap[c] for c in rschema.names if c not in drop_ids]

    ndist = n_dist if n_dist is not None else len(distance_cols)
    edge_dist = [f"__fj_d{i}" for i in range(ndist)]
    if distance_cols:
        assert len(distance_cols) == ndist, (distance_cols, ndist)

    # edge schema is known a priori (ids typed like the source id columns),
    # so assembly works even when the edge set is empty and Ray reports no
    # schema for it
    edge_schema = pa.schema(
        [(LID, lschema.field(lid).type), (RID, rschema.field(rid).type)]
        + [(d, pa.float64()) for d in edge_dist]
    )

    if how in ("semi", "anti"):
        # semi/anti output the left frame as-is (no right columns, so no
        # suffixing), cf. merge/semi.rs:5-12 and merge/anti.rs:5-11
        j = hash_join(
            left,
            edges,
            lid,
            LID,
            how="left_semi" if how == "semi" else "left_anti",
            num_partitions=num_partitions,
            left_schema=lschema,
            right_schema=edge_schema,
        )
        return _project(j, [c for c in lschema.names if c not in drop_ids])

    left_r = _rename(left, lmap)
    right_r = _rename(right, rmap)

    def renamed_schema(schema: pa.Schema, mapping: dict[str, str]) -> pa.Schema:
        return pa.schema([(mapping[f.name], f.type) for f in schema])

    lschema_r = renamed_schema(lschema, lmap)
    rschema_r = renamed_schema(rschema, rmap)

    def finish_inner(edges: rd.Dataset) -> rd.Dataset:
        j = hash_join(
            edges,
            left_r,
            LID,
            lid_r,
            how="inner",
            num_partitions=num_partitions,
            left_schema=edge_schema,
            right_schema=lschema_r,
        )
        j_schema = pa.schema(
            list(edge_schema) + [f for f in lschema_r if f.name != lid_r]
        )
        j = hash_join(
            j,
            right_r,
            RID,
            rid_r,
            how="inner",
            num_partitions=num_partitions,
            left_schema=j_schema,
            right_schema=rschema_r,
        )
        # hash_join coalesces each join key under the edge-side name
        # (LID/RID); when the ids are real user columns (left_id/right_id
        # passed) they must reappear under their own names in the output
        return _project(
            j,
            keep_l + keep_r + list(distance_cols),
            {**dict(zip(edge_dist, distance_cols)), LID: lid_r, RID: rid_r},
        )

    if how == "inner":
        return finish_inner(edges)

    if how not in ("left", "right", "full"):
        raise ValueError(f"unknown join mode {how!r}")
    # left/right/full read the edges 2-3 times (inner join, anti-join
    # per padded side): run the edge plan once, not once per reader. The
    # anti-joins take the materialized edges whole (hash_join narrows
    # them to the key), so a small edge set broadcasts
    edges = edges.materialize()
    inner = finish_inner(edges)
    out_cols = keep_l + keep_r + list(distance_cols)

    def padded(side: str) -> rd.Dataset:
        if side == "left":
            un = hash_join(
                left_r,
                edges,
                lid_r,
                LID,
                how="left_anti",
                num_partitions=num_partitions,
                left_schema=lschema_r,
                right_schema=edge_schema,
            )
            un = _project(un, keep_l)
            pad_schema = pa.schema([rschema_r.field(n) for n in keep_r])
        else:
            un = hash_join(
                right_r,
                edges,
                rid_r,
                RID,
                how="left_anti",
                num_partitions=num_partitions,
                left_schema=rschema_r,
                right_schema=edge_schema,
            )
            un = _project(un, keep_r)
            pad_schema = pa.schema([lschema_r.field(n) for n in keep_l])
        padded_ds = _pad_columns(un, pad_schema, list(distance_cols))
        return _project(padded_ds, out_cols)

    if how == "left":
        return inner.union(padded("left"))
    if how == "right":
        return inner.union(padded("right"))
    return inner.union(padded("left")).union(padded("right"))
