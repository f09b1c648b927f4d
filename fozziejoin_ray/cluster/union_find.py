"""Distributed transitive clustering: connected components over the
match-edge table.

Two paths:

- **driver union-find** for edge sets up to ``driver_threshold`` rows —
  the candidate set after blocking + thresholding is usually tiny
  relative to the corpus, and one exact pass beats several shuffles
  ("union-find on the driver only if the candidate set is provably
  small").
- **alternating large-star / small-star rounds** (Kiveris et al.,
  "Connected Components in MapReduce and Beyond"; cf. BTS, ICDE 2024,
  PAPERS.md) for big graphs. Each half-round is ONE stateless
  ``map_batches`` (emit directed pairs) plus ONE ``exchange()`` on the
  center that rewires neighbors to the group minimum — no joins
  anywhere, so every round is a single all-to-all exchange. Edges only
  ever point to smaller labels, rounds are idempotent under retry, and
  the edge multiset reaches a fixpoint (detected by an order-insensitive
  checksum, no comparison join) in O(log^2 n) rounds; the fixpoint is a
  forest of stars child -> component-minimum.

The reference has no clustering operator — this is the extension
mandated by BASELINE.json's north_star (transitive entity clusters over
fozziejoin-semantics match edges).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..exchange import exchange

NODE = "node"
CLUSTER = "cluster"


def _min_label_cc(ea: np.ndarray, eb: np.ndarray, n: int) -> np.ndarray:
    """Exact connected-component labels for an integer-coded edge list —
    fully vectorized supervertex contraction (Shiloach-Vishkin style):
    each round pull the neighbor minimum onto every node, pointer-jump
    the label forest to its roots, then CONTRACT the edge list onto the
    root graph and dedupe. The edge set shrinks geometrically, so the
    whole thing converges in O(log n) rounds of compiled numpy — no
    per-edge python. Returns, per node code, the position (== value,
    codes are 0..n-1) of its component's minimum code."""
    total = np.arange(n, dtype=np.int64)
    ea = np.asarray(ea, dtype=np.int64)
    eb = np.asarray(eb, dtype=np.int64)
    live = ea != eb
    ea, eb = ea[live], eb[live]
    while len(ea):
        lbl = np.arange(n, dtype=np.int64)
        np.minimum.at(lbl, ea, eb)
        np.minimum.at(lbl, eb, ea)
        while True:  # jump the (shallow) label forest to idempotence
            l2 = lbl[lbl]
            if np.array_equal(l2, lbl):
                break
            lbl = l2
        total = lbl[total]
        ea, eb = lbl[ea], lbl[eb]
        live = ea != eb
        ea, eb = ea[live], eb[live]
        if len(ea):
            lo = np.minimum(ea, eb)
            hi = np.maximum(ea, eb)
            if n < 3_000_000_000:  # lo*n+hi stays inside int64
                packed = np.unique(lo * n + hi)
                ea, eb = packed // n, packed % n
            else:
                idx = np.lexsort((hi, lo))
                lo, hi = lo[idx], hi[idx]
                keep = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
                ea, eb = lo[keep], hi[keep]
    return total


def component_min(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(nodes, reps)`` of the edge list ``a[i] - b[i]``: every distinct
    endpoint and the min node VALUE of its connected component."""
    import pandas as pd

    codes, nodes = pd.factorize(np.concatenate([a, b]), sort=False)
    lbl = _min_label_cc(codes[: len(a)], codes[len(a):], len(nodes))
    # labels are positions of component minima; nodes are not sorted, so
    # position-min != value-min
    reps = pd.Series(nodes).groupby(lbl, sort=False).transform("min").to_numpy()
    return np.asarray(nodes), reps


def _common_node_type(at: pa.DataType, bt: pa.DataType) -> pa.DataType:
    """Promotion rule for mismatched edge-endpoint types. Integer pairs
    promote to int64 unless either side is uint64 (values above 2^63
    would make the cast raise); every other mix — float-with-int
    included — promotes to STRING: an int->float64 cast silently merges
    distinct ids above 2^53 (ADVICE r4), and node identity must never
    be lossy."""
    if at == bt:
        return at
    if (
        pa.types.is_integer(at)
        and pa.types.is_integer(bt)
        and at != pa.uint64()
        and bt != pa.uint64()
    ):
        return pa.int64()
    return pa.string()


def _normalize_edge_table(t: pa.Table, a_col: str, b_col: str) -> pa.Table:
    """Engine NA rule applied to edges: a null endpoint never asserts
    connectivity, but the non-null endpoint must still surface as a
    node — rewrite (x, null) / (null, y) to self-loops (x, x) / (y, y)
    and drop (null, null) rows. Output columns are always (a, b), both
    non-null. Without this, pd.factorize's -1 code for None corrupts
    the driver kernel's indexing, and null-mask filters silently drop
    the rows on the distributed path."""
    import pyarrow.compute as pc

    a, b = t[a_col], t[b_col]
    if a.type != b.type:
        # promote to a common node type: the self-loop rewrite tables
        # put src values in the b slot (and vice versa), so mismatched
        # endpoint types would make the concat below raise
        tgt = _common_node_type(a.type, b.type)
        a, b = a.cast(tgt), b.cast(tgt)
    av, bv = pc.is_valid(a), pc.is_valid(b)
    out = [pa.table({"a": a, "b": b}).filter(pc.and_(av, bv))]
    a_only = pc.and_(av, pc.invert(bv))
    if pc.any(a_only).as_py():
        out.append(pa.table({"a": a, "b": a}).filter(a_only))
    b_only = pc.and_(bv, pc.invert(av))
    if pc.any(b_only).as_py():
        out.append(pa.table({"a": b, "b": b}).filter(b_only))
    return pa.concat_tables(out)


def _driver_union_find_batches(batches, src: str, dst: str, node_type=None) -> "rd.Dataset":
    """Exact connected components on the driver for small edge sets —
    factorize both endpoint columns to int codes, then run the
    vectorized min-label propagation (:func:`_min_label_cc`)."""
    tables = [
        nt
        for nt in (_normalize_edge_table(t, src, dst) for t in batches if t.num_rows)
        if nt.num_rows
    ]
    if not tables:
        return rd.from_arrow(
            pa.table({NODE: pa.array([], node_type), CLUSTER: pa.array([], node_type)})
        )
    t = pa.concat_tables(tables)
    nodes, reps = component_min(
        t["a"].combine_chunks().to_numpy(zero_copy_only=False),
        t["b"].combine_chunks().to_numpy(zero_copy_only=False),
    )
    return rd.from_arrow(
        pa.table({NODE: pa.array(nodes, type=node_type), CLUSTER: pa.array(reps, type=node_type)})
    )


def _contract_round(edges: rd.Dataset, num_partitions: int) -> rd.Dataset:
    """Parallel graph contraction (the sparsify step of two-phase CC):
    hash-partition edges on ``a``, run an exact union-find inside each
    partition, and emit the partition-local star edges (node -> local
    root). The union of the per-partition stars is connectivity-equivalent
    to the input, with ~|distinct nodes per partition| rows — typically a
    large reduction for dup/match graphs — and every node still appears,
    so downstream labeling covers the full node set."""
    import pandas as pd

    def contract_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"a": pd.Series([], dtype=object), "b": pd.Series([], dtype=object)}
            )
        # the min VALUE per component is the star center, so labels stay
        # deterministic across partitionings
        nodes, reps = component_min(df["a"].to_numpy(), df["b"].to_numpy())
        keep = nodes != reps
        return pd.DataFrame({"a": nodes[keep], "b": reps[keep]})

    return exchange(edges, "a", num_partitions, contract_part, batch_format="pandas")


def _star_round(edges: rd.Dataset, kind: str, num_partitions: int) -> rd.Dataset:
    """One large- or small-star half-round. ``edges`` columns (a, b).

    large: group neighbors around each center u (both directions);
           attach every neighbor v > u to m = min(N(u) ∪ {u}).
    small: group smaller neighbors around each center (key = max of the
           edge); attach every member of N ∪ {u} except m to m.

    Centers are per-node (millions of tiny groups), so the rewiring runs
    per hash-partition with vectorized pandas groupby-transforms rather
    than per-group UDF dispatch.
    """
    import pandas as pd

    def emit(t: pa.Table) -> pa.Table:
        a = t["a"]
        b = t["b"]
        if kind == "large":
            u = pa.concat_arrays([a.combine_chunks(), b.combine_chunks()])
            v = pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])
        else:
            an = a.to_numpy(zero_copy_only=False)
            bn = b.to_numpy(zero_copy_only=False)
            mx = np.where(an > bn, an, bn)
            mn = np.where(an > bn, bn, an)
            u = pa.array(mx, type=a.type)
            v = pa.array(mn, type=a.type)
        return pa.table({"u": u, "v": v})

    def star_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"a": pd.Series([], dtype=object), "b": pd.Series([], dtype=object)}
            )
        mv = df.groupby("u", sort=False)["v"].transform("min")
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        m = np.where(mv.to_numpy() < u, mv.to_numpy(), u)
        if kind == "large":
            mask = v > u
            return pd.DataFrame({"a": v[mask], "b": m[mask]})
        # small star: every neighbor v (< u by construction) rewires to m,
        # except m itself; the center u also rewires to m (when u != m)
        mask = v != m
        out_a = [v[mask]]
        out_b = [m[mask]]
        firsts = ~pd.Series(u).duplicated().to_numpy()
        cmask = firsts & (u != m)
        out_a.append(u[cmask])
        out_b.append(m[cmask])
        return pd.DataFrame({"a": np.concatenate(out_a), "b": np.concatenate(out_b)})

    return exchange(
        edges.map_batches(emit, batch_format="pyarrow"),
        "u",
        num_partitions,
        star_part,
        batch_format="pandas",
    )


def _edges_checksum(edges: rd.Dataset) -> int:
    import pandas as pd

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"c": pa.array([0], pa.int64())})
        h = pd.util.hash_array(
            t.column("a").to_numpy(zero_copy_only=False), categorize=False
        ) * np.uint64(1099511628211) ^ pd.util.hash_array(
            t.column("b").to_numpy(zero_copy_only=False), categorize=False
        )
        s = int(h.astype("uint64").sum()) & ((1 << 40) - 1)
        return pa.table({"c": pa.array([s], pa.int64())})

    return edges.map_batches(fn, batch_format="pyarrow").sum("c")


def connected_components(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    max_iters: int = 25,
    num_partitions: int = 32,
    driver_threshold: int = 2_000_000,
    contract_rounds: int = 3,
) -> rd.Dataset:
    """(node, cluster) with cluster = min node id of the component.

    Every node appearing in any edge gets one output row; isolated
    nodes are the caller's concern (left-join + coalesce to self).

    Execution: edge sets up to ``driver_threshold`` rows run the exact
    vectorized supervertex-contraction kernel on the driver (the default
    2M covers a ~1.5M-edge graph in ~0.3s and ~100MB of driver heap —
    see tools/bench_union_find.py). Larger graphs first go through up to
    ``contract_rounds`` parallel contraction rounds (:func:`_contract_round`
    — per-partition union-find that replaces each partition's edges with
    its local star forest), which typically shrinks the edge set to
    ~|nodes| rows; if the contracted graph fits the driver threshold the
    residual is resolved there, otherwise the alternating large/small-star
    rounds finish fully distributed. The serial step therefore only ever
    touches an already-contracted graph, keeping the driver off the
    scaling-critical path.
    """
    edges = edges.materialize()
    esch = edges.schema()
    if esch is not None:
        by_name = dict(zip(esch.names, esch.types))
        st_, dt_ = by_name[src], by_name[dst]
        if isinstance(st_, pa.DataType) and isinstance(dt_, pa.DataType):
            # mismatched endpoint types promote inside
            # _normalize_edge_table — the output node type must match
            node_type = _common_node_type(st_, dt_)
        else:
            node_type = None  # pandas-backed blocks report numpy types
    else:
        node_type = None
    n = edges.count()
    if driver_threshold is not None and n <= driver_threshold:
        return _driver_union_find_batches(
            edges.select_columns([src, dst]).iter_batches(batch_size=None, batch_format="pyarrow"),
            src,
            dst,
            node_type,
        )

    # self-loop edges (a == b, including the (x, x) rewrites of
    # null-partner edges from _normalize_edge_table) would silently
    # vanish inside the contraction/star rounds (their node never
    # reaches the label stage, unlike in the driver kernel, which keeps
    # every factorized node); split them out here and re-union them at
    # each exit so "every node appearing in any edge gets one output
    # row" holds on both paths. Both streams filter the already-
    # materialized input — no extra full-edge materialization on this
    # (flagship) path; `loops` stays lazy because match/dup producers
    # never emit self-loops.
    def split(keep_loops: bool):
        def fn(t: pa.Table, s=src, d=dst) -> pa.Table:
            ab = _normalize_edge_table(t, s, d)
            eq = pa.compute.equal(ab["a"], ab["b"])  # never null post-normalize
            return ab.filter(eq if keep_loops else pa.compute.invert(eq))

        return fn

    loops = edges.map_batches(split(True), batch_format="pyarrow")
    e = edges.map_batches(split(False), batch_format="pyarrow").materialize()

    def _with_loops(batches):
        yield from batches
        yield from loops.iter_batches(batch_size=None, batch_format="pyarrow")

    # recount on the REAL (non-loop) edge set: the pre-split count gates
    # the driver fast path but would skew the contraction-stall ratio
    # (and a loop-heavy set may now fit the driver threshold outright)
    n = e.count()
    if driver_threshold is not None and n <= driver_threshold:
        return _driver_union_find_batches(
            _with_loops(e.iter_batches(batch_size=None, batch_format="pyarrow")),
            "a",
            "b",
            node_type,
        )

    for _ in range(max(0, contract_rounds)):
        e = _contract_round(e, num_partitions)
        n2 = e.count()
        if driver_threshold is not None and n2 <= driver_threshold:
            return _driver_union_find_batches(
                _with_loops(e.iter_batches(batch_size=None, batch_format="pyarrow")),
                "a",
                "b",
                node_type,
            )
        if n2 >= 0.7 * n:  # contraction stalled; fall through to star rounds
            break
        n = n2
    prev = _edges_checksum(e)
    for _ in range(max_iters):
        e = _star_round(e, "large", num_partitions)
        e = _star_round(e, "small", num_partitions)
        chk = _edges_checksum(e)
        if chk == prev:
            break
        prev = chk

    # fixpoint is a star forest (child -> min); emit labels without a join
    def labels_emit(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        return pa.table(
            {
                NODE: pa.concat_arrays([a, b]),
                CLUSTER: pa.concat_arrays([b, b]),
            }
        )

    # loop rows (x, x) re-enter here: labels_emit yields node=x,
    # cluster=x, and the min() groupby keeps any smaller real label
    lab = (
        e.union(loops)
        .map_batches(labels_emit, batch_format="pyarrow")
        .groupby(NODE)
        .min(CLUSTER)
    )
    return lab.map_batches(
        lambda t: pa.table({NODE: t[NODE], CLUSTER: t[f"min({CLUSTER})"]}),
        batch_format="pyarrow",
    )
