"""Distributed PageRank over an edge table — the ranking sibling of the
connected-components pass (cluster/union_find.py): after transitive
clustering, rank nodes by link structure to pick canonical records, hub
documents, or crawl priorities.

Two physical strategies, same math (power iteration with damping ``d``,
uniform teleport, dangling mass redistributed uniformly — the standard
formulation):

- ``strategy="broadcast"`` (default, node set fits the object store):
  node ids are factorized ONCE into a dense [0, N) index (one distinct
  exchange), edges are re-encoded to int32 index pairs and materialized,
  and each iteration is ONE streamed pass: every edge batch scatter-adds
  ``rank[src]/deg[src]`` into a dense float64 contribution vector
  (np.add.at — vectorized, no per-edge Python), per-batch vectors reduce
  driver-side (length N each, batches-many adds). Driver memory O(N)
  floats — the same bound as kmeans' centroid reduce, fine up to ~10^8
  nodes; the RANKS are what must fit, never the edges.
- ``strategy="shuffle"`` (node set itself is web-scale): BSP over P
  co-partitioned shard actors — edges routed ONCE by hash(src) so each
  shard owns both the out-edges and the ranks of its nodes, distinct
  destination-id lists traded once at setup, then each iteration moves
  ONLY the P×P grid of pre-aggregated float contribution vectors plus
  P dangling scalars (one exchange bounded by distinct (shard, dst)
  pairs — the edge table never moves again). Replaced the r4 design of
  2-3 grace hash joins per iteration.

Float sums are partial-sum reassociations, so ranks are stable to ~1e-12
but not bit-identical across partitionings; there is deliberately no SQL
oracle (iterative float math) — pytest verifies against a brute NumPy
power iteration within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..exchange import partition_ids


def _distinct_nodes(clean_edges: rd.Dataset) -> pa.Array:
    """All distinct node ids (s ∪ d) of the CLEANED string edge table,
    one distinct pass per batch + a driver unique over the survivors
    (bounded by node cardinality)."""

    def uniq(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [t["s"].combine_chunks(), t["d"].combine_chunks()]
        )
        return pa.table({"n": pc.unique(both)})

    parts = [
        b["n"]
        for b in clean_edges.map_batches(uniq, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    ]
    if not parts:
        return pa.array([], pa.string())
    return pc.unique(pa.concat_arrays([p.combine_chunks() for p in parts]))


def pagerank(
    edges: rd.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    damping: float = 0.85,
    iters: int = 20,
    strategy: str = "broadcast",
    num_partitions: int = 32,
    round_to: int = 8,
) -> rd.Dataset:
    """PageRank over directed edges ``(src_col, dst_col)``. Returns
    ``(node, rank)`` for every node appearing in the edge table, ranks
    summing to 1 (damping teleport + uniform dangling redistribution).
    NULL endpoints are dropped (an edge needs both ends). Duplicate
    edges count once each (multigraph semantics, matching the classic
    formulation over a link multiset). Node ids are returned as STRINGS
    (cast once so the src ∪ dst union is type-stable)."""
    if strategy not in ("broadcast", "shuffle"):
        raise ValueError(f"strategy must be 'broadcast' or 'shuffle', got {strategy!r}")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    # materialize the cleaned string edge table ONCE: the node-set
    # pass, the re-encode/degree passes and every iteration all read it
    # (the same materialize-once shape the CC pipeline uses)
    def clean(t: pa.Table) -> pa.Table:
        sc = t[src_col].cast(pa.string())
        dc = t[dst_col].cast(pa.string())
        ok = pc.and_(pc.is_valid(sc), pc.is_valid(dc))
        return pa.table({"s": sc, "d": dc}).filter(ok)

    e = edges.select_columns([src_col, dst_col]).map_batches(
        clean, batch_format="pyarrow"
    ).materialize()
    if e.count() == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.string()), "rank": pa.array([], pa.float64())})
        )
    if strategy == "shuffle":
        return _pagerank_shuffle(e, damping, iters, num_partitions, round_to)

    # ---- broadcast strategy: dense [0, N) re-encoding, one pass/iter
    import pandas as pd

    nodes = _distinct_nodes(e)
    n = len(nodes)
    idx = pd.Index(nodes.to_pandas())
    nref = ray.put(idx)

    def encode(t: pa.Table) -> pa.Table:
        index = ray.get(nref)
        si = index.get_indexer(t["s"].to_pandas()).astype(np.int64)
        di = index.get_indexer(t["d"].to_pandas()).astype(np.int64)
        return pa.table({"si": pa.array(si), "di": pa.array(di)})

    enc = e.map_batches(encode, batch_format="pyarrow").materialize()

    # out-degree: one streamed bincount reduce
    deg = np.zeros(n, dtype=np.int64)
    for b in enc.iter_batches(batch_size=None, batch_format="pyarrow"):
        deg += np.bincount(b["si"].to_numpy(zero_copy_only=False), minlength=n)

    rank = np.full(n, 1.0 / n, dtype=np.float64)
    safe_deg = np.maximum(deg, 1)
    for _ in range(iters):
        w = rank / safe_deg
        wref = ray.put(w)

        def contrib(t: pa.Table) -> pa.Table:
            wv = ray.get(wref)
            out = np.zeros(len(wv), dtype=np.float64)
            np.add.at(
                out,
                t["di"].to_numpy(zero_copy_only=False),
                wv[t["si"].to_numpy(zero_copy_only=False)],
            )
            return pa.table({"c": pa.array([out])})

        total = np.zeros(n, dtype=np.float64)
        for b in enc.map_batches(contrib, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        ):
            total += (
                b["c"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
                .reshape(-1, n)
                .sum(axis=0)
            )
        dangling = rank[deg == 0].sum()
        rank = (1.0 - damping) / n + damping * (total + dangling / n)

    return rd.from_arrow(
        pa.table({"node": nodes, "rank": pa.array(np.round(rank, round_to))})
    )


@ray.remote
class _PRPartition:
    """One co-partitioned PageRank shard: owns all out-edges of nodes
    with ``hash(node) % P == pid`` AND the ranks of those nodes, so a
    full iteration needs exactly ONE exchange — the pre-aggregated
    per-destination contribution vectors (pure float arrays, aligned to
    id lists traded once at setup). Edge data never moves after
    ingest."""

    def __init__(self, pid: int, nparts: int):
        self.pid, self.P = pid, nparts
        self._edges: pa.Table | None = None

    def set_edges(self, t: pa.Table) -> int:
        """Idempotent ingest: the routing exchange delivers this
        shard's ENTIRE edge group in one call, so a retried routing
        task re-sends identical content and the overwrite is a no-op —
        no double-ingest under Ray Data task retries / lineage
        re-execution (round-5 review).

        Memory bound: that one call is the whole group, about E/P rows
        for E edges over P shards. The routing task that builds the
        group, the object store copy it sends and this actor each hold
        all of it at once, so E/P rows must fit in one worker's and one
        actor's memory; raise ``num_partitions`` to shrink it."""
        self._edges = t
        return t.num_rows

    def local_index(self):
        """Encode the edge shard: factorize srcs (deg via bincount),
        group edges by destination OWNER, factorize dsts within each
        owner group. Returns the P distinct-dst-id lists (one per
        owner) — the only id exchange; later iterations trade only
        float vectors aligned to these lists."""
        import pandas as pd

        if self._edges is not None and self._edges.num_rows:
            t = self._edges
            s = t["s"].combine_chunks().to_numpy(zero_copy_only=False)
            d = t["d"].combine_chunks().to_numpy(zero_copy_only=False)
            owner = partition_ids([t["d"]], self.P)
        else:
            s = np.array([], dtype=object)
            d = np.array([], dtype=object)
            owner = np.zeros(0, np.int64)
        self._edges = None  # raw table no longer needed
        self.src_code, self.src_ids = pd.factorize(s, sort=False)
        self.deg = np.bincount(self.src_code, minlength=len(self.src_ids)).astype(
            np.float64
        )
        order = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(owner[order], np.arange(self.P + 1))
        self.grp_src = []  # per-owner: src codes of its edges
        self.grp_dst = []  # per-owner: dst codes into dst_ids[j]
        self.grp_size = []  # per-owner: distinct dst count
        dst_lists = []
        for j in range(self.P):
            sl = order[bounds[j] : bounds[j + 1]]
            codes, ids = pd.factorize(d[sl], sort=False)
            self.grp_src.append(self.src_code[sl])
            self.grp_dst.append(codes)
            self.grp_size.append(len(ids))
            dst_lists.append(np.asarray(ids, dtype=object))
        return dst_lists if self.P > 1 else dst_lists[0]

    def register_nodes(self, *incoming) -> int:
        """Own every node in src_ids ∪ (dst lists other shards routed
        here); precompute position maps so incoming contribution
        vectors scatter by integer index forever after. Every owned
        node hashes to this shard, so no node is owned twice and the
        shards' counts sum to the node count."""
        import pandas as pd

        incoming = [
            np.asarray(v[0] if isinstance(v, list) and self.P == 1 else v, dtype=object)
            for v in incoming
        ]
        allids = np.concatenate([np.asarray(self.src_ids, dtype=object)] + incoming)
        codes, uniq = pd.factorize(allids, sort=False)
        self.node_ids = np.asarray(uniq, dtype=object)
        owner = partition_ids([pa.array(self.node_ids, pa.string())], self.P)
        assert (owner == self.pid).all(), f"shard {self.pid} holds nodes of another shard"
        index = pd.Index(self.node_ids)
        self.src_pos = index.get_indexer(self.src_ids).astype(np.int64)
        self.maps = [index.get_indexer(v).astype(np.int64) for v in incoming]
        self.has_out = np.zeros(len(self.node_ids), dtype=bool)
        self.has_out[self.src_pos] = True
        return len(self.node_ids)

    def init_ranks(self, n: int) -> float:
        self.n = n
        self.rank = np.full(len(self.node_ids), 1.0 / n, dtype=np.float64)
        return float(self.rank[~self.has_out].sum())

    def contribs(self):
        """Per-destination-owner contribution vectors from the CURRENT
        ranks — vec[j] aligns to the dst id list traded at setup
        (factorize codes are dense, so max code + 1 == list length)."""
        ws = self.rank[self.src_pos] / np.maximum(self.deg, 1.0)
        out = []
        for j in range(self.P):
            vec = np.zeros(self.grp_size[j], dtype=np.float64)
            np.add.at(vec, self.grp_dst[j], ws[self.grp_src[j]])
            out.append(vec)
        return out if self.P > 1 else out[0]

    def apply(self, add_term: float, damping: float, *vecs) -> float:
        """rank_new = add_term + damping * contrib; returns the shard's
        new dangling mass (ranks of owned nodes with no out-edges)."""
        contrib = np.zeros(len(self.node_ids), dtype=np.float64)
        for k, v in enumerate(vecs):
            v = np.asarray(v[0] if isinstance(v, list) and self.P == 1 else v)
            if len(v):
                contrib[self.maps[k]] += v  # maps[k] aligns 1:1 with v
        self.rank = add_term + damping * contrib
        return float(self.rank[~self.has_out].sum())

    def result(self, round_to: int) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(self.node_ids, pa.string()),
                "rank": pa.array(np.round(self.rank, round_to)),
            }
        )


def _pagerank_shuffle(e, damping, iters, num_partitions, round_to) -> rd.Dataset:
    """Web-scale path: BSP over co-partitioned shard actors.

    Setup (once): edges stream through one routing pass into P actors
    by hash(src) — so each shard owns the full out-edge list AND the
    rank of every node it is responsible for — then one id exchange
    trades the distinct destination lists and builds integer scatter
    maps. Per ITERATION the only data movement is the P×P grid of
    pre-aggregated float contribution vectors (one per shard pair,
    already summed per destination) plus P dangling scalars: a single
    exchange whose volume is bounded by the distinct (shard, dst)
    pairs, never the edge count. Replaces the r4 design of 2-3 grace
    hash joins per iteration (~21 s/iter fixed cost on the sf0.1
    bench graph; see BASELINE.md round-5 A/B).

    Driver state: O(P) scalars/refs — the node count is the sum of the
    shards' owned-node counts, and ranks stay sharded, matching the
    strategy's reason to exist (node sets beyond the broadcast path's
    O(N) driver vector)."""
    P = max(1, int(num_partitions))
    # num_cpus=0: shard actors are idle between BSP phases; reserving P
    # full CPUs would deadlock the ingest Dataset tasks on small boxes.
    # On a real cluster give them dedicated resources via scheduling
    # strategy instead.
    actors = [_PRPartition.options(num_cpus=0).remote(i, P) for i in range(P)]

    # route by hash(src) through ONE owner-keyed exchange; each shard's
    # whole group is then delivered by a single idempotent set_edges
    # slot write, so Ray Data task retries / lineage re-execution
    # cannot double-ingest (a retried delivery re-sends identical
    # content and overwrites the same slot).
    def tag_owner(t: pa.Table) -> pa.Table:
        return t.append_column("__own", pa.array(partition_ids([t["s"]], P)))

    def deliver(t: pa.Table) -> pa.Table:
        j = int(t["__own"][0].as_py())
        ray.get(actors[j].set_edges.remote(t.drop_columns(["__own"])))
        return pa.table({"ok": pa.array([j], pa.int64())})

    e.map_batches(tag_owner, batch_format="pyarrow").groupby("__own").map_groups(
        deliver, batch_format="pyarrow"
    ).count()

    if P > 1:
        lists = [a.local_index.options(num_returns=P).remote() for a in actors]
        counts = [
            actors[j].register_nodes.remote(*[lists[k][j] for k in range(P)])
            for j in range(P)
        ]
    else:
        lists = [actors[0].local_index.remote()]
        counts = [actors[0].register_nodes.remote(lists[0])]
    n = sum(ray.get(counts))
    dangling = sum(ray.get([a.init_ranks.remote(n) for a in actors]))
    for _ in range(iters):
        add_term = (1.0 - damping) / n + damping * dangling / n
        if P > 1:
            grid = [a.contribs.options(num_returns=P).remote() for a in actors]
            newd = [
                actors[j].apply.remote(
                    add_term, damping, *[grid[k][j] for k in range(P)]
                )
                for j in range(P)
            ]
        else:
            vec = actors[0].contribs.remote()
            newd = [actors[0].apply.remote(add_term, damping, vec)]
        dangling = sum(ray.get(newd))

    return rd.from_arrow_refs([a.result.remote(round_to) for a in actors])
