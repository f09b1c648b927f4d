"""Similarity search over an embedding column (``list<float>``).

- ``ann_topk``: brute-force cosine top-k — the query matrix is
  normalized once, ``ray.put`` once, and every batch does one
  numpy matmul against it (zero-copy Arrow -> numpy); per-batch local
  top-k candidates are merged with one small groupby. Exact.
- ``ivf_topk``: the scale path — vectors are bucketed by nearest
  centroid (deterministic seeded centroid sample), queries probe the
  ``nprobe`` nearest centroid buckets only, so the matmul touches a
  fraction of the data. Approximate; recall grows with nprobe.
- ``embedding_dup``: near-duplicate pairs by cosine >= threshold,
  brute-force against a broadcast matrix (both sides are the same
  table).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..exchange import exchange


def _embed_matrix(t: pa.Table, col: str, dtype=np.float32) -> np.ndarray:
    arr = t.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(dtype)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class _TopKScorer:
    def __init__(self, qref, cfg):
        self.Q = ray.get(qref)  # (nq, d) normalized
        self.qids = cfg["qids"]
        self.cfg = cfg

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        X = _normalize(_embed_matrix(t, cfg["embed_col"], cfg.get("dtype", np.float32)))
        sims = X @ self.Q.T  # (n, nq)
        k = min(cfg["k"], len(X))
        ids = t.column(cfg["id_col"]).to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            top = np.argpartition(-col, k - 1)[:k] if k < len(col) else np.arange(len(col))
            for i in top:
                out_q.append(self.qids[qi])
                out_v.append(ids[i])
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q),
                "vec_id": pa.array(out_v),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def ann_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency=(1, 8),
    dtype=np.float32,
) -> rd.Dataset:
    """Exact brute-force cosine top-k per query. Per-batch local top-k
    (map_batches) then a global per-query merge (groupby + in-group
    sort) — the classic two-level top-k. ``dtype=np.float64`` makes the
    math bit-match a double-precision oracle."""
    Q = _normalize(np.asarray(queries, dtype=dtype))
    qref = ray.put(Q)
    cfg = {"k": k, "embed_col": embed_col, "id_col": id_col, "qids": list(query_ids), "dtype": dtype}
    cand = ds.map_batches(
        _TopKScorer,
        fn_constructor_args=(qref, cfg),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )

    return cand.groupby("query_id").map_groups(_merge_topk(k), batch_format="pyarrow")


def _merge_topk(k: int):
    """Global per-query top-k with deterministic ties (cosine desc, vec_id asc)."""

    def merge(t: pa.Table) -> pa.Table:
        cos = t.column("cosine").to_numpy(zero_copy_only=False)
        vid = t.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((vid, -cos))[:k]
        out = t.take(order)
        return out.append_column("rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64)))

    return merge


def ivf_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    n_centroids: int | None = None,
    nprobe: int = 4,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 17,
    dtype=np.float32,
    centroids: np.ndarray | None = None,
) -> rd.Dataset:
    """IVF-style approximate top-k: centroids from a deterministic seeded
    sample; each vector shuffles once to its centroid bucket; each query
    probes only its ``nprobe`` nearest buckets.

    ``nprobe=n_centroids`` probes EVERY bucket, making the search
    exhaustive — identical results to :func:`ann_topk` (same scoring,
    same (cosine desc, vec_id) tie-break) with the IVF physical plan;
    that mode is what the driver's SQL oracle verifies. ``dtype=
    np.float64`` bit-matches a double-precision oracle.

    Pass ``centroids`` (an (m, dim) array, e.g. trained by
    :func:`kmeans_embeddings` on a sample) to skip the one-shot seeded
    sample — trained centroids balance the buckets and raise recall at
    the same ``nprobe``; they are L2-normalized here since bucket
    assignment is by cosine."""
    if centroids is not None:
        # None-default sentinel: only an EXPLICIT n_centroids can
        # conflict with a provided centroids array
        if n_centroids is not None and n_centroids != len(centroids):
            raise ValueError(
                f"n_centroids={n_centroids} conflicts with the provided "
                f"centroids array of {len(centroids)} rows; pass one or the other"
            )
        # cast with the caller's dtype, matching the sampled-centroid
        # path, so bucket assignment precision is mode-independent
        centroids = _normalize(np.asarray(centroids, dtype=dtype))
        n_centroids = len(centroids)
    else:
        if n_centroids is not None and n_centroids < 1:
            raise ValueError(f"n_centroids must be >= 1, got {n_centroids}")
        centroids = _sample_centroids(
            ds, embed_col, 16 if n_centroids is None else n_centroids, seed
        )
    cref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(cref)
        X = _normalize(_embed_matrix(t, embed_col))
        bucket = (X @ C.T).argmax(axis=1).astype(np.int64)
        return t.append_column("__ivf_bucket", pa.array(bucket))

    bucketed = ds.map_batches(assign, batch_format="pyarrow")

    Q = _normalize(np.asarray(queries, dtype=dtype))
    probes = np.argsort(-(Q @ centroids.T.astype(dtype)), axis=1)[:, :nprobe]  # (nq, nprobe)
    bucket_to_queries: dict[int, list[int]] = {}
    for qi, row in enumerate(probes):
        for b in row:
            bucket_to_queries.setdefault(int(b), []).append(qi)
    qref = ray.put((Q, list(query_ids), bucket_to_queries))

    def score_bucket(t: pa.Table) -> pa.Table:
        Qm, qids, b2q = ray.get(qref)
        b = int(t.column("__ivf_bucket")[0].as_py())
        qis = b2q.get(b, [])
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64() if isinstance(qids[0], int) else pa.string()),
                "vec_id": pa.array([], t.column(id_col).type),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if not qis:
            return empty
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        sims = X @ Qm[qis].T
        kk = min(k, len(X))
        out_q, out_v, out_s = [], [], []
        for col_i, qi in enumerate(qis):
            col = sims[:, col_i]
            top = np.argpartition(-col, kk - 1)[:kk] if kk < len(col) else np.arange(len(col))
            for i in top:
                out_q.append(qids[qi])
                out_v.append(ids[i])
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q),
                "vec_id": pa.array(out_v),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    cand = bucketed.groupby("__ivf_bucket").map_groups(score_bucket, batch_format="pyarrow")

    return cand.groupby("query_id").map_groups(_merge_topk(k), batch_format="pyarrow")


def _sample_centroids(
    ds: rd.Dataset, embed_col: str, n_centroids: int, seed: int
) -> np.ndarray:
    sample = ds.limit(max(n_centroids * 8, 256))
    st = pa.concat_tables(
        list(sample.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    S = _normalize(_embed_matrix(st, embed_col))
    rng = np.random.RandomState(seed)
    return _normalize(S[rng.choice(len(S), size=min(n_centroids, len(S)), replace=False)])


def embedding_dup_pairs_bucketed(
    ds: rd.Dataset,
    *,
    threshold: float = 0.95,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 64,
    assign_probes: int = 2,
    seed: int = 17,
    num_partitions: int = 32,
    dtype=np.float32,
) -> rd.Dataset:
    """Near-duplicate pairs (cosine >= threshold, a < b) WITHOUT the
    driver-side O(n^2) matmul: each vector is multi-assigned to its
    ``assign_probes`` nearest centroid buckets (raising recall for pairs
    straddling a centroid boundary), each bucket computes its local
    chunked gram matrix, and cross-bucket duplicate pairs are dropped by
    a hash-partitioned dedup. Precision is exact (in-bucket cosine is the
    real cosine); recall is approximate — a dup pair is missed only if
    the two vectors share none of their probe buckets, which high-cosine
    pairs rarely do (tested >= 0.95 vs brute force on the fixture).
    This is the 100 TB path; :func:`embedding_dup_pairs` stays as the
    exact oracle for small inputs."""
    import pandas as pd

    centroids = _sample_centroids(ds, embed_col, n_centroids, seed)
    cref = ray.put(centroids)
    probes = min(assign_probes, len(centroids))

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(cref)
        X = _normalize(_embed_matrix(t, embed_col))
        sims = X @ C.T
        top = np.argpartition(-sims, probes - 1, axis=1)[:, :probes] if probes < sims.shape[1] else np.argsort(-sims, axis=1)
        rows = np.repeat(np.arange(t.num_rows), probes)
        emb = t[embed_col].combine_chunks() if isinstance(t[embed_col], pa.ChunkedArray) else t[embed_col]
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        take = pa.array(rows)
        return pa.table(
            {
                "__eb": pa.array(top.ravel().astype(np.int64)),
                id_col: idc.take(take),
                embed_col: emb.take(take),
            }
        )

    def score_bucket(t: pa.Table) -> pa.Table:
        idt = t.schema.field(id_col).type
        empty = pa.table(
            {"a": pa.array([], idt), "b": pa.array([], idt), "cosine": pa.array([], pa.float64())}
        )
        if t.num_rows < 2:
            return empty
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        ids = (
            t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        ).to_numpy(zero_copy_only=False)
        out_a, out_b, out_s = [], [], []
        chunk = max(1, 8_000_000 // max(1, len(X)))
        for s in range(0, len(X), chunk):
            sims = X[s : s + chunk] @ X.T
            li, ri = np.nonzero(sims >= threshold)
            a = ids[li + s]
            b = ids[ri]
            m = a < b
            if m.any():
                out_a.append(a[m])
                out_b.append(b[m])
                out_s.append(sims[li, ri][m].astype(np.float64))
        if not out_a:
            return empty
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a), idt),
                "b": pa.array(np.concatenate(out_b), idt),
                "cosine": pa.array(np.concatenate(out_s)),
            }
        )

    pairs = (
        ds.select_columns([id_col, embed_col])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("__eb")
        .map_groups(score_bucket, batch_format="pyarrow")
    )

    # pairs sharing several probe buckets appear once per shared bucket
    def dedup_part(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(["a", "b"])

    return exchange(pairs, ["a", "b"], num_partitions, dedup_part, batch_format="pandas")


class _DupScorer:
    def __init__(self, mref, cfg):
        self.M, self.ids = ray.get(mref)
        self.cfg = cfg

    def __call__(self, t: pa.Table) -> pa.Table:
        cfg = self.cfg
        X = _normalize(_embed_matrix(t, cfg["embed_col"], cfg.get("dtype", np.float32)))
        xids = t.column(cfg["id_col"]).to_numpy(zero_copy_only=False)
        sims = X @ self.M.T
        li, ri = np.nonzero(sims >= cfg["threshold"])
        a = xids[li]
        b = self.ids[ri]
        m = a < b  # canonical order, self-pairs dropped
        return pa.table(
            {
                "a": pa.array(a[m]),
                "b": pa.array(b[m]),
                "cosine": pa.array(sims[li, ri][m].astype(np.float64)),
            }
        )


def embedding_dup_pairs(
    ds: rd.Dataset,
    *,
    threshold: float = 0.95,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency=(1, 8),
    dtype=np.float32,
) -> rd.Dataset:
    """All pairs with cosine >= threshold (a < b), brute-force against the
    broadcast matrix of the same table."""
    full = pa.concat_tables(
        list(ds.select_columns([id_col, embed_col]).iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    M = _normalize(_embed_matrix(full, embed_col, dtype))
    ids = full.column(id_col).to_numpy(zero_copy_only=False)
    mref = ray.put((M, ids))
    cfg = {"threshold": threshold, "embed_col": embed_col, "id_col": id_col, "dtype": dtype}
    return ds.map_batches(
        _DupScorer,
        fn_constructor_args=(mref, cfg),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )


def embedding_dedup(
    ds: rd.Dataset,
    *,
    threshold: float = 0.95,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    strategy: str = "bucketed",
    num_partitions: int = 32,
    id_type=None,
    dtype=np.float32,
    **bucket_kw,
) -> rd.Dataset:
    """Embedding near-duplicate CLASSES: (id, dup_group) where dup_group
    is the min id of the vector's connected component under
    cosine >= threshold edges — the end-to-end form of the pair
    operators, completing the dedup family (exact / minhash / simhash /
    ngram-jaccard / embedding).

    ``strategy="bucketed"`` (the scale path) generates pairs via the
    IVF multi-probe builder — no driver-side O(n^2) matmul;
    ``strategy="brute"`` broadcasts the full normalized matrix and is
    the exact oracle path. Pairs feed the distributed
    connected-components pass; singletons keep their own id."""
    from .dedup import _dup_groups

    if strategy not in ("bucketed", "brute"):
        raise ValueError(f"strategy must be 'bucketed' or 'brute', got {strategy!r}")
    # one upstream execution: the pair builder AND the final id join
    # both read this materialized projection
    proj = ds.select_columns([id_col, embed_col]).materialize()
    if strategy == "bucketed":
        pairs = embedding_dup_pairs_bucketed(
            proj, threshold=threshold, embed_col=embed_col, id_col=id_col,
            num_partitions=num_partitions, dtype=dtype, **bucket_kw,
        )
    else:
        pairs = embedding_dup_pairs(
            proj, threshold=threshold, embed_col=embed_col, id_col=id_col, dtype=dtype
        )
    return _dup_groups(proj, pairs, id_col, num_partitions, id_type)


@ray.remote
def _pair_tile_topk(left, right, k: int, cfg: dict) -> pa.Table:
    """Score one tile pair and return its local top-k under the global
    (rounded cosine DESC, a ASC, b ASC) total order. ``right=None``
    means the self tile (upper triangle only, so every unordered pair
    in the corpus is scored by exactly one task)."""
    import pyarrow.compute as pc

    id_col, embed_col, nd = cfg["id_col"], cfg["embed_col"], cfg["round_to"]
    same = right is None
    R = left if same else right
    idt = left.schema.field(id_col).type
    empty = pa.table(
        {"a": pa.array([], idt), "b": pa.array([], idt), "cosine": pa.array([], pa.float64())}
    )
    if left.num_rows == 0 or R.num_rows == 0 or (same and left.num_rows < 2):
        return empty
    XL = _normalize(_embed_matrix(left, embed_col, np.float64))
    XR = XL if same else _normalize(_embed_matrix(R, embed_col, np.float64))
    ids_l = left.column(id_col).to_numpy(zero_copy_only=False)
    ids_r = ids_l if same else R.column(id_col).to_numpy(zero_copy_only=False)
    sims = XL @ XR.T
    if same:
        li, ri = np.triu_indices(len(XL), 1)
        flat = sims[li, ri]
    else:
        flat = sims.ravel()
    if flat.shape[0] == 0:
        return empty
    # candidate prune on RAW cosine: rounding moves a value by <= q/2,
    # so every pair whose ROUNDED value ties-or-beats the k-th raw
    # pair's rounded value has raw >= kth_raw - q — the pruned set is a
    # superset of this task's top-k under the rounded total order
    quantum = 10.0 ** (-nd)
    if flat.shape[0] > k:
        kth = np.partition(flat, flat.shape[0] - k)[flat.shape[0] - k]
        sel = np.nonzero(flat >= kth - quantum)[0]
    else:
        sel = np.arange(flat.shape[0])
    if same:
        ai, bi = li[sel], ri[sel]
    else:
        ai, bi = np.divmod(sel, XR.shape[0])
    a, b = ids_l[ai], ids_r[bi]
    lt = a < b  # elementwise; tiles are disjoint and ids unique, never ==
    aa, bb = np.where(lt, a, b), np.where(lt, b, a)
    cos = pc.round(
        pa.array(flat[sel], pa.float64()), ndigits=nd, round_mode="half_towards_infinity"
    )
    t = pa.table({"a": pa.array(aa, idt), "b": pa.array(bb, idt), "cosine": cos})
    return t.sort_by(
        [("cosine", "descending"), ("a", "ascending"), ("b", "ascending")]
    ).slice(0, k)


def topk_similar_pairs(
    ds: rd.Dataset,
    k: int,
    *,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    tile_rows: int = 2048,
    round_to: int = 4,
) -> rd.Dataset:
    """EXACT global top-``k`` most-similar pairs by cosine over an
    embedding column — the all-pairs complement of the thresholded
    :func:`embedding_dup_pairs` family. Output: ``(a, b, cosine)`` with
    ``a < b``, ranked by (cosine rounded to ``round_to`` DESC, a, b) —
    a total order both this engine and the SQL oracle realize
    identically, so the k-boundary is deterministic.

    Scale shape: all N(N-1)/2 pairs are inherently touched (this is the
    exact path; IVF/LSH cover the approximate regime), so the job is
    tiled — the projection is materialized into ~``tile_rows``-row
    Arrow blocks held once in the object store, and each of the
    T(T+1)/2 tile pairs is one Ray task reading two shared zero-copy
    blocks and returning <= k rows. Raw tasks rather than Dataset ops
    because a self cross-join is not expressible in Ray Data without
    replicating every tile T times through a shuffle; the object-store
    fan-out ships each tile once per node instead. Driver holds only
    the T(T+1)/2 * k candidate rows (k is small by contract).
    """
    import math

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    proj = ds.select_columns([id_col, embed_col]).materialize()
    n = proj.count()
    tiles = proj.repartition(max(1, math.ceil(n / tile_rows))).materialize()
    refs = tiles.to_arrow_refs()
    cfg = {"id_col": id_col, "embed_col": embed_col, "round_to": round_to}
    futs = []
    for i in range(len(refs)):
        futs.append(_pair_tile_topk.remote(refs[i], None, k, cfg))
        for j in range(i + 1, len(refs)):
            futs.append(_pair_tile_topk.remote(refs[i], refs[j], k, cfg))
    merged = pa.concat_tables(ray.get(futs)).combine_chunks()
    out = merged.sort_by(
        [("cosine", "descending"), ("a", "ascending"), ("b", "ascending")]
    ).slice(0, k)
    return rd.from_arrow(out)


def kmeans_embeddings(
    ds: rd.Dataset,
    *,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 5,
    seed: int = 42,
    return_centroids: bool = False,
) -> rd.Dataset:
    """Distributed Lloyd's k-means over an embedding column: the
    canonical iterative broadcast-partial algorithm (and the proper
    trainer for IVF centroids, vs :func:`_sample_centroids`'s one-shot
    sample). Deterministic: seeded init drawn from a hash-rank UNIFORM
    sample of the dataset (pipelines/split.py uniform_sample_k —
    partitioning- and write-order-independent, unlike a dataset-prefix
    sample which degenerates on cluster-ordered corpora), float64 math,
    first-index argmin ties.

    Each iteration is ONE streaming pass: centroids broadcast via
    ``ray.put``, every batch assigns vectors vectorized (one matmul)
    and collapses to k partial (sum-vector, count) rows, the driver
    reduces k x num_batches tiny rows and updates centroids (an empty
    cluster keeps its previous centroid). After ``iters`` rounds a
    final shuffle-free pass emits ``(id_col, cluster, dist)``. Driver
    memory: k x dim floats — never vectors. No oracle: iterative
    float math is not SQL-expressible; pytest verifies exact equality
    against a brute-force NumPy Lloyd run with the same init.
    """
    if k < 1 or iters < 1:
        raise ValueError(f"k and iters must be >= 1 (got k={k}, iters={iters})")
    ds = ds.materialize()
    # init from a deterministic UNIFORM sample (hash-rank over ids), not
    # the dataset prefix: curated corpora are routinely written in
    # cluster/id order, and prefix-drawn centroids from one region of
    # the space converge Lloyd's to a degenerate local optimum
    from .split import uniform_sample_k

    sample = uniform_sample_k(ds, id_col, max(k * 8, 256), salt="kmeans-init")
    tabs = list(sample.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tabs:
        raise ValueError("kmeans_embeddings requires a non-empty dataset")
    S = _embed_matrix(pa.concat_tables(tabs), embed_col, dtype=np.float64)
    if len(S) < k:
        raise ValueError(
            f"kmeans_embeddings needs at least k={k} vectors (dataset has {len(S)})"
        )
    rng = np.random.RandomState(seed)
    cents = S[rng.choice(len(S), size=k, replace=False)].copy()

    def make_partial(cref):
        def partial(t: pa.Table) -> pa.Table:
            C = ray.get(cref)
            X = _embed_matrix(t, embed_col, dtype=np.float64)
            d2 = -2.0 * (X @ C.T) + (C * C).sum(axis=1)  # argmin-equivalent
            a = np.argmin(d2, axis=1)
            sums = np.zeros((len(C), X.shape[1]), np.float64)
            np.add.at(sums, a, X)
            cnt = np.bincount(a, minlength=len(C)).astype(np.int64)
            return pa.table(
                {
                    "c": pa.array(np.arange(len(C), dtype=np.int64)),
                    "cnt": pa.array(cnt),
                    "vsum": pa.array(list(sums)),
                }
            )

        return partial

    for _ in range(iters):
        cref = ray.put(cents)
        parts = pa.concat_tables(
            list(
                ds.map_batches(make_partial(cref), batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
        )
        cid = parts["c"].to_numpy(zero_copy_only=False)
        cnt = parts["cnt"].to_numpy(zero_copy_only=False)
        vs = np.stack(parts["vsum"].to_pylist()).astype(np.float64)
        sums = np.zeros_like(cents)
        np.add.at(sums, cid, vs)
        tot = np.zeros(len(cents), np.int64)
        np.add.at(tot, cid, cnt)
        nz = tot > 0
        cents = np.where(nz[:, None], sums / np.maximum(tot, 1)[:, None], cents)

    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(cref)
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        X = _embed_matrix(t, embed_col, dtype=np.float64)
        r = -2.0 * (X @ C.T) + (C * C).sum(axis=1)  # one matmul serves both
        a = np.argmin(r, axis=1)
        d2 = (X * X).sum(axis=1) + r[np.arange(len(a)), a]
        dist = np.sqrt(np.maximum(d2, 0.0))
        return pa.table(
            {
                id_col: idc,
                "cluster": pa.array(a.astype(np.int64)),
                "dist": pa.array(np.round(dist, 6)),
            }
        )

    out = ds.map_batches(assign, batch_format="pyarrow")
    if return_centroids:
        return out, cents  # (assignments, (k, dim) float64 array)
    return out



@ray.remote
def _semdedup_tile_edges(ta: pa.Table, tb, threshold: float, cfg: dict) -> pa.Table:
    """Spanning-forest dup edges of one tile pair (tb None = the
    diagonal tile): per-task compute/memory bounded by tile_rows^2, and
    the OUTPUT bounded by the tile's vertex count — a spanning forest
    of the local >= threshold subgraph carries full connectivity, so an
    all-duplicate giant cluster emits O(rows) edges per task instead of
    O(rows^2) pairs."""
    from ..cluster.union_find import _min_label_cc

    id_col, embed_col, dtype = cfg["id_col"], cfg["embed_col"], cfg["dtype"]
    Xa = _normalize(_embed_matrix(ta, embed_col, dtype))
    ia = ta[id_col].to_numpy(zero_copy_only=False)
    if tb is None:
        sims = Xa @ Xa.T
        li, ri = np.nonzero(sims >= threshold)
        m = li < ri
        ea, eb = li[m], ri[m]
        ids = ia
    else:
        Xb = _normalize(_embed_matrix(tb, embed_col, dtype))
        ib = tb[id_col].to_numpy(zero_copy_only=False)
        sims = Xa @ Xb.T
        li, ri = np.nonzero(sims >= threshold)
        ea, eb = li, ri + len(ia)
        ids = np.concatenate([ia, ib])
    idt = ta.schema.field(id_col).type
    if not len(ea):
        return pa.table({"a": pa.array([], idt), "b": pa.array([], idt)})
    lab = _min_label_cc(ea.astype(np.int64), eb.astype(np.int64), len(ids))
    mask = lab != np.arange(len(ids))
    return pa.table(
        {
            "a": pa.array(ids[lab[mask]], idt),
            "b": pa.array(ids[mask], idt),
        }
    )


def _semdedup_map_tile(
    t: pa.Table, map_ids: np.ndarray, map_grps: np.ndarray, cfg: dict
) -> pa.Table:
    """Label a giant cluster's rows from the (sorted id ->
    component-min-id) map: ids absent from the map are singletons.
    Plain function — runs inside the cluster's own group task."""
    id_col = cfg["id_col"]
    ids = t[id_col].to_numpy(zero_copy_only=False)
    idt = t.schema.field(id_col).type
    grp = ids.copy()
    if len(map_ids):
        pos = np.searchsorted(map_ids, ids)
        pos[pos == len(map_ids)] = 0
        hit = map_ids[pos] == ids
        grp[hit] = map_grps[pos[hit]]
    return pa.table(
        {
            id_col: t[id_col],
            "cluster": t["cluster"],
            "dup_group": pa.array(grp, idt),
            "keep": pa.array(grp == ids),
        }
    )


def semdedup(
    ds: rd.Dataset,
    *,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    n_clusters: int = 8,
    iters: int = 5,
    seed: int = 42,
    threshold: float = 0.95,
    dtype=np.float64,
    pair_budget: int | None = 4_000_000,
) -> rd.Dataset:
    """Semantic deduplication (SemDeDup, Abbas et al. 2023): k-means
    over the embedding column, then WITHIN each cluster drop all but one
    member of every near-duplicate group (cosine >= ``threshold``
    connected components; the kept member is the min id — deterministic,
    where the paper keeps a random/centroid-farthest one). Output:
    ``(id_col, cluster, dup_group, keep)`` for every input row, with
    ``dup_group`` the component's min id and ``keep`` true on the one
    retained row per group (singletons keep themselves).

    Scale shape: clustering is the streamed Lloyd's pass
    (:func:`kmeans_embeddings` — broadcast centroids, k x batches
    partial rows); the dedup is ONE cluster-keyed exchange and a
    per-cluster chunked gram matrix + vectorized min-label components —
    the cluster IS the blocking key, which is the point of SemDeDup:
    only same-cluster pairs are ever scored.

    Giant-cluster cap (``pair_budget``): a skewed cluster whose
    |c|^2 exceeds the budget no longer runs as one straggler gram
    matrix — INSIDE its own group task the rows tile into
    ~sqrt(pair_budget)-row blocks put once in the object store, every
    tile pair becomes one bounded NESTED task emitting a SPANNING
    FOREST of its local >= threshold subgraph (output O(tile rows),
    never O(pairs)), and the group task resolves the component ->
    min-id map from those forest edges (O(|c|) memory) and labels its
    rows. Everything rides the ONE cluster-keyed exchange — no extra
    scans, no per-cluster driver loop, giant and small clusters
    processed concurrently (round-5 review; the earlier shape ran one
    full-dataset filter pass per giant cluster and blocked the driver
    serially between clusters). The worker's CPU is released while it
    blocks on its nested tile tasks. Keeper semantics are unchanged:
    identical components, min id keeps. ``pair_budget=None`` restores
    the single-gram-per-cluster path. No SQL oracle (iterative k-means
    is not SQL-expressible); pytest verifies the per-cluster dedup
    against a brute NumPy reference on the same assignments and the
    tiled path against the untiled one on an adversarial giant
    cluster."""
    proj = ds.select_columns([id_col, embed_col])
    assigned, cents = kmeans_embeddings(
        proj, embed_col=embed_col, id_col=id_col, k=n_clusters, iters=iters,
        seed=seed, return_centroids=True,
    )
    del assigned  # the in-batch re-assignment below carries the vectors too
    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        C = ray.get(cref)
        X = _embed_matrix(t, embed_col, dtype=np.float64)
        d2 = -2.0 * (X @ C.T) + (C * C).sum(axis=1)
        a = np.argmin(d2, axis=1)
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        emb = t[embed_col].combine_chunks() if isinstance(t[embed_col], pa.ChunkedArray) else t[embed_col]
        return pa.table(
            {id_col: idc, "cluster": pa.array(a.astype(np.int64)), embed_col: emb}
        )

    def dedup_cluster(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")  # min-label == min id
        t = t.take(pa.array(order))
        ids = ids[order]
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        n = len(X)
        lis, ris = [], []
        chunk = max(1, 8_000_000 // max(1, n))
        for s in range(0, n, chunk):
            sims = X[s : s + chunk] @ X.T
            li, ri = np.nonzero(sims >= threshold)
            m = (li + s) < ri  # upper triangle only
            if m.any():
                lis.append(li[m] + s)
                ris.append(ri[m])
        if lis:
            from ..cluster.union_find import _min_label_cc

            lab = _min_label_cc(np.concatenate(lis), np.concatenate(ris), n)
        else:
            lab = np.arange(n, dtype=np.int64)
        grp = ids[lab]
        keep = lab == np.arange(n)
        idt = t.schema.field(id_col).type
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": t["cluster"],
                "dup_group": pa.array(grp, idt),
                "keep": pa.array(keep),
            }
        )

    assigned_ds = proj.map_batches(assign, batch_format="pyarrow")
    if pair_budget is None:
        return assigned_ds.groupby("cluster").map_groups(
            dedup_cluster, batch_format="pyarrow"
        )

    import math

    import pandas as pd

    from ..cluster.union_find import _min_label_cc

    tile_rows = max(256, math.isqrt(int(pair_budget)))
    cfg = {"id_col": id_col, "embed_col": embed_col, "dtype": dtype}

    def dedup_group(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n <= tile_rows:
            return dedup_cluster(t)
        # giant cluster: tile INSIDE the group task — nested tile-pair
        # tasks bound the O(n^2) similarity work; this worker's CPU is
        # released while blocked on ray.get of its children
        t = t.combine_chunks()
        refs = [
            ray.put(t.slice(s, tile_rows)) for s in range(0, n, tile_rows)
        ]
        futs = []
        for i in range(len(refs)):
            futs.append(_semdedup_tile_edges.remote(refs[i], None, threshold, cfg))
            for j in range(i + 1, len(refs)):
                futs.append(
                    _semdedup_tile_edges.remote(refs[i], refs[j], threshold, cfg)
                )
        edges = pa.concat_tables(ray.get(futs))
        if edges.num_rows:
            a = edges["a"].combine_chunks().to_numpy(zero_copy_only=False)
            b = edges["b"].combine_chunks().to_numpy(zero_copy_only=False)
            codes, uniq = pd.factorize(np.concatenate([a, b]), sort=False)
            lab = _min_label_cc(codes[: len(a)], codes[len(a):], len(uniq))
            u = pd.Series(uniq)
            rep = u.groupby(lab, sort=False).transform("min").to_numpy()
            order = np.argsort(uniq, kind="stable")
            map_ids, map_grps = np.asarray(uniq)[order], rep[order]
        else:
            map_ids = map_grps = np.empty(0, dtype=object)
        return _semdedup_map_tile(t, map_ids, map_grps, cfg)

    return assigned_ds.groupby("cluster").map_groups(
        dedup_group, batch_format="pyarrow"
    )
