"""Similarity search and near-duplicate detection over an embedding
column (``list<float>``).

Operators:

- ``ann_topk``: exact cosine top-k per query. The normalized query
  matrix is ``ray.put`` once, every batch scores one matmul against it,
  and the per-batch candidates are merged per query by
  :func:`~fozziejoin_ray.pipelines.topk.top_k_per_group` under the
  (cosine DESC, vec_id) order.
- ``ivf_topk``: the scale path. Vectors are bucketed by nearest
  centroid and each query scores only its ``nprobe`` nearest buckets.
  Approximate; ``nprobe = n_centroids`` is exact.
- ``embedding_dup_pairs``: exact pairs with cosine >= threshold against
  a broadcast matrix of the same table.
- ``embedding_dup_pairs_bucketed``: the same pairs from centroid
  buckets, with no driver-side matrix; recall is approximate.
- ``embedding_dedup``: near-duplicate classes (connected components of
  the pairs above, labelled by min id).
- ``topk_similar_pairs``: exact global top-k most similar pairs, tiled.
- ``kmeans_embeddings``: distributed Lloyd's k-means.
- ``semdedup``: k-means clusters, then near-duplicate components
  within each cluster.

Each similarity kernel is written once and shared by the operators:
:func:`_topk_candidates` (per-query top-k of one block),
:func:`_cosine_pairs` (pairs over a threshold), :func:`_nearest_centroids`
(cosine assignment), :func:`_nearest_l2` (L2 assignment) and
:func:`_run_tile_pairs` (one task per tile pair). The broadcast scorers
are stateless tasks that read the ``ray.put`` matrix zero-copy per
batch, so a call starts no actor pool.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..cluster.union_find import _min_label_cc, component_min
from ..exchange import exchange
from ..joins.rowids import BROADCAST_ROWS, collect_columns
from .topk import top_k_per_group

# similarity entries per row chunk of a thresholded pair scan
_CHUNK_ENTRIES = 8_000_000


def _embed_matrix(t: pa.Table, col: str, dtype=np.float32) -> np.ndarray:
    arr = t.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        # a fixed-size list type says the width; a variable one cannot
        dim = arr.type.list_size if pa.types.is_fixed_size_list(arr.type) else 0
        return np.empty((0, dim), dtype)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(dtype)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _topk_candidates(X: np.ndarray, ids, Q: np.ndarray, qids: pa.Array, k: int) -> pa.Table:
    """``(query_id, vec_id, cosine)`` candidates of one block: for each
    query, every row of ``X`` whose cosine is at least the query's k-th
    best, so rows tied at the k-th place all reach the merge, which
    breaks ties by id. ``X`` and ``Q`` are L2-normalized; the Arrow
    arrays ``ids`` and ``qids`` type the output, empty or not. A NaN
    cosine (a NaN or infinite embedding) ranks below every finite one."""
    sims = X @ Q.T  # (rows, queries)
    ranked = np.where(np.isnan(sims), -np.inf, sims)
    n = len(X)
    kth = np.partition(ranked, n - k, axis=0)[n - k] if n > k else -np.inf
    ri, qi = np.nonzero(ranked >= kth)
    return pa.table(
        {
            "query_id": qids.take(pa.array(qi)),
            "vec_id": ids.take(pa.array(ri)),
            "cosine": pa.array(sims[ri, qi].astype(np.float64)),
        }
    )


def _cosine_pairs(XA: np.ndarray, XB: np.ndarray | None, threshold: float):
    """``(i, j, cosine)`` arrays of every row pair with cosine >=
    ``threshold``: row i of ``XA`` against row j of ``XB``, or, with
    ``XB`` None, the pairs i < j of ``XA`` alone. Rows are
    L2-normalized; ``XA`` is scanned in row chunks of at most
    ``_CHUNK_ENTRIES`` similarities."""
    R = XA if XB is None else XB
    chunk = max(1, _CHUNK_ENTRIES // max(1, len(R)))
    ii, jj, ss = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for s in range(0, len(XA), chunk):
        sims = XA[s : s + chunk] @ R.T
        li, rj = np.nonzero(sims >= threshold)
        if XB is None:
            upper = li + s < rj
            li, rj = li[upper], rj[upper]
        ii.append(li + s)
        jj.append(rj)
        ss.append(sims[li, rj])
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(ss)


def _nearest_centroids(X: np.ndarray, C: np.ndarray, probes: int = 1) -> np.ndarray:
    """Each row's ``probes`` most cosine-similar centroids (rows and
    centroids L2-normalized): an (rows, min(probes, len(C))) index
    array. One probe is the first-index argmax."""
    sims = X @ C.T
    if probes == 1:
        return sims.argmax(axis=1)[:, None]
    if probes < sims.shape[1]:
        return np.argpartition(-sims, probes - 1, axis=1)[:, :probes]
    return np.argsort(-sims, axis=1)


def _nearest_l2(X: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid by L2 distance (first index on ties)
    and its squared distance less ``|x|^2``; one matmul serves both."""
    r = -2.0 * (X @ C.T) + (C * C).sum(axis=1)
    a = np.argmin(r, axis=1)
    return a, r[np.arange(len(a)), a]


def _run_tile_pairs(task, refs: list, *args) -> pa.Table:
    """Run the remote ``task(tile_i, tile_j, *args)`` once per tile pair
    i <= j of ``refs`` (``None`` as the second tile of a diagonal pair)
    and concatenate the tables they return."""
    futs = [
        task.remote(refs[i], None if j == i else refs[j], *args)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    return pa.concat_tables(ray.get(futs))


def ann_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    dtype=np.float32,
) -> rd.Dataset:
    """Exact brute-force cosine top-k per query: per-batch candidates
    (map_batches), then a per-query merge ranked by (cosine DESC,
    vec_id), with ``rank`` the 1-based row number. ``dtype=np.float64``
    makes the math bit-match a double-precision oracle."""
    qref = ray.put((_normalize(np.asarray(queries, dtype=dtype)), pa.array(list(query_ids))))

    def score(t: pa.Table) -> pa.Table:
        Qb, qids = ray.get(qref)
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        return _topk_candidates(X, t.column(id_col), Qb, qids, k)

    cand = ds.map_batches(score, batch_format="pyarrow")
    return top_k_per_group(cand, "query_id", "cosine", k, tie_cols="vec_id")


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
        X = _normalize(_embed_matrix(t, embed_col))
        bucket = _nearest_centroids(X, ray.get(cref)).ravel().astype(np.int64)
        return t.append_column("__ivf_bucket", pa.array(bucket))

    bucketed = ds.map_batches(assign, batch_format="pyarrow")

    Q = _normalize(np.asarray(queries, dtype=dtype))
    bucket_to_queries: dict[int, list[int]] = {}
    for qi, row in enumerate(_nearest_centroids(Q, centroids.astype(dtype), nprobe)):
        for b in row:
            bucket_to_queries.setdefault(int(b), []).append(qi)
    qref = ray.put((Q, pa.array(list(query_ids)), bucket_to_queries))

    def score_bucket(t: pa.Table) -> pa.Table:
        Qm, qids, b2q = ray.get(qref)
        qis = b2q.get(int(t.column("__ivf_bucket")[0].as_py()), [])
        qid = qids.take(pa.array(qis, pa.int64()))
        if not qis:  # no query probes this bucket: build no matrix
            return _topk_candidates(Qm[:0], t.column(id_col).slice(0, 0), Qm[:0], qid, k)
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        return _topk_candidates(X, t.column(id_col), Qm[qis], qid, k)

    cand = bucketed.groupby("__ivf_bucket").map_groups(score_bucket, batch_format="pyarrow")
    # about len(Q) * probes * k candidates (ties aside), known here: a
    # table the size of a broadcast side merges in one partition
    parts = max(1, -(-len(Q) * min(nprobe, len(centroids)) * k // BROADCAST_ROWS))
    return top_k_per_group(cand, "query_id", "cosine", k, tie_cols="vec_id", num_partitions=parts)


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

    cref = ray.put(_sample_centroids(ds, embed_col, n_centroids, seed))

    def assign(t: pa.Table) -> pa.Table:
        X = _normalize(_embed_matrix(t, embed_col))
        top = _nearest_centroids(X, ray.get(cref), assign_probes)
        take = pa.array(np.repeat(np.arange(t.num_rows), top.shape[1]))
        return pa.table(
            {
                "__eb": pa.array(top.ravel().astype(np.int64)),
                id_col: t[id_col].take(take),
                embed_col: t[embed_col].take(take),
            }
        )

    def score_bucket(t: pa.Table) -> pa.Table:
        idt = t.schema.field(id_col).type
        ids = t[id_col].to_numpy()
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        i, j, cos = _cosine_pairs(X, X, threshold)
        a, b = ids[i], ids[j]
        m = a < b
        return pa.table(
            {"a": pa.array(a[m], idt), "b": pa.array(b[m], idt), "cosine": pa.array(cos[m])}
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


def embedding_dup_pairs(
    ds: rd.Dataset,
    *,
    threshold: float = 0.95,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    dtype=np.float32,
) -> rd.Dataset:
    """All pairs with cosine >= threshold (a < b), brute-force against the
    broadcast matrix of the same table."""
    full = collect_columns(ds, [id_col, embed_col])
    M = _normalize(_embed_matrix(full, embed_col, dtype))
    mref = ray.put((M, full.column(id_col).to_numpy()))

    def score(t: pa.Table) -> pa.Table:
        Mb, ids = ray.get(mref)
        X = _normalize(_embed_matrix(t, embed_col, dtype))
        i, j, cos = _cosine_pairs(X, Mb, threshold)
        a, b = t.column(id_col).to_numpy()[i], ids[j]
        m = a < b  # canonical order, self-pairs dropped
        return pa.table({"a": pa.array(a[m]), "b": pa.array(b[m]), "cosine": pa.array(cos[m])})

    return ds.map_batches(score, batch_format="pyarrow")


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    proj = ds.select_columns([id_col, embed_col]).materialize()
    n = proj.count()
    tiles = proj.repartition(max(1, math.ceil(n / tile_rows))).materialize()
    cfg = {"id_col": id_col, "embed_col": embed_col, "round_to": round_to}
    merged = _run_tile_pairs(_pair_tile_topk, tiles.to_arrow_refs(), k, cfg).combine_chunks()
    out = merged.sort_by(
        [("cosine", "descending"), ("a", "ascending"), ("b", "ascending")]
    ).slice(0, k)
    return rd.from_arrow(out)


def _lloyd(
    ds: rd.Dataset, embed_col: str, id_col: str, k: int, iters: int, seed: int
) -> np.ndarray:
    """The (k, dim) float64 centroids of ``iters`` Lloyd rounds over the
    materialized ``ds``, from a seeded init (see
    :func:`kmeans_embeddings`)."""
    if k < 1 or iters < 1:
        raise ValueError(f"k and iters must be >= 1 (got k={k}, iters={iters})")
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
            a, _ = _nearest_l2(X, C)
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
    return cents


def kmeans_embeddings(
    ds: rd.Dataset,
    *,
    embed_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 5,
    seed: int = 42,
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
    ds = ds.materialize()
    cref = ray.put(_lloyd(ds, embed_col, id_col, k, iters, seed))

    def assign(t: pa.Table) -> pa.Table:
        X = _embed_matrix(t, embed_col, dtype=np.float64)
        a, r = _nearest_l2(X, ray.get(cref))
        dist = np.sqrt(np.maximum((X * X).sum(axis=1) + r, 0.0))
        return pa.table(
            {
                id_col: t[id_col],
                "cluster": pa.array(a.astype(np.int64)),
                "dist": pa.array(np.round(dist, 6)),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


@ray.remote
def _semdedup_tile_edges(ta: pa.Table, tb, threshold: float, cfg: dict) -> pa.Table:
    """Spanning-forest dup edges of one tile pair (tb None = the
    diagonal tile): per-task compute/memory bounded by tile_rows^2, and
    the OUTPUT bounded by the tile's vertex count — a spanning forest
    of the local >= threshold subgraph carries full connectivity, so an
    all-duplicate giant cluster emits O(rows) edges per task instead of
    O(rows^2) pairs."""
    id_col, embed_col, dtype = cfg["id_col"], cfg["embed_col"], cfg["dtype"]
    Xa = _normalize(_embed_matrix(ta, embed_col, dtype))
    Xb = None if tb is None else _normalize(_embed_matrix(tb, embed_col, dtype))
    ea, eb, _ = _cosine_pairs(Xa, Xb, threshold)
    ids = ta[id_col].to_numpy(zero_copy_only=False)
    if tb is not None:
        eb = eb + len(ids)
        ids = np.concatenate([ids, tb[id_col].to_numpy(zero_copy_only=False)])
    lab = _min_label_cc(ea, eb, len(ids))
    mask = lab != np.arange(len(ids))
    idt = ta.schema.field(id_col).type
    return pa.table({"a": pa.array(ids[lab[mask]], idt), "b": pa.array(ids[mask], idt)})


def _semdedup_rows(t: pa.Table, grp: np.ndarray, id_col: str) -> pa.Table:
    """``(id_col, cluster, dup_group, keep)`` of one cluster's rows, whose
    component min ids are ``grp``: the min id keeps."""
    return pa.table(
        {
            id_col: t[id_col],
            "cluster": t["cluster"],
            "dup_group": pa.array(grp, t.schema.field(id_col).type),
            "keep": pa.array(grp == t[id_col].to_numpy(zero_copy_only=False)),
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
    pair_budget: int = 4_000_000,
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

    Giant-cluster cap (``pair_budget``): a cluster of at most
    ``tile_rows = max(256, isqrt(pair_budget))`` rows is scored whole,
    as one chunked gram matrix in its group task. A larger cluster
    does not run as one straggler: INSIDE its own group task the rows
    tile into ``tile_rows``-row blocks put once in the object store,
    every tile pair becomes one bounded NESTED task emitting a SPANNING
    FOREST of its local >= threshold subgraph (output O(tile rows),
    never O(pairs)), and the group task resolves the component ->
    min-id map from those forest edges (O(|c|) memory) and labels its
    rows. Everything rides the ONE cluster-keyed exchange — no extra
    scans, no per-cluster driver loop, giant and small clusters
    processed concurrently. The worker's CPU is released while it
    blocks on its nested tile tasks. Keeper semantics are the same on
    both paths: identical components, min id keeps. No SQL oracle
    (iterative k-means is not SQL-expressible); pytest verifies the
    per-cluster dedup against a brute NumPy reference on the same
    assignments and the tiled path against the whole-cluster one on an
    adversarial giant cluster."""
    # one upstream execution: the Lloyd rounds and the assignment read it
    proj = ds.select_columns([id_col, embed_col]).materialize()
    cref = ray.put(_lloyd(proj, embed_col, id_col, n_clusters, iters, seed))
    tile_rows = max(256, math.isqrt(int(pair_budget)))
    cfg = {"id_col": id_col, "embed_col": embed_col, "dtype": dtype}

    def assign(t: pa.Table) -> pa.Table:
        a, _ = _nearest_l2(_embed_matrix(t, embed_col, dtype=np.float64), ray.get(cref))
        return t.append_column("cluster", pa.array(a.astype(np.int64)))

    def dedup_cluster(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")  # min-label == min id
        t = t.take(pa.array(order))
        i, j, _ = _cosine_pairs(_normalize(_embed_matrix(t, embed_col, dtype)), None, threshold)
        return _semdedup_rows(t, ids[order][_min_label_cc(i, j, len(ids))], id_col)

    def dedup_group(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n <= tile_rows:
            return dedup_cluster(t)
        # giant cluster: tile INSIDE the group task — nested tile-pair
        # tasks bound the O(n^2) similarity work; this worker's CPU is
        # released while blocked on ray.get of its children
        t = t.combine_chunks()
        refs = [ray.put(t.slice(s, tile_rows)) for s in range(0, n, tile_rows)]
        edges = _run_tile_pairs(_semdedup_tile_edges, refs, threshold, cfg)
        nodes, reps = component_min(edges["a"].to_numpy(), edges["b"].to_numpy())
        # label rows from the (sorted id -> component min id) map: ids
        # absent from the map are singletons
        order = np.argsort(nodes, kind="stable")
        map_ids, map_grps = nodes[order], reps[order]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        grp = ids.copy()
        if len(map_ids):
            pos = np.searchsorted(map_ids, ids)
            pos[pos == len(map_ids)] = 0
            hit = map_ids[pos] == ids
            grp[hit] = map_grps[pos[hit]]
        return _semdedup_rows(t, grp, id_col)

    return (
        proj.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup_group, batch_format="pyarrow")
    )
