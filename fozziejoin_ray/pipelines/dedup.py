"""Deduplication operators over a document table — the large-scale
training-data extensions (exact, MinHash+LSH, SimHash, n-gram Jaccard).

All follow the same Ray-Data shape: vectorized per-batch signature
computation (stateless map_batches), one groupby shuffle on the
signature/bucket key, candidate verification inside the group, and —
for near-dup families — connected components to pick one survivor per
duplicate class. Only (id, signature) columns travel through shuffles.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from ..blocking.strategies import _ranges
from ..census import hot_key_census
from ..cluster.union_find import connected_components
from ..exchange import exchange
from ..joins.hashjoin import hash_join
from ..joins.string_join import slab_bounds

_MERSENNE = (1 << 61) - 1
MAX_BUCKET = 4096  # LSH stop-word cap: a bucket (or one side of it) over this pairs nothing


# ------------------------------------------------------------------- exact


def exact_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Keep one row per distinct text (the min id) — hash-partition by a
    vectorized content hash (mod ``num_partitions``, NOT one group per
    distinct value: per-group UDF dispatch costs more than the work) and
    resolve each partition with a single pandas groupby-idxmin."""
    import pandas as pd

    def first_per_text(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        idx = df.groupby(text_col, sort=False, dropna=False)[id_col].idxmin()
        return df.loc[np.sort(idx.to_numpy())]

    return exchange(ds, text_col, num_partitions, first_per_text, batch_format="pandas")


# ----------------------------------------------------------------- shingles


_FNV = np.uint64(1099511628211)


def _shingle_weights(k: int) -> np.ndarray:
    w = np.empty(k, dtype=np.uint64)
    acc = 1
    for i in range(k):
        w[i] = acc
        acc = (acc * 1099511628211) % (1 << 64)  # mod 2^64, deterministic
    return w


def char_shingles(text: str, k: int) -> np.ndarray:
    """Sorted distinct 64-bit polynomial hashes of the k-byte shingles of
    ``text`` — fully vectorized (sliding windows x weight dot, wrapping
    uint64 arithmetic), so long documents shingle in microseconds."""
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    if len(b) < k:
        if not len(b):
            return np.empty(0, dtype=np.uint64)
        w = _shingle_weights(len(b))
        return np.asarray([int((b.astype(np.uint64) * w).sum())], dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (win * _shingle_weights(k)[None, :]).sum(axis=1)
    return np.unique(h)


def jaccard_sets(a: np.ndarray, b: np.ndarray) -> float:
    if not len(a) and not len(b):
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


class DocShingleIndex:
    """Compact per-doc shingle-set index for exact-jaccard verification,
    built ONCE (usually on the driver, then ``ray.put``) and shared
    zero-copy by every task that scores candidate pairs.

    Layout: one flat uint64 array of all docs' sorted distinct shingles
    + int64 offsets (plasma zero-copy), plus a bitset matrix over the
    df>=2 vocabulary — shingles that occur in a single document can
    never contribute to an intersection, so dropping them from the
    bitmap is EXACT and collapses the vocabulary of natural corpora by
    orders of magnitude. ``jaccard_idx`` scores pair slabs with
    ``popcount(A & B)`` when the bitset fits (`_BITSET_VOCAB_CAP`,
    1 GiB matrix cap), else per-pair sorted intersection on the flat
    array. Results are bit-identical to :func:`jaccard_sets`."""

    def __init__(self, ids: list, texts: list, shingle_k: int):
        self.ids = list(ids)
        self._idx: dict | None = None
        shs = [char_shingles(t or "", shingle_k) for t in texts]
        n = len(shs)
        self.lens = np.fromiter((len(s) for s in shs), np.int64, count=n)
        self.offsets = np.zeros(n + 1, np.int64)
        np.cumsum(self.lens, out=self.offsets[1:])
        self.flat = (
            np.concatenate([s for s in shs if len(s)])
            if self.offsets[-1]
            else np.empty(0, np.uint64)
        )
        u, c = np.unique(self.flat, return_counts=True)
        vocab = u[c >= 2]  # doc shingle sets are distinct -> counts == df
        self._vocab_n = len(vocab)
        self.M = None
        nwords = max(1, (len(vocab) + 63) >> 6)
        if len(vocab) <= _BITSET_VOCAB_CAP and n * nwords * 8 <= 1 << 30:
            M = np.zeros((n, nwords), dtype=np.uint64)
            rows = np.repeat(np.arange(n, dtype=np.int64), self.lens)
            pos = np.searchsorted(vocab, self.flat)
            np.minimum(pos, len(vocab) - 1 if len(vocab) else 0, out=pos)
            hit = vocab[pos] == self.flat if len(vocab) else np.zeros(len(pos), bool)
            col = pos[hit].astype(np.uint64)
            np.bitwise_or.at(
                M,
                (rows[hit], (col >> np.uint64(6)).astype(np.int64)),
                np.uint64(1) << (col & np.uint64(63)),
            )
            self.M = M

    def lookup(self, id_values) -> np.ndarray:
        """Map external id values -> row indices (-1 when absent)."""
        if self._idx is None:
            self._idx = {d: i for i, d in enumerate(self.ids)}
        get = self._idx.get
        return np.fromiter((get(x, -1) for x in id_values), np.int64, count=len(id_values))

    @staticmethod
    def _popcount_pairs(
        M: np.ndarray, ai: np.ndarray, bi: np.ndarray, la: np.ndarray, lb: np.ndarray
    ) -> np.ndarray:
        lut = _popcount16_lut()
        n = len(ai)
        sims = np.empty(n, np.float64)
        for s0 in range(0, n, _PAIR_SLAB):
            sl = slice(s0, min(s0 + _PAIR_SLAB, n))
            X = M[ai[sl]] & M[bi[sl]]
            inter = lut[X.view(np.uint16)].sum(axis=1, dtype=np.int64)
            union = la[sl] + lb[sl] - inter
            with np.errstate(divide="ignore", invalid="ignore"):
                sims[sl] = np.where(union > 0, inter / union, 1.0)
        return sims

    def jaccard_idx(self, ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
        """Exact set-jaccard for row-index pairs, vectorized.

        When the corpus-wide bitset was too wide to build, a LOCAL one is
        built over just the docs this call touches (a bucket partition /
        verify batch references a small doc subset, whose df>=2
        vocabulary is far narrower than the corpus's) — restricting to
        locally-shared shingles is exact for intersections among those
        docs. Per-pair sorted intersection remains the last resort."""
        n = len(ai)
        if not n:
            return np.empty(0, np.float64)
        if self.M is not None:
            return self._popcount_pairs(self.M, ai, bi, self.lens[ai], self.lens[bi])
        docs = np.unique(np.concatenate([ai, bi]))
        if len(docs) == len(self.lens) and self._vocab_n > _BITSET_VOCAB_CAP:
            # local == global vocabulary, already known too wide
            return self._jaccard_loop(ai, bi)
        L = self.lens[docs]
        starts = self.offsets[docs]
        cum = np.cumsum(L)
        total = int(cum[-1]) if len(L) else 0
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum - L, L)
            + np.repeat(starts, L)
        )
        flat_local = self.flat[pos]
        u, c = np.unique(flat_local, return_counts=True)
        vocab = u[c >= 2]
        nwords = max(1, (len(vocab) + 63) >> 6)
        if len(vocab) <= _BITSET_VOCAB_CAP and len(docs) * nwords * 8 <= 1 << 30:
            M = np.zeros((len(docs), nwords), dtype=np.uint64)
            rows = np.repeat(np.arange(len(docs), dtype=np.int64), L)
            p = np.searchsorted(vocab, flat_local)
            np.minimum(p, len(vocab) - 1 if len(vocab) else 0, out=p)
            hit = vocab[p] == flat_local if len(vocab) else np.zeros(len(p), bool)
            col = p[hit].astype(np.uint64)
            np.bitwise_or.at(
                M,
                (rows[hit], (col >> np.uint64(6)).astype(np.int64)),
                np.uint64(1) << (col & np.uint64(63)),
            )
            la = np.searchsorted(docs, ai)
            lb = np.searchsorted(docs, bi)
            return self._popcount_pairs(M, la, lb, self.lens[ai], self.lens[bi])
        return self._jaccard_loop(ai, bi)

    def _jaccard_loop(self, ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
        off, flat = self.offsets, self.flat
        sims = np.empty(len(ai), np.float64)
        for i in range(len(ai)):
            a, b = ai[i], bi[i]
            sims[i] = jaccard_sets(flat[off[a] : off[a + 1]], flat[off[b] : off[b + 1]])
        return sims


_POP16: np.ndarray | None = None


def _popcount16_lut() -> np.ndarray:
    """uint16 -> popcount lookup table (64 KiB, built once per process)."""
    global _POP16
    if _POP16 is None:
        v = np.arange(65536, dtype=np.uint16)
        _POP16 = (
            np.unpackbits(v.view(np.uint8).reshape(-1, 2), axis=1).sum(axis=1).astype(np.uint16)
        )
    return _POP16


# Bitset scoring is only worth the U x V/8 bytes when the batch's distinct
# shingle vocabulary is small -- exactly the regime where prefix/LSH
# blocking degenerates and candidate pairs blow up toward all-pairs. A
# large per-batch vocabulary means blocking already made pairs rare, so
# the per-pair sorted-intersection fallback stays cheap.
_BITSET_VOCAB_CAP = 1 << 15
_PAIR_SLAB = 16384  # keep AND/popcount slabs cache-resident under concurrency


def jaccard_pairs_batch(
    a_texts: list, b_texts: list, shingle_k: int
) -> np.ndarray:
    """Exact set-jaccard for N (a, b) text pairs — vectorized.

    Shingles each distinct text once, then scores all pairs through a
    batch-local :class:`DocShingleIndex` (df>=2-vocabulary bitsets,
    ``inter = popcount(A & B)`` via a uint16 LUT, cache-resident pair
    slabs; per-pair sorted intersection when the vocabulary is too wide).
    Bit-for-bit identical to per-pair :func:`jaccard_sets`."""
    import pandas as pd

    n = len(a_texts)
    if not n:
        return np.empty(0, np.float64)
    both = pd.Series(np.concatenate([np.asarray(a_texts, object), np.asarray(b_texts, object)]))
    codes, uniques = pd.factorize(both.fillna(""), sort=False)  # C-speed text dedup
    ai = codes[:n].astype(np.int64)
    bi = codes[n:].astype(np.int64)
    uniq = uniques.tolist()
    index = DocShingleIndex(list(range(len(uniq))), uniq, shingle_k)
    return index.jaccard_idx(ai, bi)


def _minhash_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*h + b) mod p — vectorized (perm x shingle)."""
    if not len(shingles):
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    prod = (shingles[None, :] * a[:, None] + b[:, None]) % _MERSENNE
    return prod.min(axis=1)


def minhash_signatures_batch(
    shingle_arrays: list[np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_rows, num_perm) signatures for a whole batch in one shot:
    concatenate every row's shingles, compute the (total_shingles x perm)
    permutation values once, and segment-min back to rows with
    ``np.minimum.reduceat`` — value-identical to per-row
    :func:`minhash_signature` (same uint64 wrap + mod ordering)."""
    n = len(shingle_arrays)
    out = np.full((n, len(a)), _MERSENNE, dtype=np.uint64)
    if not n:
        return out
    lens = np.fromiter((len(s) for s in shingle_arrays), np.int64, count=n)
    nz = np.nonzero(lens > 0)[0]
    if not len(nz):
        return out
    with np.errstate(over="ignore"):
        cat = np.concatenate([shingle_arrays[i] for i in nz])
        prod = (cat[:, None] * a[None, :] + b[None, :]) % _MERSENNE
    starts = np.r_[np.int64(0), np.cumsum(lens[nz])[:-1]]
    out[nz] = np.minimum.reduceat(prod, starts, axis=0)
    return out


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) uint32 band-bucket hashes from an (n, num_perm)
    signature matrix — an FNV-style column mix per band, fully
    vectorized (replaces per-row-per-band crc32 calls). A (2^-32) hash
    collision merely adds a junk candidate pair, which verification
    removes."""
    n, num_perm = sig.shape
    r = num_perm // bands
    out = np.empty((n, bands), dtype=np.uint32)
    mult = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for bi in range(bands):
            h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
            for c in range(bi * r, (bi + 1) * r):
                h = (h ^ sig[:, c]) * mult
            out[:, bi] = ((h >> np.uint64(32)) ^ h).astype(np.uint32)
    return out


def _bucket_pairs(
    bucket: np.ndarray,
    side: np.ndarray | None,
    capped: np.ndarray,
    sketch: np.ndarray | None = None,
    keep_fn=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate (a, b) row-position pair of a bucket partition,
    each once: within each bucket not in ``capped``, every a-before-b
    pair (``side`` None) or every (side-0, side-1) pair. With the rows
    sorted by (bucket[, side]), a left member's partners are one
    contiguous range: the rest of its bucket, or its bucket's side-1
    rows. The ranges are expanded in ``SLAB_PAIRS`` slabs
    (:func:`~fozziejoin_ray.joins.string_join.slab_bounds`), each
    filtered by ``keep_fn(sketch[a], sketch[b])`` when given."""
    none = np.empty(0, np.int64)
    n = len(bucket)
    if not n:
        return none, none
    order = np.argsort(bucket, kind="stable") if side is None else np.lexsort((side, bucket))
    bs = bucket[order]
    starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
    ends = np.r_[starts[1:], n]
    g = np.repeat(np.arange(len(starts)), ends - starts)  # bucket of each sorted row
    if side is None:
        lo, left = np.arange(1, n + 1), np.ones(n, bool)
    else:
        left = side[order] == 0
        lo = (starts + np.add.reduceat(left, starts))[g]
    cnt = np.where(left & ~np.isin(bs[starts], capped)[g], ends[g] - lo, 0)
    mem = np.flatnonzero(cnt > 0)
    if not len(mem):
        return none, none
    lo, cnt = lo[mem], cnt[mem]
    bounds = slab_bounds(cnt)
    out_a, out_b = [], []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        rep, at = _ranges(lo[s0:s1], cnt[s0:s1])
        a, b = order[mem[s0:s1][rep]], order[at]
        if keep_fn is not None:
            m = keep_fn(sketch[a], sketch[b])
            a, b = a[m], b[m]
        out_a.append(a)
        out_b.append(b)
    return np.concatenate(out_a), np.concatenate(out_b)


_INDEX_CACHE: dict = {}


def _get_index(ref) -> "DocShingleIndex":
    """Per-worker-process cache for a broadcast DocShingleIndex: ray.get
    re-unpickles the ids list on every call, so memoize by object ref
    (numpy payloads stay zero-copy plasma views either way)."""
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    got = _INDEX_CACHE.get(key)
    if got is None:
        import ray

        got = ray.get(ref)
        _INDEX_CACHE.clear()  # one live index per worker is plenty
        _INDEX_CACHE[key] = got
    return got


class _IndexJaccardScore:
    """score_fn for :func:`lsh_fused_edges` that reads doc IDS, not
    texts: exact set-jaccard >= ``threshold`` from a broadcast
    :class:`DocShingleIndex` (``ray.put`` once, fetched zero-copy per
    worker), so per-pair work is an id->row gather plus ``popcount(A &
    B)`` slabs. ``by_id`` tells :func:`lsh_fused_edges` to ship only ids
    through its band exchange. Ids absent from the index never match."""

    by_id = True

    def __init__(self, ref, threshold: float):
        self.ref = ref
        self.threshold = float(threshold)

    def __call__(self, a_ids, b_ids) -> tuple[np.ndarray, np.ndarray]:
        import pandas as pd

        index = _get_index(self.ref)
        n = len(a_ids)
        # one dict lookup per DISTINCT id, not per pair
        codes, uniq = pd.factorize(np.concatenate([np.asarray(a_ids), np.asarray(b_ids)]))
        rows = index.lookup(uniq)[codes]
        ai, bi = rows[:n], rows[n:]
        ok = (ai >= 0) & (bi >= 0)
        sims = np.zeros(n, np.float64)
        sims[ok] = index.jaccard_idx(ai[ok], bi[ok])
        keep = ok & (sims >= self.threshold)
        return keep, sims[keep]


# the jaccard dedups' payload layout (_jaccard_edges): texts longer than
# _CARRY_CUTOFF bytes (mean) stay out of the bucket exchange when the
# doc table fits a broadcast shingle index of at most
# _BROADCAST_DOC_LIMIT docs
_BROADCAST_DOC_LIMIT = 2_000_000
_CARRY_CUTOFF = 128


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def _jaccard_edges(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    key,
    threshold: float,
    num_partitions: int,
) -> rd.Dataset:
    """Exact set-jaccard >= ``threshold`` edges over ``key``'s bucket
    candidates: one call to :func:`lsh_fused_edges`, with only the
    payload that rides in the bucket exchange chosen, from doc-table
    size and MEASURED mean text length (the exchange carries one copy
    of the payload per emission row):

    - texts <= ``_CARRY_CUTOFF`` bytes, or a table over
      ``_BROADCAST_DOC_LIMIT`` docs: the text rides in each emission and
      is re-shingled per bucket partition (measured 42s vs 50s for an
      index gather at 120k 63-byte docs on 32 CPUs);
    - long texts on a table that fits a broadcast: emissions carry only
      ids, and :class:`_IndexJaccardScore` verifies against a broadcast
      :class:`DocShingleIndex` (measured 2.7s vs 3.2s with the texts
      carried, 5,000 297-byte docs on 4 CPUs).

    Both payloads see the same candidates and the same exact
    set-jaccard, so results are identical. ``ds`` is materialized: the
    count, the layout probe and the emission all read it."""
    from fozziejoin_ray.joins.rowids import collect_columns

    score_fn = jaccard_score_fn(key.shingle_k, threshold)
    if ds.count() <= _BROADCAST_DOC_LIMIT:
        mat = collect_columns(ds, [id_col, text_col])
        tl = pa.compute.binary_length(pa.compute.fill_null(mat[text_col], ""))
        if float(pa.compute.mean(tl).as_py() or 0.0) > _CARRY_CUTOFF:
            index = DocShingleIndex(mat[id_col].to_pylist(), mat[text_col].to_pylist(), key.shingle_k)
            score_fn = _IndexJaccardScore(ray.put(index), threshold)
    return lsh_fused_edges(
        ds,
        text_col,
        id_col,
        score_fn,
        key=key,
        num_partitions=num_partitions,
        prefilter=JaccardSizeBoundFilter(threshold),
    )


def minhash_lsh_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.8,
    seed: int = 13,
    num_partitions: int = 32,
    id_type=None,
) -> rd.Dataset:
    """Near-duplicate classes via MinHash+LSH: shingle -> minhash ->
    banded buckets -> candidate pairs -> exact-jaccard verify ->
    connected components. Returns (doc_id, dup_group) for every doc;
    dup_group = min doc_id of its duplicate class. Candidates are
    :class:`MinHashBands` buckets; the payload is chosen by
    :func:`_jaccard_edges`. Raises ``ValueError`` unless
    ``0 < threshold <= 1``."""
    _check_threshold(threshold)
    # Materialize the (id, text) projection ONCE: count, the layout
    # probe, the band/bucket stage and the final id join all consume it,
    # and on a derived input each would otherwise re-execute the whole
    # upstream graph. The projection is two columns (the object store
    # spills if it must), which beats 3-4 upstream executions.
    ds = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).materialize()
    key = MinHashBands(num_perm, bands, shingle_k, seed)
    edges = _jaccard_edges(ds, text_col, id_col, key, threshold, num_partitions)
    return _dup_groups(ds, edges, id_col, num_partitions, id_type)


def _dup_groups(ds, edges, id_col, num_partitions, id_type=None) -> rd.Dataset:
    labels = connected_components(edges, "a", "b", num_partitions=num_partitions)
    labels_r = labels.map_batches(
        lambda t: pa.table({"__cc_node": t["node"], "__cc_lbl": t["cluster"]}),
        batch_format="pyarrow",
    )
    if id_type is None:
        sch = ds.schema()
        id_type = dict(zip(sch.names, sch.types))[id_col]
    idt = id_type
    ids = ds.map_batches(lambda t: t.select([id_col]), batch_format="pyarrow")
    joined = hash_join(
        ids,
        labels_r,
        id_col,
        "__cc_node",
        how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, idt)]),
        right_schema=pa.schema([("__cc_node", idt), ("__cc_lbl", idt)]),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                id_col: t[id_col],
                "dup_group": pa.compute.coalesce(t["__cc_lbl"], t[id_col]),
            }
        ),
        batch_format="pyarrow",
    )


# ------------------------------------------------------------------ simhash


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (crc-based feature hashes)."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for tok in (text or "").split():
        h = np.uint64(zlib.crc32(tok.encode())) | (
            np.uint64(zlib.crc32(tok[::-1].encode())) << np.uint64(32)
        )
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits == np.uint64(1), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash64_batch(texts: list) -> np.ndarray:
    """Batch SimHash, bit-identical to :func:`simhash64`: token hashes stay
    a (cheap, C-speed) python loop, but the 64-lane bit accumulation runs
    as one segment-sum over the whole batch's token stream."""
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if not n:
        return out
    tok_hashes: list[int] = []
    doc_idx: list[int] = []
    for i, txt in enumerate(texts):
        for tok in (txt or "").split():
            tok_hashes.append(
                zlib.crc32(tok.encode()) | (zlib.crc32(tok[::-1].encode()) << 32)
            )
            doc_idx.append(i)
    if not tok_hashes:
        return out
    H = np.array(tok_hashes, dtype=np.uint64)
    D = np.array(doc_idx, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    contrib = np.where(
        ((H[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool), 1, -1
    ).astype(np.int32)
    # doc_idx is nondecreasing -> segment boundaries + reduceat
    starts = np.nonzero(np.r_[True, D[1:] != D[:-1]])[0]
    seg = np.add.reduceat(contrib, starts, axis=0)
    acc = np.zeros((n, 64), dtype=np.int64)
    acc[D[starts]] = seg
    out = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    return (
        np.unpackbits(np.ascontiguousarray(x).view(np.uint8))
        .reshape(len(x), 64)
        .sum(axis=1)
        .astype(np.int64)
    )


def simhash_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    max_hamming: int = 3,
    num_partitions: int = 32,
    id_type=None,
) -> rd.Dataset:
    """Near-dup classes under SimHash hamming distance <= ``max_hamming``
    (0..63, else ``ValueError``): each doc's 64-bit signature is
    computed once into the value column, its :class:`SimHashBlocks`
    pigeonhole blocks are the LSH bands of :func:`lsh_fused_edges`, and
    each bucket partition verifies ``popcount(a ^ b) <= max_hamming``."""
    if not 0 <= max_hamming <= 63:
        raise ValueError(f"max_hamming must be in [0, 63], got {max_hamming}")
    # one upstream execution: signatures AND the final id join both read
    # this materialized projection
    ds = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).materialize()
    sigs = ds.map_batches(
        lambda t: pa.table(
            {id_col: t[id_col], "__sig": pa.array(simhash64_batch(t[text_col].to_pylist()))}
        ),
        batch_format="pyarrow",
    )

    def within(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dist = _popcount64(a ^ b)
        keep = dist <= max_hamming
        return keep, dist[keep]

    edges = lsh_fused_edges(
        sigs, "__sig", id_col, within, key=SimHashBlocks(max_hamming), num_partitions=num_partitions
    )
    return _dup_groups(ds, edges, id_col, num_partitions, id_type)


# ------------------------------------------------------- n-gram jaccard dup


_HOT_MIN_DF = 2  # a shingle in fewer documents stays unranked
_HOT_TOP = 1 << 20  # the most ranked shingles the order table holds


def _hot_shingle_order(
    ds: rd.Dataset,
    text_col: str,
    shingle_k: int,
    *,
    num_partitions: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """(hot_sorted, hot_rank): the corpus's shingles with document
    frequency >= ``_HOT_MIN_DF``, as an int64 array sorted by hash plus the
    aligned rank of each under ascending (df, hash). Used to order
    prefix-filter emissions rarest-first. Broadcast-bounded: at most
    ``_HOT_TOP`` entries survive (highest df wins); shingles outside the
    table sort before all listed ones by raw hash, which is always
    correct — the order is a pruning heuristic, never a semantics.

    DF counting is the repo's partial-aggregate pattern: per-batch
    ``np.unique`` partial counts, hash-partitioned, one pandas sum per
    partition — no sort-based multi-column Ray aggregate."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        arrs = [
            char_shingles(x or "", shingle_k) for x in t[text_col].to_pylist()
        ]
        h = np.concatenate(arrs) if arrs else np.empty(0, np.uint64)
        u, c = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.view(np.int64)),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    def tot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", sort=False)["c"].sum()
        g = g[g >= _HOT_MIN_DF]
        return pd.DataFrame({"h": g.index.to_numpy(), "df": g.to_numpy()})

    pdf = exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "h", num_partitions, tot,
        batch_format="pandas",
    ).to_pandas()
    if len(pdf) > _HOT_TOP:
        pdf = pdf.nlargest(_HOT_TOP, "df")
    if not len(pdf):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.lexsort((pdf["h"].to_numpy(), pdf["df"].to_numpy()))
    rank = np.empty(len(pdf), dtype=np.int64)
    rank[order] = np.arange(len(pdf), dtype=np.int64)
    hs = pdf["h"].to_numpy()
    byhash = np.argsort(hs)
    return hs[byhash], rank[byhash]


def ngram_jaccard_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    shingle_k: int = 5,
    threshold: float = 0.8,
    num_partitions: int = 32,
    id_type=None,
) -> rd.Dataset:
    """Exact n-gram-Jaccard duplicate classes WITHOUT minhash
    approximation, for any threshold in (0, 1] (else ``ValueError``):
    block on :class:`PrefixTokens` (prefix filtering — two sets with
    jaccard >= t must share one of each other's first
    ceil((1-t)|S|)+1 shingles under one global order) and verify exact
    jaccard in the bucket partition (:func:`_jaccard_edges`).

    Prefixes are taken under a document-frequency total order (rarest
    shingles first — the PPJoin ordering): the prefix theorem holds for
    ANY fixed global order, and rare-first makes prefix buckets small, so
    candidate count collapses on corpora with hot shingles. The order
    table is bounded for scale: only the ``_HOT_TOP`` highest-df shingles
    are ranked (broadcast once via ``ray.put``); everything below the cut
    sorts first by raw hash — correctness is unaffected, only candidate
    pruning quality degrades past the cap.

    Exactness caveat: candidate buckets larger than
    :func:`lsh_fused_edges`' ``max_bucket`` cap are dropped (stop-word
    shingles), a recall trade-off."""
    _check_threshold(threshold)
    # one upstream execution: the hot-shingle pass, the emission, the
    # count probe and the id join all read this materialized projection
    ds = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).materialize()
    hot_ref = ray.put(_hot_shingle_order(ds, text_col, shingle_k, num_partitions=num_partitions))
    key = PrefixTokens(shingle_k, threshold, hot_ref)
    edges = _jaccard_edges(ds, text_col, id_col, key, threshold, num_partitions)
    return _dup_groups(ds, edges, id_col, num_partitions, id_type)


_OWN_SLAB = 8_192  # pairs per ownership chunk


def _own_pairs_mask(
    bucket: np.ndarray,
    BHp: np.ndarray,
    ai: np.ndarray,
    bi: np.ndarray,
    capped: np.ndarray,
    bands: int,
) -> np.ndarray:
    """First-agreeing-band ownership mask: True where the band of
    ``bucket[ai]`` is the FIRST non-capped band whose band hashes agree
    for the pair. Capped buckets are RARE, so exclusion is unpacked per
    band into a handful of vector compares — never a sort-based isin.

    ``_OWN_SLAB`` bounds the per-chunk temporaries, and the chunk
    buffers are preallocated ONCE and refilled with ``np.take(..., out=)`` /
    ``np.equal(..., out=)``: the band-hash table itself is a few MB and
    cache-resident, so with throwaway slab temporaries this kernel's
    cost is pure allocator+DRAM churn (measured 4 µs/pair at 32-way
    concurrency for 262k-pair slabs — every temp is an mmap+page-zero
    cycle). 8k-pair slabs keep the whole working set (~2.6 MB) inside a
    private 2 MB L2 + allocator reuse, which is what lets 8->32 CPU
    scaling hold on this stage."""
    n = len(ai)
    own = np.empty(n, bool)
    if n == 0:
        return own
    cap_by_band: dict[int, np.ndarray] = {}
    for cb in capped:
        b = int(cb >> np.uint64(32))
        cap_by_band.setdefault(b, []).append(np.uint32(cb & np.uint64(0xFFFFFFFF)))
    cap_by_band = {b: np.array(v, np.uint32) for b, v in cap_by_band.items()}
    j_band = (bucket[ai] >> np.uint64(32)).astype(np.int64)
    BHc = np.ascontiguousarray(BHp)
    k = min(_OWN_SLAB, n)
    A = np.empty((k, bands), BHc.dtype)
    B = np.empty((k, bands), BHc.dtype)
    agree = np.empty((k, bands), bool)
    hit = np.empty(k, bool)
    hit2 = np.empty(k, bool)
    for c0 in range(0, n, _OWN_SLAB):
        m = min(_OWN_SLAB, n - c0)
        sl = slice(c0, c0 + m)
        Av, Bv, agv = A[:m], B[:m], agree[:m]
        np.take(BHc, ai[sl], axis=0, out=Av)
        np.take(BHc, bi[sl], axis=0, out=Bv)
        np.equal(Av, Bv, out=agv)
        for b, hv in cap_by_band.items():
            col = Av[:, b]
            hv0 = np.equal(col, hv[0], out=hit[:m])
            for h in hv[1:]:
                hv0 |= np.equal(col, h, out=hit2[:m])
            agv[:, b] &= ~hv0
        own[sl] = np.argmax(agv, axis=1) == j_band[sl]
    return own


def _bucket_census(
    emitted: MaterializedDataset,
    max_bucket: int,
    two_table: bool = False,
) -> np.ndarray:
    """Global LSH bucket census: the sorted u64 ids of globally-capped
    buckets (count > max_bucket; per (bucket, side) in two-table mode,
    collapsed back to bucket ids). This is the only place a live run
    decides the stop-word cap: :func:`_bucket_pairs` pairs nothing in a
    capped bucket and :func:`_own_pairs_mask` skips its band. The exchange
    puts every row of a bucket in one partition, so a partition's count
    of a bucket is this global count. Counted by
    :func:`~fozziejoin_ray.census.hot_key_census` over the materialized
    emission, so the counts never shuffle."""

    def sided(t: pa.Table) -> pa.Table:
        col = (
            t["__bucket"].combine_chunks() if isinstance(t["__bucket"], pa.ChunkedArray) else t["__bucket"]
        ).to_numpy(zero_copy_only=False)
        if two_table:
            sd = t["__lsh_side"].to_numpy(zero_copy_only=False).astype(np.uint64)
            col = (col << np.uint64(1)) | sd
        return pa.table({"__bucket": pa.array(col, pa.uint64())})

    hot = hot_key_census(
        [(emitted, sided)], pa.schema([("__bucket", pa.uint64())]), max_bucket
    )
    capped_ids = np.sort(hot["__bucket"].to_numpy(zero_copy_only=False))
    if two_table and len(capped_ids):
        # a capped side caps the whole bucket for ownership eligibility
        capped_ids = np.unique(capped_ids >> np.uint64(1))
    return capped_ids


def _arr(t: pa.Table, col: str) -> pa.Array:
    c = t[col]
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


# ------------------------------------------------------------ bucket keys
#
# A bucket key decides what lsh_fused_edges buckets on. Its
# ``buckets(values)`` (one batch's non-null values) returns
# ``(bucket, reps, BH, shingles)``: the uint64 bucket of every emission
# row, the number of consecutive rows each value emits, the per-value
# band vector ``BH`` ((n, bands) uint32, row i's bucket in band j being
# j << 32 | BH[i, j]) or None, and the shingle arrays a prefilter may
# reuse (or None). ``bands`` is None for keys without a fixed band
# vector, which skip first-agreeing-band ownership.


def _band_buckets(BH: np.ndarray) -> np.ndarray:
    """Flat band << 32 | band value buckets, row-major over (row, band)."""
    band_hi = np.arange(BH.shape[1], dtype=np.uint64)[None, :] << np.uint64(32)
    return (band_hi | BH.astype(np.uint64)).ravel()


class MinHashBands:
    """Banded MinHash over char ``shingle_k``-gram sets: ``bands``
    buckets per value, each the FNV mix of ``num_perm // bands``
    signature rows (:func:`_band_hashes`)."""

    def __init__(self, num_perm: int = 64, bands: int = 32, shingle_k: int = 2, seed: int = 13):
        if num_perm % bands:
            raise ValueError(f"num_perm={num_perm} is not a multiple of bands={bands}")
        self.num_perm, self.bands, self.shingle_k, self.seed = num_perm, bands, shingle_k, seed
        self.ma, self.mb = _minhash_params(num_perm, seed)

    def buckets(self, values: np.ndarray):
        sh = [char_shingles(v, self.shingle_k) for v in values]
        BH = _band_hashes(minhash_signatures_batch(sh, self.ma, self.mb), self.bands)
        return _band_buckets(BH), self.bands, BH, sh


class SimHashBlocks:
    """The ``max_hamming + 1`` pigeonhole blocks of 64-bit SimHash
    signatures (the values) as bands: two signatures within
    ``max_hamming`` bits agree exactly on at least one block. Blocks are
    ``64 // bands`` bits, the last one taking the remainder; all fit in
    32 bits except the single 64-bit block at ``max_hamming = 0``, which
    is folded to 32 bits (a fold collision only adds a candidate, which
    the hamming verify removes)."""

    def __init__(self, max_hamming: int):
        self.bands = max_hamming + 1

    def buckets(self, values: np.ndarray):
        sig = np.asarray(values, np.uint64)
        width = 64 // self.bands
        BH = np.empty((len(sig), self.bands), np.uint32)
        for b in range(self.bands):
            lo = b * width
            bits = 64 - lo if b == self.bands - 1 else width
            part = sig >> np.uint64(lo)
            if bits == 64:
                part = part ^ (part >> np.uint64(32))
            else:
                part = part & np.uint64((1 << bits) - 1)
            BH[:, b] = part.astype(np.uint32)
        return _band_buckets(BH), self.bands, BH, None


class PrefixTokens:
    """Prefix-filter tokens for exact char-``shingle_k``-gram jaccard >=
    ``threshold``: each value emits its first ceil((1-t)|S|)+1 distinct
    shingles (bucket = shingle hash) under one global order: cold
    shingles first by hash, then hot ones by ascending df rank
    (``hot_ref`` holds :func:`_hot_shingle_order`'s tables). Two sets at
    jaccard >= t share a prefix token. Values with no shingle emit
    nothing. No band vector: a pair sharing several tokens is scored
    once per shared token."""

    bands = None

    def __init__(self, shingle_k: int, threshold: float, hot_ref):
        self.shingle_k, self.threshold, self.hot_ref = shingle_k, threshold, hot_ref

    def buckets(self, values: np.ndarray):
        hot_sorted, hot_rank = ray.get(self.hot_ref)
        sh = [char_shingles(v, self.shingle_k) for v in values]
        lens = np.fromiter((len(x) for x in sh), np.int64, count=len(sh))
        n_pre = np.minimum(np.ceil((1 - self.threshold) * lens).astype(np.int64) + 1, lens)
        si = np.concatenate(sh).view(np.int64) if lens.sum() else np.empty(0, np.int64)
        rank = np.zeros(len(si), np.int64)  # cold: rank 0, ordered by hash
        if len(hot_sorted):
            pos = np.minimum(np.searchsorted(hot_sorted, si), len(hot_sorted) - 1)
            hot = hot_sorted[pos] == si
            rank[hot] = hot_rank[pos[hot]] + 1
        row = np.repeat(np.arange(len(sh)), lens)
        order = np.lexsort((si, rank, row))  # rows stay contiguous
        in_row = np.arange(len(si)) - np.repeat(np.cumsum(lens) - lens, lens)
        sel = order[in_row < np.repeat(n_pre, lens)]
        return si[sel].view(np.uint64), n_pre, None, sh


def _fixed_list(M: np.ndarray, typ: pa.DataType) -> pa.FixedSizeListArray:
    return pa.FixedSizeListArray.from_arrays(pa.array(M.ravel(), typ), M.shape[1])


def _band_emitter(
    text_col: str,
    id_col: str,
    key,
    *,
    carry_text: bool = True,
    prefilter=None,
    side: int = 0,
):
    """The LSH emission, as a per-batch function: ``key.buckets`` rows
    per non-null ``text_col`` value, each with ``__bucket``, the id, the
    value (unless ``carry_text`` is off), ``__lsh_side`` = ``side``, the
    source row's FULL band vector ``__bh`` (banded keys only — the
    ownership filter's input) and, with a ``prefilter``, its sketch
    ``__sk``. Null values emit nothing (NA never matches). Rows of one
    source row are consecutive, in the key's order."""

    def emit(t: pa.Table) -> pa.Table:
        idc, tc = _arr(t, id_col), _arr(t, text_col)
        if pa.types.is_null(tc.type):  # an all-null block from a pandas stage
            tc = tc.cast(pa.string())
        vrows = np.nonzero(tc.is_valid().to_numpy(zero_copy_only=False))[0]
        vals = tc.to_numpy(zero_copy_only=False)[vrows]
        bucket, reps, BH, sh = key.buckets(vals)
        take = pa.array(np.repeat(vrows, reps), pa.int64())
        cols = {"__bucket": pa.array(bucket, pa.uint64()), id_col: idc.take(take)}
        if carry_text:
            cols[text_col] = tc.take(take)
        cols["__lsh_side"] = pa.array(np.full(len(bucket), side, np.int8))
        if BH is not None:
            cols["__bh"] = _fixed_list(np.repeat(BH, reps, axis=0), pa.uint32())
        if prefilter is not None:
            SK = prefilter.sketch(vals, shingles=sh)  # (m, width) uint64
            cols["__sk"] = _fixed_list(np.repeat(SK, reps, axis=0), pa.uint64())
        return pa.table(cols)

    return emit


def _bucket_scorer(
    id_col: str,
    value_col: str,
    score_fn,
    *,
    bands: int | None,
    prefilter=None,
    two_table: bool = False,
):
    """The bucket-partition scorer, ``score_part(t, capped) -> (a, b,
    score)``: ``t`` holds every emission row of its buckets and
    ``capped`` is the sorted global stop-word-capped bucket set, the
    only place the cap is decided. Pairs come from
    :func:`_bucket_pairs` (every pair of a bucket, or its side-0 x
    side-1 pairs with ``two_table``; none in a capped bucket) with the
    fused ``prefilter``, keep only the first-agreeing-band owner
    (:func:`_own_pairs_mask`; skipped when ``bands`` is None), and are
    verified by ONE ``score_fn(values_a, values_b) -> (keep, scores)``
    call over ``value_col``. Self-join edges come back with a < b;
    two-table edges as (side-0 id, side-1 id)."""
    skw = int(prefilter.width) if prefilter is not None else 0
    keepf = prefilter.keep if prefilter is not None else None

    def score_part(t: pa.Table, capped: np.ndarray) -> pa.Table:
        idt = t.schema.field(id_col).type
        empty = pa.table(
            {
                "a": pa.array([], idt),
                "b": pa.array([], idt),
                "score": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        bucket = _arr(t, "__bucket").to_numpy(zero_copy_only=False)
        S = None
        if prefilter is not None:
            S = _arr(t, "__sk").flatten().to_numpy(zero_copy_only=False).reshape(-1, skw)
        side = t["__lsh_side"].to_numpy(zero_copy_only=False) if two_table else None
        ai, bi = _bucket_pairs(bucket, side, capped, S, keepf)
        if not len(ai):
            return empty
        if bands is not None:
            # first-agreeing-band ownership: keep the pair only when THIS
            # band is the first non-capped band whose bucket holds both rows
            BHp = _arr(t, "__bh").flatten().to_numpy(zero_copy_only=False).reshape(-1, bands)
            own = _own_pairs_mask(bucket, BHp, ai, bi, capped, bands)
            ai, bi = ai[own], bi[own]
            if not len(ai):
                return empty
        kv = _arr(t, value_col).to_numpy(zero_copy_only=False)
        ids = _arr(t, id_col).to_numpy(zero_copy_only=False)
        # numpy object arrays go straight to the score_fn — materializing
        # python lists here costs more than the string kernel itself
        keep, scores = score_fn(kv[ai], kv[bi])
        ra = ids[ai[keep]]
        rb = ids[bi[keep]]
        if two_table:
            src, dst = ra, rb  # (left id, right id): no canonical swap
        else:
            src = np.where(ra < rb, ra, rb)
            dst = np.where(ra < rb, rb, ra)
        return pa.table(
            {
                "a": pa.array(src, idt),
                "b": pa.array(dst, idt),
                "score": pa.array(np.asarray(scores, np.float64)),
            }
        )

    return score_part


def lsh_fused_edges(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    score_fn,
    *,
    key,
    num_partitions: int = 64,
    max_bucket: int = MAX_BUCKET,
    prefilter=None,
    right: rd.Dataset | None = None,
    right_text_col: str | None = None,
    right_id_col: str | None = None,
) -> rd.Dataset:
    """Fused LSH candidate generation + verification -> (a, b, score)
    with a < b: the package's only bucketed candidate generator.
    ``key`` decides the buckets (:class:`MinHashBands`,
    :class:`SimHashBlocks` or :class:`PrefixTokens`, see "bucket keys").
    Banded keys give each surviving pair exactly once;
    :class:`PrefixTokens` has no band vector and skips ownership, so a
    pair sharing several prefix tokens may be scored, and returned, once
    per shared token — harmless for its callers, which only feed the
    edges to connected components (:func:`_dup_groups`).

    Emission rows (:func:`_band_emitter`) carry (numeric bucket, id,
    value, the row's full band vector for banded keys) and cross one
    :func:`~fozziejoin_ray.exchange.exchange` on ``__bucket``. Each
    partition (:func:`_bucket_scorer`) builds candidate pairs with one
    vectorized partner-range expansion (:func:`_bucket_pairs`) and
    verifies them in ONE ``score_fn(texts_a, texts_b) -> (keep_mask,
    scores)`` call. A ``score_fn`` whose ``by_id`` attribute is true
    (:class:`_IndexJaccardScore`) is handed ids instead, and the text
    stays out of the exchange.

    Exactly-once is enforced by FIRST-AGREEING-BAND OWNERSHIP, not a
    dedup exchange: a candidate pair is kept only in the partition of
    the first band whose (non-capped) bucket contains both rows — a
    vectorized compare over the carried band-hash vectors. Round-3
    measured the alternative (score every co-bucketed pair, dedup the
    survivors with a pair-keyed groupby) at 20.5M scored rows for 2.0M
    unique edges on the 120k bench corpus: MATCHING pairs agree in ~10
    of 32 bands, so the dedup exchange moved 10x the final edge volume
    and verification scored each match 10x. Ownership removes both at
    the cost of ``4*bands`` bytes per emission row and one bucket
    census (:func:`_bucket_census`: per-block counts over the
    materialized emission, no shuffle) whose globally-capped bucket set
    is broadcast to the scorers, keeping the capped-bucket semantics —
    pair survives iff ANY non-capped band co-buckets it — bit-identical
    to the dedup design.

    Rows with null values are skipped (NA never matches); buckets larger than
    ``max_bucket`` are dropped (the standard LSH stop-word cap — a
    documented recall caveat).

    ``prefilter`` (optional) is a metric-specific RECALL-LOSSLESS cheap
    pair filter applied before ``score_fn``: an object with
    ``width`` (ints per row), ``sketch(texts) -> (n, width) uint64`` and
    ``keep(SA, SB) -> bool mask`` (SA/SB gathered sketch rows). It cuts
    the expensive verification volume (measured ~10x for the jaro bound
    on the bench corpus) at the cost of ``8*width`` bytes per emission.

    ``right`` switches to TWO-TABLE mode (the scale path for joining two
    huge tables under an all-pairs metric like jw): both sides emit into
    the same band buckets tagged with a side bit, candidates are the
    within-bucket left x right cross products, and edges come back as
    (a = left id, b = right id, score) — no canonical swap.
    """
    two_table = right is not None
    by_id = bool(getattr(score_fn, "by_id", False))
    emitter = functools.partial(
        _band_emitter,
        text_col,
        id_col,
        key,
        carry_text=not by_id,
        prefilter=prefilter,
    )
    emitted = ds.map_batches(emitter(side=0), batch_format="pyarrow")
    if two_table:
        rtc = right_text_col or text_col
        ric = right_id_col or id_col
        emitted = emitted.union(
            right.map_batches(
                lambda t: pa.table({id_col: t[ric], text_col: t[rtc]}), batch_format="pyarrow"
            ).map_batches(emitter(side=1), batch_format="pyarrow")
        )

    score_part = _bucket_scorer(
        id_col,
        id_col if by_id else text_col,
        score_fn,
        bands=key.bands,
        prefilter=prefilter,
        two_table=two_table,
    )
    # the census over the materialized emission broadcasts the
    # globally-capped buckets (the stop-word cap), so every partition's
    # ownership check agrees
    emitted = emitted.materialize()
    capped_ref = ray.put(_bucket_census(emitted, max_bucket, two_table))
    return exchange(
        emitted,
        "__bucket",
        num_partitions,
        lambda t: score_part(t, ray.get(capped_ref)),
        batch_format="pyarrow",
    )


class JaccardSizeBoundFilter:
    """Recall-lossless cheap pair filter for jaccard thresholds:
    ``J(A, B) <= min(|A|, |B|) / max(|A|, |B|)`` — two shingle sets whose
    sizes differ by more than the threshold ratio can never reach it.
    Sketch = one uint64 (the distinct-shingle count, reusing the shingles
    already computed for the MinHash signatures); ``keep`` is two gathers
    and a division. Pairs with an empty side bypass the filter (empty vs
    empty is jaccard 1.0 by convention)."""

    width = 1

    def __init__(self, threshold: float):
        self.threshold = float(threshold)

    def sketch(self, texts: list, shingles: list | None = None) -> np.ndarray:
        if shingles is None:
            raise ValueError("JaccardSizeBoundFilter needs the shingle arrays")
        return np.fromiter((len(s) for s in shingles), np.uint64, count=len(shingles)).reshape(
            -1, 1
        )

    def keep(self, SA: np.ndarray, SB: np.ndarray) -> np.ndarray:
        na = SA[:, 0].astype(np.float64)
        nb = SB[:, 0].astype(np.float64)
        lo = np.minimum(na, nb)
        hi = np.maximum(na, nb)
        bypass = lo == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = lo / hi
        return bypass | (bound >= self.threshold - 1e-12)


def jaccard_score_fn(shingle_k: int, threshold: float):
    """score_fn for lsh_fused_edges: exact set-jaccard >= threshold."""

    def fn(a_list, b_list):
        sims = jaccard_pairs_batch(a_list, b_list, shingle_k)
        keep = sims >= threshold
        return keep, sims[keep]

    return fn


def dedup_paragraphs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    sep: str = "\n\n",
    num_partitions: int = 64,
) -> rd.Dataset:
    """Exact PARAGRAPH-level dedup (the MassiveText / Lee et al. 2022
    sub-document mode): every occurrence of a paragraph that already
    appeared earlier in the corpus is removed, and each document is
    reassembled from its surviving paragraphs in original order.
    "First occurrence" is global and deterministic: the smallest
    ``(id, position)`` lexicographically. Output one row per input
    document: ``(id_col, text_col (deduped), n_paras, n_removed)`` —
    a document whose every paragraph was removed keeps an empty string.

    Paragraphs are ``sep``-delimited (literal split, empty segments
    participate uniformly); null text behaves as ``""``.

    Scale shape (two bounded exchanges, no driver state):

    1. per batch: explode to ``(id, pos, para)`` with one Arrow literal
       split — no per-row Python; route by paragraph content hash;
    2. paragraph-hash partition: all occurrences of a paragraph are
       co-located, so one composite sort (para, id, pos) + a
       first-of-run mask picks the global winners exactly; rows
       re-route by id hash;
    3. id partition: per-document position sort + separator join
       rebuilds the text; counts come from the same pass.

    The paragraph payload crosses the exchange twice — inherent to
    reassembly (content must reach the winner decision and come back).
    Skew note: a boilerplate paragraph repeated 10^9 times lands in one
    partition but arrives as occurrence ROWS that one sorted run
    resolves vectorized; the winner mask is O(rows) with no per-group
    dispatch."""
    import pandas as pd
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        txt = pc.fill_null(t.column(text_col), "")
        paras = pc.split_pattern(txt, sep)
        if isinstance(paras, pa.ChunkedArray):
            paras = paras.combine_chunks()
        flat = paras.flatten()
        parents = pc.list_parent_indices(paras).to_numpy(zero_copy_only=False)
        # position within the parent document: global index minus the
        # parent's first global index
        starts = np.asarray(paras.offsets)[:-1]
        pos = np.arange(len(flat), dtype=np.int64) - starts[parents]
        return pa.table(
            {
                id_col: idc.take(pa.array(parents)),
                "__pos": pa.array(pos),
                "__para": flat,
            }
        )

    def winners(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["__para", id_col, "__pos"], kind="stable")
        return df.assign(__keep=~df["__para"].duplicated().to_numpy())

    def reassemble(df: "pd.DataFrame") -> pa.Table:
        df = df.sort_values([id_col, "__pos"], kind="stable")
        ids = df[id_col].to_numpy()
        first = np.r_[True, ids[1:] != ids[:-1]]
        starts = np.nonzero(first)[0]
        keep = df["__keep"].to_numpy(bool)
        paras = df["__para"].to_numpy(object)
        n_paras = np.diff(np.r_[starts, len(df)])
        texts = []
        removed = np.zeros(len(starts), dtype=np.int64)
        for gi, (s, n) in enumerate(zip(starts, n_paras)):
            k = keep[s : s + n]
            removed[gi] = int(n - k.sum())
            texts.append(sep.join(paras[s : s + n][k]))
        return pa.table(
            {
                id_col: pa.Array.from_pandas(pd.Series(ids[starts])),
                text_col: pa.array(texts, pa.string()),
                "n_paras": pa.array(n_paras.astype(np.int64)),
                "n_removed": pa.array(removed),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    marked = exchange(exploded, "__para", num_partitions, winners, batch_format="pandas")
    return exchange(marked, id_col, num_partitions, reassemble, batch_format="pandas")


def cross_neardup_pairs(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    right_text_col: str | None = None,
    right_id_col: str | None = None,
    threshold: float = 0.8,
    shingle_k: int = 5,
    num_perm: int = 64,
    bands: int | None = None,
    seed: int = 13,
    num_partitions: int = 64,
    max_bucket: int = MAX_BUCKET,
) -> rd.Dataset:
    """Cross-corpus near-duplicate detection: every (left doc, right
    doc) pair with exact char-``shingle_k``-gram set-Jaccard >=
    ``threshold`` — the two-table form of :func:`minhash_lsh_dedup`'s
    candidate machinery, for contamination sweeps of a training corpus
    against an eval corpus (or release N against release N-1) where a
    self-dedup of the union would waste the within-side pairs. Output:
    ``(a, b, score)`` with ``a`` from the left table, ``b`` from the
    right, each surviving pair exactly once; ``score`` is the exact
    verified jaccard (rounded to 6), so precision is exact and recall
    is the banded-LSH recall (``1-(1-j^r)^bands``, r = num_perm/bands —
    ~0.9999 at j = 0.5 with the 64/32 defaults, ~1.0 above).

    Scale shape: identical to the fused self-dedup path — band
    emissions carry (bucket, id, text), one bucket-hash exchange,
    in-partition cross-side pair expansion with the size-bound
    prefilter, first-agreeing-band ownership for exactly-once pairs;
    no driver-side state, both sides stream.

    SIZE GUIDANCE (measured, 32 cpus / 37 GB object store, ~300 B
    texts): the default ``bands=32`` (r=2) holds candidate recall
    ~0.9999 down to the 0.5 boundary but doubles emission volume and
    makes bucket collisions ~t^2-common — 240k x 240k ran 376 s and
    480k x 480k exhausted worker heaps. ``bands=16`` (r=4) at
    threshold >= ~0.7 measured 80.6 s at 240k x 240k with 99.87% of
    the r=2 pair set (the delta is at-threshold boundary pairs) and
    144.8 s at 480k x 480k with zero worker deaths. Rule of thumb:
    keep 32 bands only when the threshold is near 0.5 or exactness at
    the boundary matters; use 16 for bulk contamination sweeps at
    t >= 0.7."""
    _check_threshold(threshold)
    if bands is None:
        # the measured rule above, expressed in rows-per-band so a
        # non-default num_perm keeps the intended recall regime:
        # r=2 (near-boundary-exact) below 0.7, r=4 at and above
        bands = max(1, num_perm // (2 if threshold < 0.7 else 4))
    edges = lsh_fused_edges(
        left,
        text_col,
        id_col,
        jaccard_score_fn(shingle_k, threshold),
        key=MinHashBands(num_perm, bands, shingle_k, seed),
        num_partitions=num_partitions,
        max_bucket=max_bucket,
        prefilter=JaccardSizeBoundFilter(threshold),
        right=right,
        right_text_col=right_text_col or text_col,
        right_id_col=right_id_col or id_col,
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(
            t.column_names.index("score"),
            "score",
            pc.round(t["score"], ndigits=6, round_mode="half_towards_infinity"),
        )

    return edges.map_batches(finish, batch_format="pyarrow")
