"""Vectorized batch string-distance kernels.

Distance semantics mirror the reference's kernels (rapidfuzz-backed Rust,
/root/reference/src/rust/src/string/):

- levenshtein / osa / damerau_levensthein / hamming: unit-cost edit
  distances over *characters* (unicode scalars), cf. edit/*.rs.
- lcs: ``m + n - 2*LCS`` over characters, cf. edit/lcs.rs:10-26.
- qgram / cosine / jaccard: distances over counted q-gram profiles,
  cf. ngram/{qgram,cosine}.rs and ngram/jaccard.rs:40-66 (note the
  first-pass jaccard is the *generalized* (multiset) jaccard over
  counts; the pairwise-refine jaccard is set-based, jaccard.rs:84-93).
- jaro_winkler: jaro distance plus the reference's prefix adjustment
  ``x2 = x + min(prefix, max_prefix) * prefix_weight * (1 - x)``,
  cf. jaro_winkler.rs:66-68 (defaults 0/0 reduce to pure Jaro).

Execution strategy: DuckDB's C++ ``levenshtein`` / ``damerau_levenshtein``
/ ``jaro_similarity`` kernels are *byte*-based, so a char == a byte only
for ASCII: pairs where both strings are ASCII (the overwhelming common
case) go through DuckDB's vectorized kernel, and any pair containing a
non-ASCII character takes the per-pair pure-Python char-based fallback
(``_duckdb_char_metric``) — correct but slower; heavily non-ASCII
corpora would want a codepoint-remap fast path. osa / lcs / hamming use
numpy batch DP (min-plus / max scans vectorized over the pair axis).

All kernels take aligned lists of non-null strings and return float64
distances. Callers apply the inclusive ``dist <= max_distance`` filter
and the NA-never-matches rule (semantics.py).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from ..semantics import canon_method

__all__ = [
    "score_pairs",
    "get_qgrams",
    "get_qgram_set",
    "qgram_distance",
    "cosine_distance",
    "jaccard_distance_counted",
    "jaccard_distance_set",
]

_INF = float("inf")

# ---------------------------------------------------------------------------
# encoding helpers


def _encode(strs: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode strings to an (N, Lmax) int32 codepoint matrix (pad=-1) plus
    char lengths. Two different pad values for the two sides are applied by
    callers so padded positions never compare equal."""
    n = len(strs)
    lens = np.fromiter((len(s) for s in strs), dtype=np.int64, count=n)
    lmax = int(lens.max()) if n else 0
    mat = np.full((n, max(lmax, 1)), -1, dtype=np.int32)
    for i, s in enumerate(strs):
        if s:
            mat[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(
                np.int32
            )
    return mat, lens


def _pair_mats(a: list[str], b: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    A, la = _encode(a)
    B, lb = _encode(b)
    # distinct pad sentinels so pad never equals pad
    B[B == -1] = -2
    return A, la, B, lb


# ---------------------------------------------------------------------------
# DuckDB-backed kernels (per-process lazy connection)

_DUCK = None


def _duck():
    global _DUCK
    if _DUCK is None:
        import duckdb

        _DUCK = duckdb.connect()
        # one OS thread per connection: kernels run inside Ray tasks that
        # reserve exactly 1 CPU — letting DuckDB fan out to every machine
        # core would oversubscribe the node and falsify scaling numbers
        _DUCK.execute("SET threads TO 1")
    return _DUCK


def _duck_binary_tbl(fn: str, aa: pa.Array, ab: pa.Array) -> np.ndarray:
    con = _duck()
    con.register("_fj_pairs", pa.table({"a": aa, "b": ab}))
    try:
        out = con.execute(f"SELECT {fn}(a, b) AS d FROM _fj_pairs").fetch_arrow_table()
    finally:
        con.unregister("_fj_pairs")
    return out.column("d").to_numpy(zero_copy_only=False).astype(np.float64)


def _duck_binary(fn: str, a, b) -> np.ndarray:
    return _duck_binary_tbl(fn, pa.array(a, type=pa.string()), pa.array(b, type=pa.string()))


def _to_arrow_pair(a, b) -> tuple[pa.Array, pa.Array]:
    """One conversion of both sides to Arrow string arrays (accepts
    lists or numpy object arrays) — everything downstream (ascii mask,
    equality, the DuckDB scan) runs on these without per-pair Python."""
    return pa.array(a, type=pa.string()), pa.array(b, type=pa.string())


def _duckdb_char_metric_arrow(fn: str, aa: pa.Array, ab: pa.Array, a, b, py_fallback) -> np.ndarray:
    """DuckDB's string metrics are byte-based; a char == a byte only for
    ASCII. The ascii mask is one vectorized Arrow kernel per side; ASCII
    pairs (the common case) go through DuckDB's C++ kernel in one scan,
    the non-ASCII minority through a char-based python fallback."""
    import pyarrow.compute as pc

    mask = pc.and_(pc.string_is_ascii(aa), pc.string_is_ascii(ab))
    if pc.all(mask).as_py():
        return _duck_binary_tbl(fn, aa, ab)
    m = mask.to_numpy(zero_copy_only=False)
    out = np.empty(len(aa), dtype=np.float64)
    idx_ok = np.nonzero(m)[0]
    idx_py = np.nonzero(~m)[0]
    if len(idx_ok):
        take = pa.array(idx_ok, pa.int64())
        out[idx_ok] = _duck_binary_tbl(fn, aa.take(take), ab.take(take))
    for i in idx_py:
        out[i] = py_fallback(a[i], b[i])
    return out


def _duckdb_char_metric(fn: str, a, b, py_fallback) -> np.ndarray:
    aa, ab = _to_arrow_pair(a, b)
    return _duckdb_char_metric_arrow(fn, aa, ab, a, b, py_fallback)


# ---------------------------------------------------------------------------
# pure-python per-pair fallbacks (non-ASCII minority only)


def _py_levenshtein(a: str, b: str) -> float:
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0:
        return float(lb)
    if lb == 0:
        return float(la)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != b[j - 1]))
        prev = cur
    return float(prev[lb])


def _py_damerau_levenshtein(a: str, b: str) -> float:
    """Unrestricted Damerau-Levenshtein (matches rapidfuzz / DuckDB)."""
    la, lb = len(a), len(b)
    if a == b:
        return 0.0
    maxdist = la + lb
    da: dict[str, int] = {}
    d = [[0] * (lb + 2) for _ in range(la + 2)]
    d[0][0] = maxdist
    for i in range(la + 1):
        d[i + 1][0] = maxdist
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[0][j + 1] = maxdist
        d[1][j + 1] = j
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            k = da.get(b[j - 1], 0)
            l = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[k][l] + (i - k - 1) + 1 + (j - l - 1),
            )
        da[a[i - 1]] = i
    return float(d[la + 1][lb + 1])


def _py_jaro_sim(a: str, b: str) -> float:
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_flags = [False] * la
    b_flags = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(la):
        if a_flags[i]:
            while not b_flags[k]:
                k += 1
            if a[i] != b[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def _py_jaro_dist(a: str, b: str) -> float:
    return 1.0 - _py_jaro_sim(a, b)


# ---------------------------------------------------------------------------
# numpy batch DP kernels


def _lev_like_scan(full: np.ndarray, jcost: np.ndarray) -> np.ndarray:
    """min-plus prefix scan: cur[j] = min_k<=j (full[k] + (j-k))."""
    shifted = full - jcost
    np.minimum.accumulate(shifted, axis=1, out=shifted)
    return shifted + jcost


def _osa_batch(a: list[str], b: list[str]) -> np.ndarray:
    A, la, B, lb = _pair_mats(a, b)
    n, La = A.shape
    Lb = B.shape[1]
    res = np.zeros(n, dtype=np.float64)
    jcost = np.arange(Lb + 1, dtype=np.float64)
    prev = np.broadcast_to(jcost, (n, Lb + 1)).copy()
    prevprev = None
    m0 = la == 0
    res[m0] = lb[m0]
    full = np.empty((n, Lb + 1), dtype=np.float64)
    for i in range(1, La + 1):
        ai = A[:, i - 1][:, None]
        eq = B == ai
        tent = np.minimum(prev[:, 1:] + 1.0, prev[:, :-1] + (~eq))
        if i >= 2 and Lb >= 2:
            cond = (ai == B[:, :-1]) & (A[:, i - 2][:, None] == B[:, 1:])
            tent[:, 1:] = np.where(
                cond, np.minimum(tent[:, 1:], prevprev[:, :-2] + 1.0), tent[:, 1:]
            )
        full[:, 0] = i
        full[:, 1:] = tent
        cur = _lev_like_scan(full, jcost)
        mask = la == i
        if mask.any():
            res[mask] = cur[mask, lb[mask]]
        prevprev = prev
        prev = cur
    return res


def _lcs_batch(a: list[str], b: list[str]) -> np.ndarray:
    A, la, B, lb = _pair_mats(a, b)
    n, La = A.shape
    Lb = B.shape[1]
    lcs = np.zeros(n, dtype=np.int64)
    prev = np.zeros((n, Lb + 1), dtype=np.int32)
    full = np.empty((n, Lb + 1), dtype=np.int32)
    for i in range(1, La + 1):
        eq = (B == A[:, i - 1][:, None]).astype(np.int32)
        tent = np.maximum(prev[:, 1:], prev[:, :-1] + eq)
        full[:, 0] = 0
        full[:, 1:] = tent
        cur = np.maximum.accumulate(full, axis=1)
        mask = la == i
        if mask.any():
            lcs[mask] = cur[mask, lb[mask]]
        prev = cur
    # rows with la == 0 keep lcs 0
    return (la + lb - 2 * lcs).astype(np.float64)


def _hamming_batch(a: list[str], b: list[str]) -> np.ndarray:
    """Unequal lengths -> inf (rapidfuzz errors, reference treats as
    non-match, cf. edit/hamming.rs:84-87)."""
    A, la, B, lb = _pair_mats(a, b)
    L = max(A.shape[1], B.shape[1])
    if A.shape[1] < L:
        A = np.pad(A, ((0, 0), (0, L - A.shape[1])), constant_values=-1)
    if B.shape[1] < L:
        B = np.pad(B, ((0, 0), (0, L - B.shape[1])), constant_values=-2)
    cols = np.arange(L)[None, :] < la[:, None]
    res = ((A != B) & cols).sum(axis=1).astype(np.float64)
    res[la != lb] = _INF
    return res


def _prefix_len_batch(a: list[str], b: list[str]) -> np.ndarray:
    A, la, B, lb = _pair_mats(a, b)
    L = min(A.shape[1], B.shape[1])
    eq = A[:, :L] == B[:, :L]
    # position of first mismatch = count of leading equal chars
    run = np.cumprod(eq, axis=1)
    return run.sum(axis=1)


# ---------------------------------------------------------------------------
# q-gram kernels


def get_qgrams(s: str, q: int) -> Counter:
    """Counted q-gram profile, cf. /root/reference/src/rust/src/utils.rs:81-99."""
    if len(s) < q:
        return Counter()
    return Counter(s[i : i + q] for i in range(len(s) - q + 1))


def get_qgram_set(s: str, q: int) -> frozenset:
    """Set q-gram profile, cf. ngram/jaccard.rs:17-38."""
    if len(s) < q:
        return frozenset()
    return frozenset(s[i : i + q] for i in range(len(s) - q + 1))


def qgram_distance(p1: Counter, p2: Counter) -> float:
    """L1 mismatch over counted profiles, cf. ngram/qgram.rs:12-31."""
    mismatch = 0
    for g, c1 in p1.items():
        mismatch += abs(c1 - p2.get(g, 0))
    for g, c2 in p2.items():
        if g not in p1:
            mismatch += c2
    return float(mismatch)


def cosine_distance(p1: Counter, p2: Counter) -> float:
    """1 - cosine over counted profiles; either profile empty -> 1.0,
    cf. ngram/cosine.rs:12-39."""
    dot = 0
    n1 = 0
    n2 = 0
    for g, c1 in p1.items():
        c2 = p2.get(g)
        if c2 is not None:
            dot += c1 * c2
        n1 += c1 * c1
    for c2 in p2.values():
        n2 += c2 * c2
    if n1 == 0 or n2 == 0:
        return 1.0
    return 1.0 - dot / (n1**0.5) / (n2**0.5)


def jaccard_distance_counted(p1: Counter, p2: Counter) -> float:
    """Generalized (multiset) jaccard over counted profiles; union 0 -> 1.0.
    Used on the first-key candidate path, cf. ngram/jaccard.rs:40-66."""
    inter = 0
    union = 0
    for g in set(p1) | set(p2):
        c1 = p1.get(g, 0)
        c2 = p2.get(g, 0)
        inter += min(c1, c2)
        union += max(c1, c2)
    if union == 0:
        return 1.0
    return 1.0 - inter / union


def jaccard_distance_set(s1: frozenset, s2: frozenset) -> float:
    """Set jaccard; both empty -> 0.0. Used on the pairwise-refine path,
    cf. ngram/jaccard.rs:84-93 (compare_pairs)."""
    if not s1 and not s2:
        return 0.0
    union = len(s1 | s2)
    if union == 0:
        return 1.0
    return 1.0 - len(s1 & s2) / union


class _GramCSR:
    """Sparse counted q-gram profiles over the DISTINCT strings of one
    scoring call: flat (gram_code, count) arrays sorted by (value, gram
    code), plus per-value offsets and precomputed totals/sq-norms. All
    pair metrics reduce to sums over the intersection of two sorted
    sparse vectors, computed for EVERY pair at once with one
    searchsorted merge + bincount — no per-pair Python."""

    def __init__(self, uniq: np.ndarray, q: int):
        n_u = len(uniq)
        # flat codepoint array of all distinct strings, then every q-gram
        # as one packed/hashed uint64 key — vectorized sliding window, no
        # per-gram Python. Packing is exact for q <= 3 (21 bits per
        # codepoint); q >= 4 uses a 64-bit polynomial hash (a collision
        # would merge two gram identities; probability ~G^2/2^64).
        lens = np.fromiter((len(s) for s in uniq), np.int64, count=n_u)
        flat = np.frombuffer("".join(uniq).encode("utf-32-le"), np.uint32)
        offs = np.cumsum(lens) - lens
        ng = np.maximum(lens - q + 1, 0)
        tot_g = int(ng.sum())
        vi_occ = np.repeat(np.arange(n_u, dtype=np.int64), ng)
        within = np.arange(tot_g, dtype=np.int64) - np.repeat(np.cumsum(ng) - ng, ng)
        gs = np.repeat(offs, ng) + within
        win = flat[gs[:, None] + np.arange(q, dtype=np.int64)[None, :]].astype(np.uint64)
        if q <= 3:
            key = np.zeros(tot_g, np.uint64)
            for j in range(q):
                key = (key << np.uint64(21)) | win[:, j]
        else:
            key = np.zeros(tot_g, np.uint64)
            mult = np.uint64(0x100000001B3)
            for j in range(q):
                key = key * mult + win[:, j]
        # count per (value, gram): sort composite keys once — packed
        # single-key sort when (value bits + gram bits) fit in 64
        key_bits = 21 * q if q <= 3 else 64
        vi_bits = int(n_u).bit_length()
        if key_bits + vi_bits <= 64:
            packed = (vi_occ.astype(np.uint64) << np.uint64(key_bits)) | key
            packed.sort()
            vi_s = (packed >> np.uint64(key_bits)).astype(np.int64)
            key_s = packed & np.uint64((1 << key_bits) - 1)
        else:
            comp = np.lexsort((key, vi_occ))
            vi_s, key_s = vi_occ[comp], key[comp]
        if tot_g:
            new = np.r_[True, (vi_s[1:] != vi_s[:-1]) | (key_s[1:] != key_s[:-1])]
            idx = np.nonzero(new)[0]
            ct_a = np.diff(np.r_[idx, tot_g]).astype(np.float64)
            vi_a = vi_s[idx]
            keys_d = key_s[idx]
            # global gram codes preserving per-value sorted order
            gcode = np.searchsorted(np.unique(keys_d), keys_d).astype(np.int64)
        else:
            vi_a = np.empty(0, np.int64)
            ct_a = np.empty(0, np.float64)
            gcode = np.empty(0, np.int64)
        self.vi = vi_a
        self.gcode = gcode
        self.ct = ct_a
        rng = np.arange(n_u, dtype=np.int64)
        self.starts = np.searchsorted(self.vi, rng, side="left")
        self.cnts = np.searchsorted(self.vi, rng, side="right") - self.starts
        self.tot = np.bincount(self.vi, weights=self.ct, minlength=n_u)
        self.sq = np.bincount(self.vi, weights=self.ct * self.ct, minlength=n_u)
        self.G = int(self.gcode.max()) + 1 if len(self.gcode) else 1

    def _expand(self, codes: np.ndarray):
        """(pair_local, flat_offset) for one side of a pair chunk."""
        c = self.cnts[codes]
        total = int(c.sum())
        rep = np.repeat(np.arange(len(codes), dtype=np.int64), c)
        within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(c) - c, c)
        return rep, np.repeat(self.starts[codes], c) + within

    def intersect_sums(self, ca: np.ndarray, cb: np.ndarray, kind: str) -> np.ndarray:
        """Per pair (ca[i], cb[i]): sum over shared grams of min(count)
        ('min'), count*count ('dot'), or 1 ('set'). Chunked so the
        expanded arrays stay cache-friendly."""
        n = len(ca)
        out = np.zeros(n, np.float64)
        per_pair = self.cnts[ca] + self.cnts[cb]
        budget = 1 << 24
        lo = 0
        csum = np.cumsum(per_pair)
        while lo < n:
            hi = int(np.searchsorted(csum, (csum[lo - 1] if lo else 0) + budget, side="right"))
            hi = min(max(hi, lo + 1), n)
            cac, cbc = ca[lo:hi], cb[lo:hi]
            repA, offA = self._expand(cac)
            repB, offB = self._expand(cbc)
            # keys are sorted: pair_local ascending, gram code ascending
            # within each value's slice
            keysA = repA * self.G + self.gcode[offA]
            keysB = repB * self.G + self.gcode[offB]
            pos = np.searchsorted(keysB, keysA)
            posc = np.minimum(pos, max(len(keysB) - 1, 0))
            hit = (pos < len(keysB)) & (len(keysB) > 0)
            if len(keysB):
                hit &= keysB[posc] == keysA
            if hit.any():
                if kind == "min":
                    w = np.minimum(self.ct[offA[hit]], self.ct[offB[posc[hit]]])
                elif kind == "dot":
                    w = self.ct[offA[hit]] * self.ct[offB[posc[hit]]]
                else:  # set
                    w = np.ones(int(hit.sum()), np.float64)
                out[lo:hi] = np.bincount(repA[hit], weights=w, minlength=hi - lo)
            lo = hi
        return out


def _factorize_pairs(a: list[str], b: list[str]):
    import pandas as pd

    av = np.asarray(a, dtype=object)
    bv = np.asarray(b, dtype=object)
    codes, uniq = pd.factorize(np.concatenate([av, bv]))
    n = len(av)
    return codes[:n].astype(np.int64), codes[n:].astype(np.int64), np.asarray(uniq, object)


def _qgram_family_batch(method: str, a: list[str], b: list[str], q: int) -> np.ndarray:
    ca, cb, uniq = _factorize_pairs(a, b)
    csr = _GramCSR(uniq, q)
    ta, tb = csr.tot[ca], csr.tot[cb]
    if method == "qgram":
        # L1 mismatch = totalA + totalB - 2 * sum(min) over shared grams
        return ta + tb - 2.0 * csr.intersect_sums(ca, cb, "min")
    if method == "cosine":
        dot = csr.intersect_sums(ca, cb, "dot")
        na = np.sqrt(csr.sq[ca])
        nb = np.sqrt(csr.sq[cb])
        ok = (na > 0) & (nb > 0)
        out = np.ones(len(ca), np.float64)
        out[ok] = 1.0 - dot[ok] / (na[ok] * nb[ok])
        return out
    # generalized (multiset) jaccard: inter = sum(min), union = tA+tB-inter
    inter = csr.intersect_sums(ca, cb, "min")
    union = ta + tb - inter
    out = np.ones(len(ca), np.float64)
    ok = union > 0
    out[ok] = 1.0 - inter[ok] / union[ok]
    return out


def jaccard_set_batch(a: list[str], b: list[str], q: int) -> np.ndarray:
    ca, cb, uniq = _factorize_pairs(a, b)
    csr = _GramCSR(uniq, q)
    inter = csr.intersect_sums(ca, cb, "set")
    union = csr.cnts[ca] + csr.cnts[cb] - inter
    # both-empty -> 0.0 (jaccard.rs:84-87: empty sets compare equal)
    out = np.zeros(len(ca), np.float64)
    ok = union > 0
    out[ok] = 1.0 - inter[ok] / union[ok]
    return out


# ---------------------------------------------------------------------------
# cheap recall-lossless lower bound for the edit-distance family

_BAG_BUCKETS = 32


def _char_bucket_counts(uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, lens): per distinct string, its codepoints hashed into
    ``_BAG_BUCKETS`` counting buckets (int16 matrix), plus char lengths.
    One flat pass over all characters — no per-value Python beyond the
    length fill."""
    n = len(uniq)
    lens = np.fromiter((len(s) for s in uniq), np.int64, count=n)
    flat = np.frombuffer("".join(uniq).encode("utf-32-le"), np.uint32)
    vi = np.repeat(np.arange(n, dtype=np.int64), lens)
    b = ((flat.astype(np.uint64) * np.uint64(2654435761)) >> np.uint64(16)) % np.uint64(
        _BAG_BUCKETS
    )
    # int16 keeps the per-pair gather small; a bucket count can only
    # approach the string length, so upcast when keys are pathological
    dt = np.int16 if (not n or lens.max() < 16384) else np.int32
    C = (
        np.bincount(vi * _BAG_BUCKETS + b.astype(np.int64), minlength=n * _BAG_BUCKETS)
        .reshape(n, _BAG_BUCKETS)
        .astype(dt)
    )
    return C, lens


def _touched_counts(uniq: np.ndarray, *idx: np.ndarray):
    """(counts, lens) as :func:`_char_bucket_counts`, computed only for
    the values ``idx`` touch; the other rows stay zero."""
    hit = np.zeros(len(uniq), bool)
    for i in idx:
        hit[i] = True
    Ct, lt = _char_bucket_counts(uniq[hit])
    C = np.zeros((len(uniq), _BAG_BUCKETS), Ct.dtype)
    lens = np.zeros(len(uniq), np.int64)
    C[hit], lens[hit] = Ct, lt
    return C, lens


def edit_bag_bound(
    uniq_a: np.ndarray,
    uniq_b: np.ndarray | None,
    ia: np.ndarray,
    ib: np.ndarray,
    *,
    lcs: bool = False,
) -> np.ndarray:
    """Per-pair lower bound on the unit-cost edit distances, from
    bucketed character counts. Recall-lossless: bucketing only merges
    characters, so the bucket L1 underestimates the true multiset L1,
    and every edit operation changes the multiset excess of each side by
    at most one, giving ``dist >= bag = (L1 + |len_a - len_b|) / 2``
    (valid for levenshtein / osa / damerau_levensthein / hamming — a
    transposition doesn't change the multiset at all). For LCS distance
    (indel-only, each op changes L1 by exactly one) the stronger
    ``dist >= L1`` holds; pass ``lcs=True``.

    ``uniq_b=None`` means a self-join (``ib`` indexes ``uniq_a``).
    Counts are built only for the values some pair touches, so a large
    side probed by few pairs costs little. Callers drop pairs whose
    bound exceeds ``max_distance`` BEFORE the exact kernel — no true
    match is ever dropped."""
    if uniq_b is None:
        Ca, la = Cb, lb = _touched_counts(uniq_a, ia, ib)
    else:
        Ca, la = _touched_counts(uniq_a, ia)
        Cb, lb = _touched_counts(uniq_b, ib)
    n = len(ia)
    out = np.empty(n, np.int64)
    chunk = 1 << 20
    for lo in range(0, n, chunk):
        s = slice(lo, min(lo + chunk, n))
        l1 = np.abs(Ca[ia[s]] - Cb[ib[s]]).sum(axis=1, dtype=np.int64)
        if lcs:
            out[s] = l1
        else:
            out[s] = (l1 + np.abs(la[ia[s]] - lb[ib[s]])) >> 1
    return out


# ---------------------------------------------------------------------------
# public entry


def score_pairs(
    method: str,
    a: list[str],
    b: list[str],
    *,
    q: int = 2,
    max_prefix: int = 0,
    prefix_weight: float = 0.0,
) -> np.ndarray:
    """Score aligned pairs of non-null strings; returns float64 distances.

    ``soundex`` returns 0.0 for matching code pairs and inf otherwise
    (reference: match iff any of the 4 dual-code equalities, distance
    always 0, cf. soundex.rs:49-53).
    """
    method = canon_method(method)
    n = len(a)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if method == "levenshtein":
        return _duckdb_char_metric("levenshtein", a, b, _py_levenshtein)
    if method == "damerau_levensthein":
        return _duckdb_char_metric("damerau_levenshtein", a, b, _py_damerau_levenshtein)
    if method == "osa":
        return _osa_batch(a, b)
    if method == "hamming":
        return _hamming_batch(a, b)
    if method == "lcs":
        return _lcs_batch(a, b)
    if method in ("qgram", "cosine", "jaccard"):
        return _qgram_family_batch(method, a, b, q)
    if method == "jaro_winkler":
        import pyarrow.compute as pc

        aa, ab = _to_arrow_pair(a, b)
        sim = _duckdb_char_metric_arrow("jaro_similarity", aa, ab, a, b, _py_jaro_sim)
        # DuckDB returns 0.0 for two empty strings; rapidfuzz jaro says
        # identical -> similarity 1. Fix up both-empty (and any equal pair).
        eq = pc.equal(aa, ab).to_numpy(zero_copy_only=False)
        sim[eq] = 1.0
        x = 1.0 - sim
        if max_prefix > 0 and prefix_weight != 0.0:
            pref = np.minimum(_prefix_len_batch(a, b), max_prefix)
            x = x + pref * prefix_weight * (1.0 - x)
        return x
    if method == "soundex":
        from .soundex import soundex_match_pairs

        return soundex_match_pairs(a, b)
    raise AssertionError(method)
