"""Recall-complete blocking strategies for distributed fuzzy string joins.

A strategy maps each key value to a set of block keys such that every pair
within ``max_distance`` shares at least one block, and defines an in-group
rule that (a) enforces any residual validity check and (b) dedups pairs
that meet in more than one block, so every candidate pair is scored
exactly once across the whole shuffle.

The API is VECTORIZED — the two hot stages of the blocked path never touch
Python per row or per pair:

- ``emit_unique(uniq, side) -> (uidx, keys)``: block-key emissions per
  UNIQUE value (callers factorize the key column first and fan out to
  rows with ``np.repeat``). Per-value work (q-gram / soundex encoding)
  runs once per distinct value with an lru cache; everything else is
  numpy array ops.
- ``candidates(ul, ur, bk, selfjoin) -> (ia, ib)``: the valid unique-value
  index pairs for one block, built with array ops (length masks, bucketed
  cross products, ``np.isin`` disqualification) instead of a Python loop
  calling a per-pair predicate.

Generalizes the reference's in-memory candidate generation:

- deletion-neighborhood (FastSS) blocks for edit distances at integer
  thresholds <= 2 — candidates are variant collisions (near-linear)
  instead of the length window's quadratic cross;
- length window for edit distances above that (|len(a)-len(b)| <= d
  lower bound), cf. /root/reference/src/rust/src/string/edit/mod.rs:35-48;
- shared-q-gram inverted index for q-gram-family distances,
  cf. /root/reference/src/rust/src/string/ngram/jaccard.rs:118-158
  (extended here with the short-string block that the reference's
  all-pairs qgram scan covers implicitly);
- soundex dual codes, cf. soundex.rs:153-206;
- salted cross/triangle partitioning for methods the reference scans
  all-pairs (jaro-winkler), so the cross product distributes.

Completeness notes per method (inclusive threshold ``dist <= maxd``):

- lv/osa/dl/lcs/hamming at integer maxd <= 2: if dist <= d, deleting
  the <= d unaligned characters of each side reaches a common string,
  so the <= d-deletion neighborhoods intersect (see
  :class:`DeletionBlocks`).
- lv/osa/dl/lcs: dist >= |len(a)-len(b)|, so a length window of
  ``floor(maxd)`` is recall-complete. hamming: unequal lengths never
  match -> window 0.
- jaccard (counted) & cosine: two values sharing no q-gram (or with an
  empty profile on either side) have distance exactly 1.0, so for
  maxd < 1 the shared-gram blocks are recall-complete; maxd >= 1
  degenerates to all-pairs and falls back to :class:`AllPairs`.
- qgram: values sharing no gram have dist = cnt(a)+cnt(b); pairs with
  cnt(a)+cnt(b) <= maxd are covered by the ``__small__`` block holding
  every value with cnt <= maxd.
- soundex: every clause of the match rule equates one code of each
  side, so sharing >= 1 dual code is necessary.

Exactly-once rules (all enforced inside ``candidates``):

- LengthWindow: rights emit only their home length block, so a
  two-table pair meets once by construction; a self-join pair is scored
  only in block L{min(len_a, len_b)}.
- DeletionBlocks: scored only in the smallest shared variant's block;
  X-blocks (long values) follow the LengthWindow rule and additionally
  require the longer side to exceed ``lcap``.
- GramBlocks: a pair sharing k grams meets in k blocks and is scored
  only in the block of its SMALLEST shared gram (codepoint order); the
  ``__small__`` block scores only pairs sharing NO gram.
- SoundexBlocks: scored only in the block of the smallest shared code.
- AllPairs: the salt grid/triangle names exactly one block per pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..kernels.soundex import soundex_na_dual
from ..kernels.strdist import get_qgrams
from ..semantics import canon_method

_cached_qgrams = lru_cache(maxsize=262144)(get_qgrams)
_cached_soundex = lru_cache(maxsize=262144)(soundex_na_dual)

SMALL_BLOCK = "__small__"

# the unit-cost edit distances: integer-valued, length-window bounded
EDIT_METHODS = frozenset({"levenshtein", "osa", "damerau_levensthein", "lcs", "hamming"})

_EMPTY_PAIR = (np.empty(0, np.int64), np.empty(0, np.int64))


def value_salt_hash(values: np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash per value, vectorized. Used by AllPairs
    for both emission and in-block filtering — any consistent hash works,
    so this is pandas' siphash over the object array."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)


def id_salt_hash(ids: np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash per row id, vectorized — used for the
    hot-block grid/triangle sub-salts (emitter and scorer must agree)."""
    import pandas as pd

    if ids.dtype == object:
        return pd.util.hash_array(ids, categorize=False)
    return pd.util.hash_array(np.asarray(ids), categorize=False)


def _cross_expand(ca: np.ndarray, cb: np.ndarray):
    """Vectorized variable-size cross product: for parallel group sizes
    ``ca[k] x cb[k]`` return (rep, a_local, b_local) flat arrays — rep
    names the group, a_local/b_local index within each side's group."""
    sizes = ca * cb
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
    rep = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    off = np.cumsum(sizes) - sizes
    t = np.arange(total, dtype=np.int64) - off[rep]
    cbr = cb[rep]
    return rep, t // cbr, t % cbr


def _triu_with_diag(n: int):
    """All unordered index pairs (i <= j) over ``n`` items, vectorized."""
    if n == 0:
        return _EMPTY_PAIR
    counts = np.arange(n, 0, -1, dtype=np.int64)  # i pairs with i..n-1
    ia = np.repeat(np.arange(n, dtype=np.int64), counts)
    off = np.cumsum(counts) - counts
    ib = ia + (np.arange(counts.sum(), dtype=np.int64) - off[ia])
    return ia, ib


def _full_cross(nl: int, nr: int):
    if nl == 0 or nr == 0:
        return _EMPTY_PAIR
    return (
        np.repeat(np.arange(nl, dtype=np.int64), nr),
        np.tile(np.arange(nr, dtype=np.int64), nl),
    )


def _bucket_cross(lc, lvi, rc, rvi):
    """Pairs (a_val_idx, b_val_idx) co-occurring in any shared bucket:
    ``lc``/``rc`` are bucket codes, ``lvi``/``rvi`` the parallel value
    indices. Vectorized: sort by code, intersect codes, expand each
    shared bucket's cross product."""
    lo = np.argsort(lc, kind="stable")
    ro = np.argsort(rc, kind="stable")
    lcs_, lvs = lc[lo], lvi[lo]
    rcs_, rvs = rc[ro], rvi[ro]
    lu, lstart, lcount = np.unique(lcs_, return_index=True, return_counts=True)
    ru_, rstart, rcount = np.unique(rcs_, return_index=True, return_counts=True)
    common, li, ri = np.intersect1d(lu, ru_, return_indices=True)
    if not len(common):
        return _EMPTY_PAIR
    rep, al, bl = _cross_expand(lcount[li], rcount[ri])
    return lvs[lstart[li][rep] + al], rvs[rstart[ri][rep] + bl]


def _str_keys(prefix: str, ints: np.ndarray) -> np.ndarray:
    return np.char.add(prefix, ints.astype("U"))


class LengthWindow:
    """Block on right value's char length; left probes the +/-d window.
    Self-join: each value covers [len-d, len]; shared blocks are deduped by
    scoring only at block min(len_a, len_b)."""

    def __init__(self, max_distance: float, exact: bool = False):
        self.d = 0 if exact else int(max_distance)

    @staticmethod
    def _lens(values: np.ndarray) -> np.ndarray:
        import pandas as pd

        return pd.Series(values, dtype=object).str.len().to_numpy(dtype=np.int64)

    def emit_unique(self, uniq: np.ndarray, side: str):
        lens = self._lens(uniq)
        n = len(uniq)
        if side == "right":
            return np.arange(n, dtype=np.int64), _str_keys("L", lens).astype(object)
        offs = (
            np.arange(-self.d, self.d + 1, dtype=np.int64)
            if side == "left"
            else np.arange(-self.d, 1, dtype=np.int64)  # self: [len-d, len]
        )
        w = len(offs)
        grid = lens[:, None] + offs[None, :]
        uidx = np.repeat(np.arange(n, dtype=np.int64), w)
        flat = grid.ravel()
        ok = flat >= 0
        return uidx[ok], _str_keys("L", flat[ok]).astype(object)

    def candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        m = int(bk[1:])
        if not selfjoin:
            # rights in L{m} all have len m; lefts were emitted only if
            # |len - m| <= d, so every pair is valid and meets once
            return _full_cross(len(ul), len(ur))
        # self-join: values have len in [m, m+d]; a pair is scored here
        # iff min(len_a, len_b) == m (its smallest shared block)
        lens = self._lens(ul)
        a_idx = np.nonzero(lens == m)[0]
        b_idx = np.nonzero((lens > m) & (lens <= m + self.d))[0]
        ia1, ib1 = _triu_with_diag(len(a_idx))
        ia = [a_idx[ia1], np.repeat(a_idx, len(b_idx))]
        ib = [a_idx[ib1], np.tile(b_idx, len(a_idx))]
        return np.concatenate(ia), np.concatenate(ib)


def _deletion_variants(v: str, d: int) -> tuple[str, ...]:
    """All distinct strings reachable from ``v`` by deleting up to ``d``
    characters (including ``v`` itself), sorted. FastSS neighborhood
    (Bocek et al., 2007)."""
    out = {v}
    frontier = {v}
    for _ in range(d):
        nxt = set()
        for s in frontier:
            for i in range(len(s)):
                nxt.add(s[:i] + s[i + 1 :])
        out |= nxt
        frontier = nxt
    return tuple(sorted(out))


_cached_delvars = lru_cache(maxsize=262144)(_deletion_variants)

# deletion-neighborhood size is ~C(len, d); beyond these lengths the
# emission volume outgrows the saved comparisons and values route to the
# long-value length-window family instead
_DELETION_LCAP = {0: 4096, 1: 64, 2: 24}


class DeletionBlocks:
    """FastSS deletion-neighborhood blocking for the edit-distance family
    at small integer thresholds: one block per deletion variant.

    Completeness: if ``dist(a, b) <= d`` for lv/osa/dl/hamming/lcs, an
    optimal edit script aligns all but <= d characters of each side, so
    deleting the unaligned characters reaches a COMMON string with <= d
    deletions from each — a shared variant block. (Transpositions delete
    one of the two swapped characters from each side.) Unlike the length
    window — quadratic in the values per length — candidate pairs here
    are only variant collisions, i.e. near-matches plus a vanishing
    collision rate.

    Exactly-once: a pair sharing k variants is scored only in its
    lexicographically smallest shared variant's block.

    Values longer than ``lcap`` (where the ~C(len, d) neighborhood
    outgrows the quadratic saving) fall back to a length-window family
    under ``X{len}`` keys; values with ``len > lcap - d`` emit there too
    so long-short pairs still meet, and an X-block scores only pairs
    whose LONGER side exceeds ``lcap`` (both-short pairs belong to the
    variant blocks)."""

    def __init__(self, max_distance: float, lcap: int | None = None):
        self.d = int(max_distance)
        self.lcap = _DELETION_LCAP[self.d] if lcap is None else lcap

    @staticmethod
    def _lens(values: np.ndarray) -> np.ndarray:
        import pandas as pd

        return pd.Series(values, dtype=object).str.len().to_numpy(dtype=np.int64)

    def _flat_variants(self, values: np.ndarray, below: str | None):
        """(value_idx, variant) flat arrays, optionally restricted to
        variants < ``below``; per-value generation is lru-cached."""
        vi: list[int] = []
        vr: list[str] = []
        d = self.d
        for i, v in enumerate(values):
            if len(v) > self.lcap:
                continue
            for x in _cached_delvars(v, d):
                if below is None or x < below:
                    vi.append(i)
                    vr.append(x)
        return np.asarray(vi, dtype=np.int64), np.asarray(vr, dtype=object)

    def emit_unique(self, uniq: np.ndarray, side: str):
        lens = self._lens(uniq)
        vi, vr = self._flat_variants(uniq, None)
        keys = (
            np.char.add("D", vr.astype("U")).astype(object)
            if len(vr)
            else np.empty(0, dtype=object)
        )
        # long-value family (len > lcap - d so boundary pairs meet)
        lidx = np.nonzero(lens > self.lcap - self.d)[0]
        if len(lidx):
            ll = lens[lidx]
            if side == "right":
                lvi, lkeys = lidx, _str_keys("X", ll).astype(object)
            else:
                offs = (
                    np.arange(-self.d, self.d + 1, dtype=np.int64)
                    if side == "left"
                    else np.arange(-self.d, 1, dtype=np.int64)  # self: [len-d, len]
                )
                w = len(offs)
                grid = ll[:, None] + offs[None, :]
                lvi = np.repeat(lidx, w)
                flat = grid.ravel()
                ok = flat >= 0
                lvi, lkeys = lvi[ok], _str_keys("X", flat[ok]).astype(object)
            vi = np.concatenate([vi, lvi])
            keys = np.concatenate([keys, lkeys])
        return vi, keys

    def _x_candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        m = int(bk[1:])
        ll = self._lens(ul)
        if not selfjoin:
            ia, ib = _full_cross(len(ul), len(ur))
            if not len(ia):
                return ia, ib
            lr = self._lens(ur)
            keep = np.maximum(ll[ia], lr[ib]) > self.lcap
            return ia[keep], ib[keep]
        # self-join: scored at block min(len_a, len_b); longer side > lcap
        a_idx = np.nonzero(ll == m)[0]
        b_idx = np.nonzero((ll > m) & (ll <= m + self.d))[0]
        ia1, ib1 = _triu_with_diag(len(a_idx))
        ia = np.concatenate([a_idx[ia1], np.repeat(a_idx, len(b_idx))])
        ib = np.concatenate([a_idx[ib1], np.tile(b_idx, len(a_idx))])
        if not len(ia):
            return ia, ib
        keep = np.maximum(ll[ia], ll[ib]) > self.lcap
        return ia[keep], ib[keep]

    def candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        import pandas as pd

        if bk.startswith("X"):
            return self._x_candidates(ul, ur, bk, selfjoin)
        v = bk[1:]
        nl = len(ul)
        nr = nl if selfjoin else len(ur)
        ia, ib = _triu_with_diag(nl) if selfjoin else _full_cross(nl, nr)
        if not len(ia):
            return ia, ib
        # disqualify pairs sharing a variant smaller than v: they score
        # in that variant's block instead
        lvi, lvr = self._flat_variants(ul, v)
        rvi, rvr = (lvi, lvr) if selfjoin else self._flat_variants(ur, v)
        if not len(lvi) or not len(rvi):
            return ia, ib
        codes, _ = pd.factorize(np.concatenate([lvr, rvr]))
        lc, rc = codes[: len(lvr)], codes[len(lvr) :]
        da, db = _bucket_cross(lc, lvi, rc, rvi)
        if not len(da):
            return ia, ib
        if selfjoin:
            dkeys = np.minimum(da, db) * nr + np.maximum(da, db)
        else:
            dkeys = da * nr + db
        mask = ~np.isin(ia * nr + ib, np.unique(dkeys))
        return ia[mask], ib[mask]


class GramBlocks:
    """One block per distinct q-gram; pairs scored only in their smallest
    shared gram's block. ``with_small`` adds the short-string block needed
    for the qgram (count-L1) metric."""

    def __init__(self, q: int, max_distance: float, with_small: bool):
        self.q = q
        self.small_limit = max_distance if with_small else -1.0

    def _flat_grams(self, values: np.ndarray, below: str | None):
        """(value_idx, gram) flat arrays over distinct grams per value,
        optionally restricted to grams < ``below``. The per-value gram
        extraction is cached; everything downstream is array ops."""
        vi: list[int] = []
        gr: list[str] = []
        q = self.q
        for i, v in enumerate(values):
            for x in _cached_qgrams(v, q):
                if below is None or x < below:
                    vi.append(i)
                    gr.append(x)
        return (
            np.asarray(vi, dtype=np.int64),
            np.asarray(gr, dtype=object),
        )

    def emit_unique(self, uniq: np.ndarray, side: str):
        vi, gr = self._flat_grams(uniq, None)
        keys = (
            np.char.add("G", gr.astype("U")) if len(gr) else np.empty(0, dtype="U1")
        )
        if self.small_limit >= 0:
            small = np.fromiter(
                (
                    sum(_cached_qgrams(v, self.q).values()) <= self.small_limit
                    for v in uniq
                ),
                bool,
                count=len(uniq),
            )
            sidx = np.nonzero(small)[0]
            if len(sidx):
                vi = np.concatenate([vi, sidx])
                keys = np.concatenate(
                    [keys.astype(object), np.full(len(sidx), SMALL_BLOCK, object)]
                )
                return vi, keys
        return vi, keys.astype(object) if keys.dtype.kind == "U" else keys

    def candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        import pandas as pd

        g = None if bk == SMALL_BLOCK else bk[1:]
        nl = len(ul)
        nr = nl if selfjoin else len(ur)
        ia, ib = _triu_with_diag(nl) if selfjoin else _full_cross(nl, nr)
        if not len(ia):
            return ia, ib
        # disqualify pairs sharing a gram smaller than g (or ANY gram for
        # the __small__ block): those pairs score in that gram's block
        lvi, lgr = self._flat_grams(ul, g)
        rvi, rgr = (lvi, lgr) if selfjoin else self._flat_grams(ur, g)
        if not len(lvi) or not len(rvi):
            return ia, ib
        codes, _ = pd.factorize(np.concatenate([lgr, rgr]))
        lc, rc = codes[: len(lgr)], codes[len(lgr) :]
        da, db = _bucket_cross(lc, lvi, rc, rvi)
        if not len(da):
            return ia, ib
        if selfjoin:
            dkeys = np.minimum(da, db) * nr + np.maximum(da, db)
        else:
            dkeys = da * nr + db
        mask = ~np.isin(ia * nr + ib, np.unique(dkeys))
        return ia[mask], ib[mask]


class SoundexBlocks:
    @staticmethod
    def _codes(values: np.ndarray):
        """(primary, alt) unicode arrays; a missing alt is the empty
        string, which never equals a real code."""
        prim = []
        alt = []
        for v in values:
            p, a = _cached_soundex(v)
            prim.append(p)
            alt.append(a if a is not None else "")
        return np.asarray(prim, dtype="U16"), np.asarray(alt, dtype="U16")

    def emit_unique(self, uniq: np.ndarray, side: str):
        p, a = self._codes(uniq)
        n = len(uniq)
        idx = np.arange(n, dtype=np.int64)
        has_alt = (a != "") & (a != p)
        aidx = np.nonzero(has_alt)[0]
        uidx = np.concatenate([idx, aidx])
        keys = np.concatenate([np.char.add("S", p), np.char.add("S", a[aidx])])
        return uidx, keys.astype(object)

    def candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        c = bk[1:]
        pl, al = self._codes(ul)
        pr, ar = (pl, al) if selfjoin else self._codes(ur)
        nl, nr = len(pl), len(pr)
        ia, ib = _triu_with_diag(nl) if selfjoin else _full_cross(nl, nr)
        if not len(ia):
            return ia, ib
        HI = "￿"  # sorts above every real code
        pa_, aa = pl[ia], al[ia]
        pb, ab = pr[ib], ar[ib]
        aa_m = np.where(aa == "", HI, aa)
        ab_m = np.where(ab == "", HI, ab)

        def smin(x, y):  # np.minimum has no unicode loop; < does
            return np.where(x < y, x, y)

        # smallest shared code across the <=2x2 code combinations; the
        # reference match rule (soundex.rs:49-53) == sharing >= 1 code
        best = np.full(len(ia), HI, dtype="U16")
        best = np.where(pa_ == pb, smin(best, pa_), best)
        best = np.where(aa_m == pb, smin(best, pb), best)
        best = np.where(ab_m == pa_, smin(best, pa_), best)
        best = np.where((aa_m == ab_m) & (aa != ""), smin(best, aa_m), best)
        mask = best == c
        return ia[mask], ib[mask]


class AllPairs:
    """Salted cross (two-table) / triangle (self-join) partitioning of the
    full cross product, for methods without a recall-safe key (jw). Each
    left value lands in ``sr`` blocks, each right value in ``sl``; a pair
    meets in exactly one block."""

    def __init__(self, sl: int = 1, sr: int = 1):
        self.sl = max(1, sl)
        self.sr = max(1, sr)

    def emit_unique(self, uniq: np.ndarray, side: str):
        n = len(uniq)
        h = value_salt_hash(uniq)
        if side == "left":
            i = (h % self.sl).astype(np.int64)
            uidx = np.repeat(np.arange(n, dtype=np.int64), self.sr)
            ii = np.repeat(i, self.sr)
            jj = np.tile(np.arange(self.sr, dtype=np.int64), n)
        elif side == "right":
            j = (h % self.sr).astype(np.int64)
            uidx = np.repeat(np.arange(n, dtype=np.int64), self.sl)
            jj = np.repeat(j, self.sl)
            ii = np.tile(np.arange(self.sl, dtype=np.int64), n)
        else:  # self-join triangle over sl salts
            s = (h % self.sl).astype(np.int64)
            uidx = np.repeat(np.arange(n, dtype=np.int64), self.sl)
            ss = np.repeat(s, self.sl)
            tt = np.tile(np.arange(self.sl, dtype=np.int64), n)
            ii = np.minimum(ss, tt)
            jj = np.maximum(ss, tt)
        keys = np.char.add(
            np.char.add(_str_keys("X", ii), "_"), jj.astype("U")
        )
        return uidx, keys.astype(object)

    def candidates(self, ul: np.ndarray, ur, bk: str, selfjoin: bool):
        if not selfjoin:
            # cross grid: a pair meets only in (left salt, right salt)
            return _full_cross(len(ul), len(ur))
        # Self-join triangle: two values with the SAME salt s co-occur in
        # every block X{min(s,t)}_{max(s,t)} — restrict every pair to the
        # single block named by both salts (same-salt pairs score only on
        # the diagonal).
        bi, bj = (int(x) for x in bk[1:].split("_"))
        s = (value_salt_hash(ul) % self.sl).astype(np.int64)
        ia, ib = _triu_with_diag(len(ul))
        sa, sb = s[ia], s[ib]
        mask = (np.minimum(sa, sb) == bi) & (np.maximum(sa, sb) == bj)
        return ia[mask], ib[mask]


def strategy_for(
    method: str,
    max_distance: float,
    q: int,
    *,
    allpairs_salts: tuple[int, int] = (1, 1),
):
    method = canon_method(method)
    if method in EDIT_METHODS:
        # edit distances are integers, so dist <= maxd iff dist <= floor(maxd)
        d = int(max_distance)
        if d in _DELETION_LCAP:
            return DeletionBlocks(d)
        if method == "hamming":
            return LengthWindow(max_distance, exact=True)
        return LengthWindow(max_distance)
    if method == "qgram":
        return GramBlocks(q, max_distance, with_small=True)
    if method in ("cosine", "jaccard"):
        if max_distance >= 1.0:
            return AllPairs(*allpairs_salts)
        return GramBlocks(q, max_distance, with_small=False)
    if method == "soundex":
        return SoundexBlocks()
    if method == "jaro_winkler":
        return AllPairs(*allpairs_salts)
    raise AssertionError(method)
