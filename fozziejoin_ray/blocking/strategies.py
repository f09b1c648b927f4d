"""Recall-complete blocking strategies for distributed fuzzy string joins.

A strategy maps each key value to a set of block keys such that every pair
within ``max_distance`` shares at least one block, and defines an
ownership rule that (a) enforces any residual validity check and (b)
names ONE of the blocks a pair meets in, so every candidate pair is
scored exactly once across the whole shuffle.

The API is VECTORIZED — the two hot stages of the blocked path never touch
Python per row or per pair:

- ``emit_unique(uniq, side) -> (uidx, keys)``: block-key emissions per
  UNIQUE value (callers factorize the key column first and fan out to
  rows with ``np.repeat``). Per-value work (q-gram / soundex encoding)
  runs once per distinct value with an lru cache; everything else is
  numpy array ops.
- ``owns(lu, ru, ia, ib, keys, blk, selfjoin) -> mask``: for value pairs
  ``(lu[ia[k]], ru[ib[k]])`` (``ru=None``: a self-join, ``ib`` indexes
  ``lu``) met in base block ``keys[blk[k]]``, whether that block owns
  the pair. One call covers any number of blocks, with array ops
  (length masks, sorted key lookups) instead of a Python loop over
  blocks or pairs.

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

Exactly-once rules (all enforced by ``owns``):

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


def _owns_smallest(fam, lu, ru, ia, ib, own):
    """Smallest-shared-key ownership: True where ``own[k]`` is the
    smallest key (codepoint order) that value pair ``(lu[ia[k]],
    rv[ib[k]])`` shares among ``fam``'s keys, i.e. where the pair shares
    no smaller one (which would own it instead). ``fam(values) ->
    (value_idx, keys)`` lists each value's keys; ``ru=None`` is a
    self-join. Per pair, the left value's keys below ``own`` are looked
    up among the right value's, so the work is the pairs times their
    keys below ``own``, never a cross of the values' keys."""
    import pandas as pd

    rv = lu if ru is None else ru
    ua, ia = np.unique(ia, return_inverse=True)
    ub, ib = np.unique(ib, return_inverse=True)
    avi, ak = fam(lu[ua])
    bvi, bk = fam(rv[ub])
    codes, uniq = pd.factorize(np.concatenate([ak, bk, own]))
    rank = np.empty(len(uniq), np.int64)
    rank[np.argsort(np.asarray(uniq, dtype=object))] = np.arange(len(uniq))
    ac, bc, oc = np.split(rank[codes], [len(ak), len(ak) + len(bk)])
    nk = len(uniq)
    akeys = np.sort(avi * nk + ac)
    bkeys = np.sort(bvi * nk + bc)
    # each pair's left keys below its own key are one sorted range
    lo = np.searchsorted(akeys, ia * nk)
    n = np.searchsorted(akeys, ia * nk + oc) - lo
    rep, below = _ranges(lo, n)
    probe = ib[rep] * nk + akeys[below] % nk
    at = np.minimum(np.searchsorted(bkeys, probe), len(bkeys) - 1)
    shared = bkeys[at] == probe
    return np.bincount(rep[shared], minlength=len(ia)) == 0


def _ranges(lo: np.ndarray, n: np.ndarray):
    """(rep, pos): the ranges ``lo[k] : lo[k] + n[k]`` laid end to end,
    with ``rep`` naming each position's range."""
    rep = np.repeat(np.arange(len(n), dtype=np.int64), n)
    shift = lo - (np.cumsum(n) - n)
    return rep, np.arange(len(rep), dtype=np.int64) + shift[rep]


def _lens_of(values: np.ndarray) -> np.ndarray:
    import pandas as pd

    return pd.Series(values, dtype=object).str.len().to_numpy(dtype=np.int64)


def _key_ints(keys: np.ndarray, sep: str | None = None) -> np.ndarray:
    """The integers after each key's one-letter prefix ('L12' -> 12);
    with ``sep``, one column per field ('X1_3' -> [1, 3])."""
    import pandas as pd

    tail = pd.Series(keys, dtype=object).str[1:]
    if sep is None:
        return tail.astype(np.int64).to_numpy()
    return tail.str.split(sep, expand=True).astype(np.int64).to_numpy()


def _min_len_is(lu, ru, ia, ib, m) -> np.ndarray:
    """The length-window self-join rule: a pair is scored in the block
    of its shorter value's length."""
    rv = lu if ru is None else ru
    return np.minimum(_lens_of(lu)[ia], _lens_of(rv)[ib]) == m


def _str_keys(prefix: str, ints: np.ndarray) -> np.ndarray:
    return np.char.add(prefix, ints.astype("U"))


def _window_keys(prefix: str, vidx: np.ndarray, lens: np.ndarray, d: int, side: str):
    """Length-window emissions of values ``vidx`` with lengths ``lens``:
    a right value's home length; a left value's window len-d..len+d; a
    self-join value's len-d..len."""
    if side == "right":
        return vidx, _str_keys(prefix, lens).astype(object)
    offs = np.arange(-d, (d if side == "left" else 0) + 1, dtype=np.int64)
    flat = (lens[:, None] + offs[None, :]).ravel()
    vi = np.repeat(vidx, len(offs))
    ok = flat >= 0
    return vi[ok], _str_keys(prefix, flat[ok]).astype(object)


class LengthWindow:
    """Block on right value's char length; left probes the +/-d window.

    Ownership: a two-table pair meets once by construction (rights emit
    only their home length), so every pair is owned; a self-join value
    covers [len-d, len], so a pair is owned by block L{min(len_a,
    len_b)}."""

    def __init__(self, max_distance: float, exact: bool = False):
        self.d = 0 if exact else int(max_distance)

    def emit_unique(self, uniq: np.ndarray, side: str):
        idx = np.arange(len(uniq), dtype=np.int64)
        return _window_keys("L", idx, _lens_of(uniq), self.d, side)

    def owns(self, lu, ru, ia, ib, keys, blk, selfjoin: bool):
        if not selfjoin:
            return np.ones(len(ia), bool)
        return _min_len_is(lu, ru, ia, ib, _key_ints(keys)[blk])


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

    Values longer than ``lcap`` (where the ~C(len, d) neighborhood
    outgrows the quadratic saving) fall back to a length-window family
    under ``X{len}`` keys; values with ``len > lcap - d`` emit there too
    so long-short pairs still meet.

    Ownership: a D-block owns a pair iff its variant is the pair's
    lexicographically smallest shared variant. An X-block owns a pair
    iff its LONGER value exceeds ``lcap`` (both-short pairs belong to
    the variant blocks), and in a self-join only in block X{min(len_a,
    len_b)}, as :class:`LengthWindow`."""

    def __init__(self, max_distance: float, lcap: int | None = None):
        self.d = int(max_distance)
        self.lcap = _DELETION_LCAP[self.d] if lcap is None else lcap

    def _variants(self, values: np.ndarray):
        """(value_idx, variant) flat arrays of the values up to ``lcap``
        long; per-value generation is lru-cached."""
        vi: list[int] = []
        vr: list[str] = []
        for i, v in enumerate(values):
            if len(v) > self.lcap:
                continue
            xs = _cached_delvars(v, self.d)
            vi.extend([i] * len(xs))
            vr.extend(xs)
        return np.asarray(vi, dtype=np.int64), np.asarray(vr, dtype=object)

    def emit_unique(self, uniq: np.ndarray, side: str):
        vi, vr = self._variants(uniq)
        keys = (
            np.char.add("D", vr.astype("U")).astype(object)
            if len(vr)
            else np.empty(0, dtype=object)
        )
        # long-value family (len > lcap - d so boundary pairs meet)
        lens = _lens_of(uniq)
        lidx = np.nonzero(lens > self.lcap - self.d)[0]
        if len(lidx):
            lvi, lkeys = _window_keys("X", lidx, lens[lidx], self.d, side)
            vi = np.concatenate([vi, lvi])
            keys = np.concatenate([keys, lkeys])
        return vi, keys

    def owns(self, lu, ru, ia, ib, keys, blk, selfjoin: bool):
        import pandas as pd

        k = pd.Series(keys, dtype=object)
        x = k.str.startswith("X").to_numpy(bool)
        out = np.empty(len(ia), bool)
        d = np.flatnonzero(~x[blk])
        variant = k.str[1:].to_numpy(object)
        out[d] = _owns_smallest(self._variants, lu, ru, ia[d], ib[d], variant[blk[d]])
        xs = np.flatnonzero(x[blk])
        if len(xs):
            rv = lu if ru is None else ru
            a, b = ia[xs], ib[xs]
            ok = np.maximum(_lens_of(lu)[a], _lens_of(rv)[b]) > self.lcap
            if selfjoin:
                m = np.zeros(len(keys), np.int64)
                m[x] = _key_ints(keys[x])
                ok &= _min_len_is(lu, ru, a, b, m[blk[xs]])
            out[xs] = ok
        return out


class _SmallestSharedKey:
    """Ownership by the smallest of a pair's shared keys, when every key
    a value emits is side-independent."""

    def owns(self, lu, ru, ia, ib, keys, blk, selfjoin: bool):
        def fam(values):
            return self.emit_unique(values, "right")

        return _owns_smallest(fam, lu, ru, ia, ib, keys[blk])


class GramBlocks(_SmallestSharedKey):
    """One block per distinct q-gram. ``with_small`` adds the
    short-string block needed for the qgram (count-L1) metric.

    Ownership: a gram block owns a pair iff its gram is the pair's
    smallest shared gram (codepoint order); the ``__small__`` block,
    which sorts after every gram key, owns only the pairs that share no
    gram."""

    def __init__(self, q: int, max_distance: float, with_small: bool):
        self.q = q
        self.small_limit = max_distance if with_small else -1.0

    def emit_unique(self, uniq: np.ndarray, side: str):
        # the per-value gram extraction is cached; everything downstream
        # is array ops
        vi: list[int] = []
        gr: list[str] = []
        for i, v in enumerate(uniq):
            xs = _cached_qgrams(v, self.q)
            vi.extend([i] * len(xs))
            gr.extend(xs)
        vi = np.asarray(vi, dtype=np.int64)
        keys = np.char.add("G", np.asarray(gr, dtype="U")).astype(object)
        if self.small_limit >= 0:
            small = np.fromiter(
                (sum(_cached_qgrams(v, self.q).values()) <= self.small_limit for v in uniq),
                bool,
                count=len(uniq),
            )
            sidx = np.nonzero(small)[0]
            vi = np.concatenate([vi, sidx])
            keys = np.concatenate([keys, np.full(len(sidx), SMALL_BLOCK, object)])
        return vi, keys


class SoundexBlocks(_SmallestSharedKey):
    """One block per dual soundex code (primary, and the alternate when
    it differs). Ownership: a code block owns a pair iff its code is the
    pair's smallest shared code; the reference match rule
    (soundex.rs:49-53) is sharing at least one code."""

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


class AllPairs:
    """Salted cross (two-table) / triangle (self-join) partitioning of the
    full cross product, for methods without a recall-safe key (jw). Each
    left value lands in ``sr`` blocks, each right value in ``sl``.

    Ownership: a two-table pair meets in exactly one block, its
    (left salt, right salt), which owns it; a self-join pair is owned by
    the block X{min}_{max} of its two values' salts."""

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

    def owns(self, lu, ru, ia, ib, keys, blk, selfjoin: bool):
        if not selfjoin:
            return np.ones(len(ia), bool)
        # two values with the SAME salt s co-occur in every block
        # X{min(s,t)}_{max(s,t)}: a pair is owned only by the block its
        # two salts name (same-salt pairs on the diagonal)
        s = (value_salt_hash(lu) % self.sl).astype(np.int64)
        sa, sb = s[ia], s[ib]
        bij = _key_ints(keys, "_")[blk]
        return (np.minimum(sa, sb) == bij[:, 0]) & (np.maximum(sa, sb) == bij[:, 1])


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
