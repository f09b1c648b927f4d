"""Fuzzy string joins: fozziejoin semantics on Ray Data.

Two physical plans, chosen by ``strategy``, share one candidate
definition and one scorer:

- **candidates**: both plans take their block keys from a
  blocking/strategies.py strategy's ``emit_unique``; two values are
  candidates iff they share a key, and each strategy documents why
  every pair within ``max_distance`` does;
- **scoring**: both plans hand their candidate value pairs to
  :func:`score_candidates` (bag prefilter, equal-value shortcut, kernel,
  threshold, row fan-out, multi-key AND).

The plans differ in where the keys meet:

- ``broadcast`` (default when the right side is small): the right
  side's distinct values, their row fan-out and one vocabulary of their
  keys (:class:`RightStringIndex`) are built once on the driver and
  ``ray.put`` once; each left batch is a plain Ray Data task that reads
  the index with ``ray.get`` and scores against it
  (:func:`score_left_batch`) — the distributed analog of the
  reference's one-sided in-memory maps, read by stateless ``rayon``
  closures (its src/rust/src/string/edit/mod.rs:32-48,
  ngram/jaccard.rs:118-158 and soundex.rs:153-206). The read is paid
  per batch: for the largest index, the 46 MB d = 2 vocabulary of
  20,000 words, 0.12-0.17 s of ``ray.get`` plus 0.2-0.45 s to build
  the vocabulary's hash table on the batch's first probe (4 CPUs).
  Each batch emits its own keys, looks them up in the vocabulary and
  expands the shared groups, a slab of left values at a time (at most
  ``SLAB_PAIRS`` candidate pairs unless one value's groups alone are
  larger); a pair that shares several keys (deletion variants, grams,
  soundex codes) is deduped by one ``np.unique`` within its slab. The left side streams with
  backpressure; nothing materializes it.
- ``blocked`` (both sides large, or self-join): both sides' keys meet in
  one ``exchange()`` on the block key. Each exchange partition is scored
  in one pass: every block's cross product of values is expanded at
  once, in slabs of at most ``SLAB_PAIRS`` pairs, the pairs that another
  block owns (the strategy's ``owns`` rule, e.g. the smallest shared
  block) are masked out, and each slab's distinct value pairs make one
  :func:`score_candidates` call — see blocked.py.

Matching semantics (shared with the reference):

- a pair matches iff ``dist <= max_distance`` (inclusive);
- NA never matches anything (semantics.py);
- value-level dedup before scoring, row fanout after (utils.rs:7-20);
- multi-key ``by`` = AND of per-key thresholds under one shared
  ``max_distance``, per-key distance columns
  (string/mod.rs:95-127, merge/mod.rs:104-117);
- the jaccard refine pass is *set*-based while the first pass is
  counted — a reference quirk we reproduce (ngram/jaccard.rs:84-93).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..blocking.strategies import EDIT_METHODS, _cross_expand, _ranges, strategy_for
from ..kernels.strdist import edit_bag_bound, jaccard_set_batch, score_pairs
from ..semantics import canon_method, check_mode, distance_col_names
from .modes import assemble, normalize_by
from .rowids import BROADCAST_ROWS, collect_columns, ensure_row_id, exceeds_rows

LID = "__fj_lid"
RID = "__fj_rid"

# broadcast plan left batch size
_BATCH = 8192
# candidate pairs a broadcast scorer (string or numeric) holds at once
SLAB_PAIRS = 1 << 18


def refine_score(method: str, a, b, *, q: int, max_prefix: int, prefix_weight: float):
    """Pairwise re-scoring for by-keys 2..n (reference compare_pairs path)."""
    if canon_method(method) == "jaccard":
        return jaccard_set_batch(a, b, q)
    return score_pairs(method, a, b, q=q, max_prefix=max_prefix, prefix_weight=prefix_weight)


def dist_names(k: int) -> list[str]:
    return [f"__fj_d{i}" for i in range(k)]


def group_positions(codes: np.ndarray, n_uniq: int):
    """Row positions per factorized code: (sorted positions, starts,
    counts) so group k's rows are order[starts[k] : starts[k]+counts[k]].
    Codes of -1 (nulls) sort first and are skipped by the start offsets."""
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    rng = np.arange(n_uniq, dtype=np.int64)
    starts = np.searchsorted(sorted_codes, rng, side="left")
    counts = np.searchsorted(sorted_codes, rng, side="right") - starts
    return order, starts, counts


def _equal_is_zero(method: str, max_prefix: int, prefix_weight: float) -> bool:
    """Whether equal values are at distance exactly 0. Not for cosine
    (both-empty is 1.0, the reference's quirk), counted jaccard (values
    shorter than q have no grams, union 0 -> 1.0), or jaro-winkler with
    the prefix adjustment on (x + l*p*(1 - x) is l*p at x = 0)."""
    if method == "jaro_winkler":
        return not (max_prefix > 0 and prefix_weight != 0.0)
    return method not in ("cosine", "jaccard")


def slab_bounds(sizes: np.ndarray) -> list[int]:
    """Cut whole items into slabs of at most ``SLAB_PAIRS`` summed
    ``sizes`` (an item larger than that is a slab of its own): slab s is
    items ``bounds[s] : bounds[s + 1]``. At least one slab."""
    load = np.cumsum(sizes)
    bounds = [0]
    while True:
        b = bounds[-1]
        cap = (load[b - 1] if b else 0) + SLAB_PAIRS
        bounds.append(min(max(int(np.searchsorted(load, cap, side="right")), b + 1), len(sizes)))
        if bounds[-1] >= len(sizes):
            return bounds


def score_candidates(
    lu: np.ndarray,
    ru: np.ndarray | None,
    ia: np.ndarray,
    ib: np.ndarray,
    lgroups: tuple,
    rgroups: tuple,
    lextra: list,
    rextra: list,
    *,
    method: str,
    max_distance: float,
    q: int,
    max_prefix: int,
    prefix_weight: float,
    row_filter=None,
    fan=None,
):
    """Candidate value pairs -> matching row pairs: the scoring tail of
    both plans.

    ``lu``/``ru`` are each side's distinct key values (``ru=None`` is a
    self-join: ``ib`` indexes ``lu`` too) and ``(ia, ib)`` the candidate
    pairs of them, each at most once. ``lgroups``/``rgroups`` are
    (rows, starts, counts): group k's rows are
    ``rows[starts[k] : starts[k] + counts[k]]``, and group k is value k
    unless ``fan=(pair, ga, gb)`` says otherwise: then group pair t
    crosses left group ``ga[t]`` with right group ``gb[t]`` and takes
    value pair ``pair[t]``'s score, so a value pair met in several
    groups is scored once. ``lextra``/``rextra`` hold keys 2..n per row.
    ``row_filter(lrow, rrow, li, ri) -> (lrow, rrow, keep)`` may
    reorient and drop row pairs (``li``/``ri`` are their value indices)
    before the multi-key refinement. Returns ``(lrow, rrow, dists)``
    with one distance array per key."""
    import pandas as pd

    kw = dict(q=q, max_prefix=max_prefix, prefix_weight=prefix_weight)
    rv = lu if ru is None else ru
    d0 = np.full(len(ia), np.inf)
    todo = np.arange(len(ia))
    # recall-lossless bag-distance prefilter: the bucketed char-count
    # lower bound costs ~1/3 of the exact kernel per pair and kills the
    # overwhelming majority of length-window candidates, so the kernel
    # only sees near-anagrams (cf. strdist.edit_bag_bound)
    if method in EDIT_METHODS and len(ia) >= 4096:
        todo = np.flatnonzero(edit_bag_bound(lu, ru, ia, ib, lcs=(method == "lcs")) <= max_distance)
    # equal-value shortcut (reference: edit/levenshtein.rs:78-85): the
    # kernel only sees unequal pairs — crucial for deletion-variant
    # blocks, where most blocks are singletons whose only candidate is
    # the identity pair. Values are distinct per side, so left value k
    # equals at most right value same[k].
    if len(todo) and _equal_is_zero(method, max_prefix, prefix_weight):
        same = np.arange(len(lu)) if ru is None else pd.Index(ru).get_indexer(lu)
        eq = same[ia[todo]] == ib[todo]
        d0[todo[eq]] = 0.0
        todo = todo[~eq]
    d0[todo] = score_pairs(method, lu[ia[todo]], rv[ib[todo]], **kw)
    keep = d0 <= max_distance

    # fan out value pairs to row pairs: one variable-size cross-product
    # expansion
    pair, ga, gb = (np.arange(len(ia)), ia, ib) if fan is None else fan
    m = keep[pair]
    pair, ga, gb = pair[m], ga[m], gb[m]
    lrows, lstarts, lcounts = lgroups
    rrows, rstarts, rcounts = rgroups
    rep, al, bl = _cross_expand(lcounts[ga], rcounts[gb])
    lrow = lrows[lstarts[ga][rep] + al]
    rrow = rrows[rstarts[gb][rep] + bl]
    pair = pair[rep]
    if row_filter is not None:
        lrow, rrow, keep = row_filter(lrow, rrow, ia[pair], ib[pair])
        lrow, rrow, pair = lrow[keep], rrow[keep], pair[keep]
    dists = [d0[pair]]

    # multi-key AND refinement (string/mod.rs:95-127)
    for lcol, rcol in zip(lextra, rextra):
        av, bv = lcol[lrow], rcol[rrow]
        dk = np.full(len(av), np.inf)
        ok = np.flatnonzero(~(pd.isna(av) | pd.isna(bv)))
        if len(ok):
            dk[ok] = refine_score(method, av[ok], bv[ok], **kw)
        keep = dk <= max_distance
        lrow, rrow = lrow[keep], rrow[keep]
        dists = [d[keep] for d in dists] + [dk[keep]]
    return lrow, rrow, dists


class RightStringIndex:
    """The broadcast plan's right side, built on the driver, ``ray.put``
    once and read by every left batch's task: the distinct key values with their
    row fan-out, and one vocabulary over the strategy's right-side keys
    with each key's group of values. Under ``DeletionBlocks`` (the edit
    family at d <= 2) that is ~C(len, d) keys per value: 46 MB pickled
    for 20,000 values at d = 2, where one key per value (a length
    window) is 1 MB but probes ~1,000x the candidates."""

    def __init__(self, rt: pa.Table, rid: str, by: list[tuple[str, str]], strategy):
        import pandas as pd

        self.strategy = strategy
        self.rids = rt.column(rid).combine_chunks()
        self.extra = [rt.column(r).to_numpy(zero_copy_only=False) for _, r in by[1:]]
        codes, uniq = pd.factorize(rt.column(by[0][1]).to_numpy(zero_copy_only=False))
        self.uvals = np.asarray(uniq, dtype=object)
        self.rows = group_positions(codes, len(self.uvals))
        uidx, keys = strategy.emit_unique(self.uvals, "right")
        kcodes, vocab = pd.factorize(keys)
        self.vocab = pd.Index(vocab)
        order, self.key_starts, self.key_counts = group_positions(kcodes, len(vocab))
        self.key_values = uidx[order]
        # a pair can share more than one key only if a right value
        # emits more than one
        self.dedup = len(uidx) > len(np.unique(uidx))

    def probe(self, lu: np.ndarray):
        """Yield (li, ri) slabs: every pair of a left batch's distinct
        values ``lu`` and the right values that shares a key, once. A slab
        holds whole left values whose summed group sizes stay within
        ``SLAB_PAIRS`` (a value whose groups alone exceed it gets a slab
        of its own), so a pair met through several keys is deduped inside
        its slab. At least one slab is yielded."""
        luidx, keys = self.strategy.emit_unique(lu, "left")
        pos = self.vocab.get_indexer(keys)
        hit = pos >= 0
        luidx, pos = luidx[hit], pos[hit]
        bounds = slab_bounds(np.bincount(luidx, self.key_counts[pos], minlength=len(lu)))
        # slab, then key order: consecutive pairs share a right group,
        # which keeps its rows cache-hot for the prefilter's gathers
        slab = np.searchsorted(bounds, luidx, side="right") - 1
        order = np.lexsort((pos, slab))
        luidx, pos = luidx[order], pos[order]
        cuts = np.searchsorted(slab[order], np.arange(len(bounds)))
        for e0, e1 in zip(cuts[:-1], cuts[1:]):
            yield self._expand(luidx[e0:e1], pos[e0:e1])

    def _expand(self, luidx: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each left emission meets its key's whole group: ranges of
        # key_values, laid end to end
        rep, at = _ranges(self.key_starts[pos], self.key_counts[pos])
        li, ri = luidx[rep], self.key_values[at]
        if self.dedup:
            n = len(self.uvals)
            pairs = np.unique(li * n + ri)
            li, ri = pairs // n, pairs % n
        return li, ri


def score_left_batch(
    idx: RightStringIndex, batch: pa.Table, by: list[tuple[str, str]], lid: str, **score
) -> pa.Table:
    """The broadcast plan's per-batch task: one left batch against the
    right index, ``score`` the keyword arguments of
    :func:`score_candidates`; emits the match-edge table (lid, rid,
    per-key distances)."""
    import pandas as pd

    # batch-level value dedup (reference dedups the whole frame;
    # same result, scoring cost amortized per batch here)
    codes, lu = pd.factorize(batch.column(by[0][0]).to_numpy(zero_copy_only=False))
    lu = np.asarray(lu, dtype=object)
    lgroups = group_positions(codes, len(lu))
    lextra = [batch.column(l).to_numpy(zero_copy_only=False) for l, _ in by[1:]]
    slabs = [
        score_candidates(lu, idx.uvals, li, ri, lgroups, idx.rows, lextra, idx.extra, **score)
        for li, ri in idx.probe(lu)
    ]
    lrow, rrow = (np.concatenate([s[i] for s in slabs]) for i in (0, 1))
    cols = {
        LID: batch.column(lid).take(pa.array(lrow, pa.int64())),
        RID: idx.rids.take(pa.array(rrow, pa.int64())),
    }
    for k, name in enumerate(dist_names(len(by))):
        cols[name] = pa.array(np.concatenate([s[2][k] for s in slabs]), type=pa.float64())
    return pa.table(cols)


def build_edges_lsh(
    left: rd.Dataset,
    right: rd.Dataset,
    by: list[tuple[str, str]],
    method: str,
    max_distance: float,
    q: int,
    max_prefix: int,
    prefix_weight: float,
    lid: str,
    rid: str,
    *,
    key,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Two-table LSH-blocked edges (see fuzzy_string_join strategy='lsh').
    Both sides emit ``key``'s buckets (a
    :class:`~fozziejoin_ray.pipelines.dedup.MinHashBands`) over their
    key's shingles; the within-bucket left x right cross products are
    verified with the exact string kernel. A pair that meets in several
    bands is emitted once, by the first band it agrees on
    (first-agreeing-band ownership), so no dedup step runs. jw rides the
    recall-lossless SWAR char-bound prefilter.

    fuzzy_string_join's key is 64 bands x 1 row: a pair is missed only
    if NO single minhash agrees — miss probability (1-j)^64, i.e. < 1e-9
    even at shingle jaccard 0.3 (short keys within small edit distances
    sit well above that). One-row bands admit more junk candidates than
    multi-row bands, but the prefilter + vectorized kernel make
    verification the cheap side of the trade at join selectivities."""
    from ..pipelines.dedup import lsh_fused_edges
    from ..pipelines.linkage import string_scorer

    lkey, rkey = by[0]
    score_fn, prefilter = string_scorer(method, max_distance, q, max_prefix, prefix_weight)
    scored = lsh_fused_edges(
        left.select_columns([lid, lkey]),
        lkey,
        lid,
        score_fn,
        key=key,
        num_partitions=num_partitions,
        prefilter=prefilter,
        right=right.select_columns([rid, rkey]),
        right_text_col=rkey,
        right_id_col=rid,
    )
    return scored.map_batches(
        lambda t: pa.table({LID: t["a"], RID: t["b"], "__fj_d0": t["score"]}),
        batch_format="pyarrow",
    )


def build_edges_broadcast(
    left: rd.Dataset,
    right: rd.Dataset,
    by: list[tuple[str, str]],
    method: str,
    max_distance: float,
    q: int,
    max_prefix: int,
    prefix_weight: float,
    lid: str,
    rid: str,
) -> rd.Dataset:
    method = canon_method(method)
    rt = collect_columns(right, [rid] + sorted({r for _, r in by}))
    index = ray.put(RightStringIndex(rt, rid, by, strategy_for(method, max_distance, q)))
    score = dict(
        method=method, max_distance=max_distance, q=q, max_prefix=max_prefix,
        prefix_weight=prefix_weight,
    )

    def probe(batch: pa.Table) -> pa.Table:
        return score_left_batch(ray.get(index), batch, by, lid, **score)

    left_cols = [lid] + sorted({l for l, _ in by})
    return left.select_columns(left_cols).map_batches(
        probe, batch_format="pyarrow", batch_size=_BATCH
    )


def fuzzy_string_join(
    left: rd.Dataset,
    right: rd.Dataset,
    by=None,
    *,
    method: str = "levenshtein",
    how: str = "inner",
    max_distance: float = 1.0,
    q: int = 2,
    distance_col: str | None = None,
    max_prefix: int = 0,
    prefix_weight: float = 0.0,
    left_id: str | None = None,
    right_id: str | None = None,
    strategy: str = "auto",
    num_partitions: int = 16,
    validate_ids: bool = False,
) -> rd.Dataset:
    """Ray-Data-native analog of ``fozzie_string_join``
    (/root/reference/R/fozzie_string_join.R:59-77): join `left` and `right`
    where the string distance between the ``by`` key(s) is at most
    ``max_distance`` (inclusive), assembling the requested join mode with
    ``.x``/``.y`` suffixes on colliding names and optional distance
    column(s).
    """
    check_mode(how)
    method = canon_method(method)
    by = normalize_by(by, left, right)
    if strategy == "auto":
        strategy = "blocked" if exceeds_rows(right, BROADCAST_ROWS) else "broadcast"
    left, lid = ensure_row_id(left, left_id, "__fj_lid_src", validate_ids=validate_ids)
    right, rid = ensure_row_id(right, right_id, "__fj_rid_src", validate_ids=validate_ids)

    if strategy == "broadcast":
        edges = build_edges_broadcast(
            left, right, by, method, max_distance, q, max_prefix, prefix_weight, lid, rid
        )
    elif strategy == "blocked":
        from .blocked import build_edges_blocked

        edges = build_edges_blocked(
            left,
            right,
            by,
            method,
            max_distance,
            q,
            max_prefix,
            prefix_weight,
            lid,
            rid,
            num_partitions=num_partitions,
        )
    elif strategy == "lsh":
        # Two-huge-tables path for all-pairs metrics (jw, or any method
        # when the exact strategy's candidate space is prohibitive):
        # banded-MinHash buckets over key shingles generate candidates,
        # the exact kernel verifies dist <= max_distance. APPROXIMATE —
        # a matching pair is missed only if no band agrees (vanishing
        # for the high shingle overlap small string distances imply);
        # every emitted edge is exact (kernel-verified). Single-key only.
        if len(by) != 1:
            raise ValueError("strategy='lsh' supports exactly one by key pair")
        from ..pipelines.dedup import MinHashBands

        edges = build_edges_lsh(
            left, right, by, method, max_distance, q, max_prefix, prefix_weight, lid, rid,
            key=MinHashBands(64, 64, 2),
            num_partitions=num_partitions,
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return assemble(
        left,
        right,
        edges,
        how=how,
        lid=lid,
        rid=rid,
        distance_cols=distance_col_names(distance_col, by),
        num_partitions=num_partitions,
        drop_ids=[c for c in ("__fj_lid_src", "__fj_rid_src")],
        n_dist=len(by),
    )
