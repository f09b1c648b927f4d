"""Fuzzy string joins: fozziejoin semantics on Ray Data.

Two physical plans, chosen by ``strategy``:

- ``broadcast`` (default when the right side is small): the dedup'd right
  key index is built once, ``ray.put`` once, and read by an actor pool
  that streams left batches through vectorized scoring — the distributed
  analog of the reference's one-sided in-memory index design
  (/root/reference/src/rust/src/string/edit/mod.rs:32-48, utils.rs:7-20).
  The left side streams with backpressure; nothing materializes it.
- ``blocked`` (both sides large, or self-join): recall-complete block
  keys (blocking/strategies.py) are emitted per side, co-located by one
  ``exchange()`` on the block key into ``num_partitions`` partitions,
  and candidate pairs are scored block by block inside each partition
  — see blocked.py.

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

from ..kernels.strdist import get_qgrams, jaccard_set_batch, score_pairs
from ..semantics import canon_method, check_mode, distance_col_names
from .modes import assemble, normalize_by
from .rowids import ensure_row_id, exceeds_rows

LID = "__fj_lid"
RID = "__fj_rid"


def refine_score(method: str, a: list, b: list, *, q: int, max_prefix: int, prefix_weight: float):
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


class RightStringIndex:
    """Dedup'd right-side key index + method-specific candidate structure.

    Built on the driver from the (small) right table, broadcast once via
    ``ray.put``, shared read-only by every scorer actor. Fully
    vectorized: uniques come from one factorize, row fanout lists are
    flat (order, starts, counts) arrays, and candidate probing is array
    ops per method (length buckets / inverted-gram bucket cross /
    soundex code buckets / full cross) — no per-value Python in the
    scorer's hot path."""

    def __init__(
        self,
        key_values: np.ndarray,
        rids: np.ndarray,
        extra: dict[str, np.ndarray],
        method: str,
        max_distance: float,
        q: int,
        rid_type: "pa.DataType | None" = None,
    ):
        import pandas as pd

        self.method = canon_method(method)
        self.max_distance = max_distance
        self.q = q
        self.rids = rids
        self.rid_type = rid_type  # arrow type: empty batches must emit typed ids
        self.extra = extra

        codes, uniq = pd.factorize(np.asarray(key_values, dtype=object))
        self.uvals: np.ndarray = np.asarray(uniq, dtype=object)
        self.row_order, self.row_starts, self.row_counts = group_positions(
            codes.astype(np.int64), len(self.uvals)
        )

        m = self.method
        n_u = len(self.uvals)
        if m in ("levenshtein", "osa", "damerau_levensthein", "lcs", "hamming"):
            self.window = 0 if m == "hamming" else int(max_distance)
            lens = pd.Series(self.uvals, dtype=object).str.len().to_numpy(np.int64) if n_u else np.empty(0, np.int64)
            lcodes, self.len_vals = pd.factorize(lens)
            self.len_order, self.len_starts, self.len_counts = group_positions(
                lcodes.astype(np.int64), len(self.len_vals)
            )
            self.len_index = pd.Index(self.len_vals)
            # bag-bound prefilter state: built once, shipped with the index
            from ..kernels.strdist import _char_bucket_counts

            self.bag_C, self.bag_lens = _char_bucket_counts(self.uvals)
        elif m in ("qgram", "cosine", "jaccard"):
            self.allpairs = m in ("cosine", "jaccard") and max_distance >= 1.0
            gv: list[int] = []
            gg: list[str] = []
            small: list[int] = []
            for i, v in enumerate(self.uvals):
                prof = get_qgrams(v, q)
                for g in prof:
                    gv.append(i)
                    gg.append(g)
                if m == "qgram" and sum(prof.values()) <= max_distance:
                    small.append(i)
            gcodes, gram_vocab = pd.factorize(np.asarray(gg, dtype=object))
            self.gram_vocab = pd.Index(gram_vocab)
            self.gram_uidx = np.asarray(gv, np.int64)
            self.gram_order, self.gram_starts, self.gram_counts = group_positions(
                gcodes.astype(np.int64), len(gram_vocab)
            )
            self.small = np.asarray(small, np.int64)
        elif m == "soundex":
            from ..blocking.strategies import SoundexBlocks

            p, a = SoundexBlocks._codes(self.uvals) if n_u else (
                np.empty(0, "U16"), np.empty(0, "U16")
            )
            has_alt = (a != "") & (a != p)
            flat_codes = np.concatenate([p, a[has_alt]])
            flat_uidx = np.concatenate(
                [np.arange(n_u, dtype=np.int64), np.nonzero(has_alt)[0]]
            )
            ccodes, code_vocab = pd.factorize(flat_codes)
            self.code_vocab = pd.Index(code_vocab)
            self.code_uidx = flat_uidx
            self.code_order, self.code_starts, self.code_counts = group_positions(
                ccodes.astype(np.int64), len(code_vocab)
            )
        # jaro_winkler: full scan of self.uvals (reference scans all pairs,
        # jaro_winkler.rs:26-33)

    def candidate_pairs(self, lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(li, ri): unique-value candidate pairs — li into ``lu`` (the
        batch's distinct left values), ri into ``self.uvals`` — as array
        ops; each pair at most once."""
        import pandas as pd

        from ..blocking.strategies import _cross_expand, _full_cross

        m = self.method
        n_r = len(self.uvals)
        n_l = len(lu)
        if n_l == 0 or n_r == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if m in ("levenshtein", "osa", "damerau_levensthein", "lcs", "hamming"):
            lens = pd.Series(lu, dtype=object).str.len().to_numpy(np.int64)
            lc, l_lens = pd.factorize(lens)
            lorder, lstarts, lcounts = group_positions(lc.astype(np.int64), len(l_lens))
            li_parts: list[np.ndarray] = []
            ri_parts: list[np.ndarray] = []
            for off in range(-self.window, self.window + 1):
                pos = self.len_index.get_indexer(l_lens + off)
                hit = np.nonzero(pos >= 0)[0]
                if not len(hit):
                    continue
                rg = pos[hit]
                rep, al, bl = _cross_expand(lcounts[hit], self.len_counts[rg])
                if not len(rep):
                    continue
                li_parts.append(lorder[lstarts[hit][rep] + al])
                ri_parts.append(self.len_order[self.len_starts[rg][rep] + bl])
            if not li_parts:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            return np.concatenate(li_parts), np.concatenate(ri_parts)
        if m in ("qgram", "cosine", "jaccard"):
            if self.allpairs:
                return _full_cross(n_l, n_r)
            lv: list[int] = []
            lg: list[str] = []
            for i, v in enumerate(lu):
                for g in get_qgrams(v, self.q):
                    lv.append(i)
                    lg.append(g)
            pairs_parts = []
            if lg:
                gcode = self.gram_vocab.get_indexer(np.asarray(lg, dtype=object))
                ok = gcode >= 0
                lvi = np.asarray(lv, np.int64)[ok]
                gc = gcode[ok]
                order = np.argsort(gc, kind="stable")
                gcs, lvs = gc[order], lvi[order]
                ucodes, ustarts, ucounts = (
                    np.unique(gcs, return_index=True, return_counts=True)
                )
                rep, al, bl = _cross_expand(ucounts, self.gram_counts[ucodes])
                if len(rep):
                    li = lvs[ustarts[rep] + al]
                    ri = self.gram_uidx[
                        self.gram_order[self.gram_starts[ucodes][rep] + bl]
                    ]
                    pairs_parts.append(li * n_r + ri)
            if m == "qgram" and len(self.small):
                li, sj = _full_cross(n_l, len(self.small))
                pairs_parts.append(li * n_r + self.small[sj])
            if not pairs_parts:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            keys = np.unique(np.concatenate(pairs_parts))
            return keys // n_r, keys % n_r
        if m == "soundex":
            from ..blocking.strategies import SoundexBlocks

            p, a = SoundexBlocks._codes(lu)
            has_alt = (a != "") & (a != p)
            flat = np.concatenate([p, a[has_alt]])
            fui = np.concatenate([np.arange(n_l, dtype=np.int64), np.nonzero(has_alt)[0]])
            ccode = self.code_vocab.get_indexer(flat)
            ok = ccode >= 0
            cc, ui = ccode[ok], fui[ok]
            order = np.argsort(cc, kind="stable")
            ccs, uis = cc[order], ui[order]
            ucodes, ustarts, ucounts = np.unique(ccs, return_index=True, return_counts=True)
            rep, al, bl = _cross_expand(ucounts, self.code_counts[ucodes])
            if not len(rep):
                return np.empty(0, np.int64), np.empty(0, np.int64)
            li = uis[ustarts[rep] + al]
            ri = self.code_uidx[self.code_order[self.code_starts[ucodes][rep] + bl]]
            keys = np.unique(li * n_r + ri)
            return keys // n_r, keys % n_r
        return _full_cross(n_l, n_r)  # jaro_winkler


class BroadcastStringScorer:
    """Actor-pool stage: streams left batches against the broadcast right
    index; emits the match-edge table (lid, rid, per-key distances)."""

    def __init__(self, index_ref, cfg: dict):
        self.idx: RightStringIndex = ray.get(index_ref) if not isinstance(
            index_ref, RightStringIndex
        ) else index_ref
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        from ..blocking.strategies import _cross_expand

        cfg = self.cfg
        idx = self.idx
        by = cfg["by"]
        method = idx.method
        maxd = idx.max_distance
        lkey0 = by[0][0]

        lvals = batch.column(lkey0).to_numpy(zero_copy_only=False)
        lids = batch.column(cfg["lid"]).to_numpy(zero_copy_only=False)

        empty = self._empty_result(batch, cfg)
        # batch-level value dedup (reference dedups the whole frame;
        # same result, scoring cost amortized per batch here)
        lcodes, lu = pd.factorize(lvals)
        lu = np.asarray(lu, dtype=object)
        lorder, lstarts, lcounts = group_positions(lcodes.astype(np.int64), len(lu))

        li, ri = idx.candidate_pairs(lu)
        if not len(li):
            return empty

        # recall-lossless bag-distance prefilter for the edit family:
        # kills most length-window candidates at ~1/3 the kernel's cost
        # (right-side counts precomputed on the broadcast index)
        if len(li) >= 4096 and getattr(idx, "bag_C", None) is not None and method in (
            "levenshtein", "osa", "damerau_levensthein", "lcs", "hamming"
        ):
            from ..kernels.strdist import _char_bucket_counts, edit_bag_bound_counts

            Cl, ll = _char_bucket_counts(lu)
            lbnd = edit_bag_bound_counts(
                Cl, ll, idx.bag_C, idx.bag_lens, li, ri, lcs=(method == "lcs")
            )
            pre = lbnd <= maxd
            li, ri = li[pre], ri[pre]
            if not len(li):
                return empty

        d0 = score_pairs(
            method,
            list(lu[li]),
            list(idx.uvals[ri]),
            q=idx.q,
            max_prefix=cfg["max_prefix"],
            prefix_weight=cfg["prefix_weight"],
        )
        keep = d0 <= maxd
        if not keep.any():
            return empty
        li, ri, d0 = li[keep], ri[keep], d0[keep]

        # fan out surviving unique-value pairs to row pairs: one
        # variable-size cross-product expansion
        rep, al, bl = _cross_expand(lcounts[li], idx.row_counts[ri])
        if not len(rep):
            return empty
        lrow = lorder[lstarts[li][rep] + al]
        rrow = idx.row_order[idx.row_starts[ri][rep] + bl]
        dists = [d0[rep]]

        # multi-key AND refinement (string/mod.rs:95-127)
        for lkey, rkey in by[1:]:
            lv = batch.column(lkey).to_numpy(zero_copy_only=False)[lrow]
            rv = idx.extra[rkey][rrow]
            ok = ~(pd.isna(lv) | pd.isna(rv))
            dk = np.full(len(lv), np.inf)
            if ok.any():
                ii = np.nonzero(ok)[0]
                dk[ii] = refine_score(
                    method,
                    list(lv[ii]),
                    list(rv[ii]),
                    q=idx.q,
                    max_prefix=cfg["max_prefix"],
                    prefix_weight=cfg["prefix_weight"],
                )
            keep2 = dk <= maxd
            lrow = lrow[keep2]
            rrow = rrow[keep2]
            dists = [d[keep2] for d in dists] + [dk[keep2]]
            if not len(lrow):
                return empty

        cols: dict[str, pa.Array] = {
            LID: pa.array(lids[lrow]),
            RID: pa.array(idx.rids[rrow], type=idx.rid_type),
        }
        for name, d in zip(dist_names(len(by)), dists):
            cols[name] = pa.array(d, type=pa.float64())
        return pa.table(cols)

    def _empty_result(self, batch: pa.Table, cfg: dict) -> pa.Table:
        lid_type = batch.schema.field(cfg["lid"]).type
        rid_type = self.idx.rid_type or pa.int64()
        cols = {
            LID: pa.array([], type=lid_type),
            RID: pa.array([], type=rid_type),
        }
        for name in dist_names(len(cfg["by"])):
            cols[name] = pa.array([], type=pa.float64())
        return pa.table(cols)


def _collect_right(right: rd.Dataset, cols: list[str]) -> pa.Table:
    tables = [
        t if isinstance(t, pa.Table) else pa.Table.from_batches([t])
        for t in right.select_columns(cols).iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    if not tables:
        return pa.table({c: pa.array([], type=pa.null()) for c in cols})
    return pa.concat_tables(tables)


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
    *,
    concurrency=(1, 8),
    batch_size: int = 8192,
) -> rd.Dataset:
    right_cols = [rid] + sorted({r for _, r in by})
    rt = _collect_right(right, right_cols)
    key0 = by[0][1]
    extra = {
        r: rt.column(r).to_numpy(zero_copy_only=False) for _, r in by[1:]
    }
    index = RightStringIndex(
        rt.column(key0).to_numpy(zero_copy_only=False),
        rt.column(rid).to_numpy(zero_copy_only=False),
        extra,
        method,
        max_distance,
        q,
        rid_type=rt.schema.field(rid).type,
    )
    index_ref = ray.put(index)
    cfg = {
        "by": by,
        "lid": lid,
        "max_prefix": max_prefix,
        "prefix_weight": prefix_weight,
    }
    left_cols = [lid] + sorted({l for l, _ in by})
    return left.select_columns(left_cols).map_batches(
        BroadcastStringScorer,
        fn_constructor_args=(index_ref, cfg),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
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
    broadcast_limit: int = 2_000_000,
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
        strategy = "blocked" if exceeds_rows(right, broadcast_limit) else "broadcast"
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
