"""Blocked (shuffle) fuzzy-join edge builder — the scale path.

For inputs too large to broadcast (or self-joins for entity resolution),
candidate generation becomes a distributed blocking shuffle over the
same keys the broadcast plan probes (blocking/strategies.py):

1. **emit**: a stateless ``map_batches`` emits (block_key, side, id,
   key values) rows per input row from the strategy's ``emit_unique``.
   Only the id + key columns travel through the shuffle — wide payload
   columns (e.g. ``spans``) are joined back by id afterwards. The batch
   is factorized first, so per-value work (gram/soundex encoding) runs
   once per DISTINCT value and the fanout to rows is pure ``np.repeat``
   arithmetic.
2. **salt** (optional): a hot-key census (census.py: per-block counts
   pruned by a pigeonhole threshold, then exact counts of the few
   survivors, no shuffle) finds the blocks with a side over the floor,
   with every side's exact count, and the oversized ones are re-emitted
   under salted sub-keys — a grid split for two-table joins, a triangle
   split for self-joins — so no single block's scoring exceeds the pair
   budget. Every pair still meets in exactly one block.
3. **score**: one ``exchange()`` on the block key co-locates candidates
   in the caller's ``num_partitions`` partitions, and each partition is
   scored in one vectorized pass, not block by block. It factorizes its
   (block, side, value) groups once and expands every block's group
   cross product at once, in slabs of at most ``SLAB_PAIRS`` pairs (a
   block whose own cross is larger gets a slab of its own). A pair that
   shares several blocks is scored only in one of them: one call of the
   strategy's ownership rule (``strategy.owns``, decided on the base
   key of a salted sub-block) masks out the pairs another block owns.
   Each slab's distinct value pairs go through the scorer both plans
   share (:func:`~fozziejoin_ray.joins.string_join.score_candidates`)
   and fan out to rows per group, so each row pair still meets once;
   a self-join keeps each unordered id pair once, as id_a < id_b.

This generalizes the reference's in-memory candidate maps
(/root/reference/src/rust/src/string/edit/mod.rs:32-51 and
ngram/jaccard.rs:118-158) to an all-to-all exchange with explicit skew
handling, which the reference — single-process rayon — never needed.

Key values may contain ANY character except embedded NUL ('\\x00'):
numpy's fixed-width unicode arrays (used for vectorized key
construction) treat NULs as padding and silently drop them. The
reference's own data model shares the restriction — R character vectors
cannot hold embedded NULs at all.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from ..blocking.strategies import _cross_expand, id_salt_hash, strategy_for
from ..census import hot_key_census
from ..exchange import exchange, partition_ids
from ..semantics import canon_method
from .string_join import LID, RID, dist_names, group_positions, score_candidates, slab_bounds

BK = "__fj_bk"
SIDE = "__fj_side"
ID = "__fj_id"


def _salted_keys(bk: str, a: np.ndarray, b: np.ndarray, tri_sl: int | None = None):
    """Vectorized '\\x01{a}_{b};{bk}' (grid) or '\\x01T{sl}:{a}_{b};{bk}'
    (triangle). The salt HEADER comes first, marked by an SOH sentinel no
    strategy's keys start with (all begin with an ASCII letter; NUL would
    be stripped as padding by numpy's fixed-width unicode arrays) and
    closed by the first ';' — the header
    itself is machine-generated (digits/T/:/_ only), so that ';' is
    unambiguous and the base key's CONTENT (gram/variant text, which may
    contain any character) is never parsed for delimiters."""
    head = f"\x01T{tri_sl}:" if tri_sl is not None else "\x01"
    suffix = ";" + bk
    return np.char.add(
        np.char.add(np.char.add(np.char.add(head, a.astype("U")), "_"), b.astype("U")),
        suffix,
    ).astype(object)


def _emit_batches(
    strategy, side: str, id_col: str, key_cols: list[str], salts: dict | None,
    keys_only: bool = False,
):
    """Returns a map_batches fn emitting (bk, side, id, k0..kn) rows —
    factorize once, emit per unique value, fan out with np.repeat.
    ``keys_only`` emits just (bk, side), for the salt census: the id and
    key columns are never gathered."""
    side_num = {"left": 0, "right": 1, "self": 0}[side]

    def fn(t: pa.Table) -> pa.Table:
        import pandas as pd

        keys = [t.column(c).to_numpy(zero_copy_only=False) for c in key_cols]
        codes, uniq = pd.factorize(keys[0])
        uniq = np.asarray(uniq, dtype=object)
        uidx, bks = strategy.emit_unique(uniq, side)
        # group emissions by unique index for the per-row gather
        order = np.argsort(uidx, kind="stable")
        uidx_s, bks_s = uidx[order], bks[order]
        rng = np.arange(len(uniq), dtype=np.int64)
        starts = np.searchsorted(uidx_s, rng, side="left")
        counts = np.searchsorted(uidx_s, rng, side="right") - starts

        rows0 = np.nonzero(codes >= 0)[0]
        c = codes[rows0]
        cnt = counts[c]
        total = int(cnt.sum())
        rep_row = np.repeat(rows0, cnt)
        within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        em_keys = bks_s[np.repeat(starts[c], cnt) + within]

        if salts:
            hot_mask = np.isin(em_keys.astype("U"), np.array(list(salts)))
            rows_parts = [rep_row[~hot_mask]]
            keys_parts = [em_keys[~hot_mask]]
            if hot_mask.any():
                hr = rep_row[hot_mask]
                hk = em_keys[hot_mask].astype("U")
                ids = t.column(id_col).to_numpy(zero_copy_only=False)
                hh = id_salt_hash(ids[hr])
                for bk, (sl, sr) in salts.items():
                    m = hk == bk
                    if not m.any():
                        continue
                    rr, rh = hr[m], hh[m]
                    if side == "left":
                        li = np.repeat((rh % sl).astype(np.int64), sr)
                        jj = np.tile(np.arange(sr, dtype=np.int64), len(rr))
                        rows_parts.append(np.repeat(rr, sr))
                        keys_parts.append(_salted_keys(bk, li, jj))
                    elif side == "right":
                        rj = np.repeat((rh % sr).astype(np.int64), sl)
                        ii = np.tile(np.arange(sl, dtype=np.int64), len(rr))
                        rows_parts.append(np.repeat(rr, sl))
                        keys_parts.append(_salted_keys(bk, ii, rj))
                    else:  # self: triangle (sl encoded so the scorer can
                        # restrict same-salt id pairs to the diagonal block)
                        ss = np.repeat((rh % sl).astype(np.int64), sl)
                        tt = np.tile(np.arange(sl, dtype=np.int64), len(rr))
                        rows_parts.append(np.repeat(rr, sl))
                        keys_parts.append(
                            _salted_keys(bk, np.minimum(ss, tt), np.maximum(ss, tt), tri_sl=sl)
                        )
            rep_row = np.concatenate(rows_parts)
            em_keys = np.concatenate(keys_parts)

        cols = {
            BK: pa.array(em_keys, type=pa.string()),
            SIDE: pa.array(np.full(len(rep_row), side_num, dtype=np.int8)),
        }
        if keys_only:
            return pa.table(cols)
        take = pa.array(rep_row, pa.int64())
        idc = t.column(id_col).combine_chunks() if isinstance(t.column(id_col), pa.ChunkedArray) else t.column(id_col)
        cols[ID] = idc.take(take)
        for cname in key_cols:
            kc = t.column(cname)
            kc = kc.combine_chunks() if isinstance(kc, pa.ChunkedArray) else kc
            cols["k_" + cname] = kc.take(take)
        return pa.table(cols)

    return fn


def _plan_salts(
    sources: list[tuple[MaterializedDataset, Callable[[pa.Table], pa.Table]]],
    pair_budget: int,
    selfjoin: bool,
) -> dict[str, tuple[int, int]]:
    """Salt grids for blocks whose candidate-pair count exceeds the
    budget. ``sources`` pairs each materialized input with its keys-only
    emission function (one (block, side) row per emission); a hot-key
    census of those rows sends only the heavy blocks to the driver, with
    every side's exact count and no count shuffle."""
    # a block can only be hot if one side alone exceeds sqrt(budget)
    floor = max(64, int(math.sqrt(pair_budget)))
    hot = hot_key_census(sources, pa.schema([(BK, pa.string()), (SIDE, pa.int8())]), floor)
    by_bk: dict[str, dict[int, int]] = defaultdict(dict)
    for bk, side, n in zip(*(hot[c].to_pylist() for c in (BK, SIDE, "count_all"))):
        by_bk[bk][side] = n
    plan: dict[str, tuple[int, int]] = {}
    for bk, sides in by_bk.items():
        cl = sides.get(0, 0)
        cr = sides.get(1, 0)
        pairs = cl * (cl - 1) // 2 if selfjoin else cl * cr
        if pairs <= pair_budget:
            continue
        if selfjoin:
            k = max(2, math.ceil(math.sqrt(pairs / pair_budget * 2)))
            plan[bk] = (k, k)
        else:
            ratio = max(1.0, pairs / pair_budget)
            sl = max(1, math.ceil(math.sqrt(ratio * max(1, cl) / max(1, cr))))
            sr = max(1, math.ceil(ratio / sl))
            plan[bk] = (sl, sr)
    return plan


def _block_keys(ubk: np.ndarray):
    """Per distinct block key (salted or not): its base key, and for a
    self-join triangle sub-block '\\x01T{sl}:{i}_{j};{base}' the int64
    columns (sl, i, j) (sl = 0 elsewhere). Only the machine-made salt
    header, up to the first ';', is parsed."""
    import pandas as pd

    s = pd.Series(ubk, dtype=object)
    base = s.to_numpy(object).copy()
    tri = np.zeros((len(s), 3), np.int64)
    salted = s.str.startswith("\x01").to_numpy(bool)
    if salted.any():
        head_base = s[salted].str.split(";", n=1)
        base[salted] = head_base.str[1].to_numpy(object)
        t = head_base.str[0].str.extract(r"^\x01T(\d+):(\d+)_(\d+)$").dropna()
        tri[t.index.to_numpy()] = t.astype(np.int64).to_numpy()
    return base, tri


def _self_pairs(ids: np.ndarray, row_tri: np.ndarray):
    """A self-join partition's row filter for :func:`score_candidates`:
    keep each unordered id pair once, oriented id_a < id_b. In a salted
    triangle sub-block (``row_tri`` holds each row's block (sl, i, j),
    sl = 0 outside one), two ids with the SAME salt co-occur in all sl
    sub-blocks of the base block, so only the id pairs whose salt pair
    names the rows' own sub-block are kept (same-salt pairs on the
    diagonal), mirroring :class:`AllPairs`' ownership at the id level."""
    _, rank = np.unique(ids, return_inverse=True)
    salt = np.zeros(len(ids), np.int64)
    hot = np.flatnonzero(row_tri[:, 0])
    salt[hot] = (id_salt_hash(ids[hot]) % row_tri[hot, 0].astype(np.uint64)).astype(np.int64)

    def keep_once(apos, bpos, va, vb):
        # a value's rows crossed with themselves: keep each unordered id
        # pair once; distinct values: every id pair is unique —
        # normalize orientation so edges are canonical (id_a < id_b)
        ra, rb = rank[apos], rank[bpos]
        samev = va == vb
        keep = np.where(samev, ra < rb, True)
        swap = (~samev) & (ra > rb)
        apos, bpos = np.where(swap, bpos, apos), np.where(swap, apos, bpos)
        sa, sb = salt[apos], salt[bpos]
        t = row_tri[apos]
        keep &= (t[:, 0] == 0) | ((np.minimum(sa, sb) == t[:, 1]) & (np.maximum(sa, sb) == t[:, 2]))
        return apos, bpos, keep

    return keep_once


def _groups(bcode: np.ndarray, pos: np.ndarray, values: np.ndarray):
    """The (block, value) groups of rows ``pos``: the distinct values,
    and per group (ordered by block, then value) its block, its value
    and the (rows, starts, counts) fan-out of :func:`score_candidates`."""
    import pandas as pd

    vcode, uniq = pd.factorize(values[pos])
    nv = len(uniq)
    g, ginv = np.unique(bcode[pos] * nv + vcode, return_inverse=True)
    order, starts, counts = group_positions(ginv, len(g))
    return np.asarray(uniq, dtype=object), g // nv, g % nv, (pos[order], starts, counts)


def _make_partition_scorer(cfg: dict):
    strategy = strategy_for(
        cfg["method"], cfg["max_distance"], cfg["q"], allpairs_salts=cfg["allpairs_salts"]
    )
    ckpt = cfg.get("ckpt_parts")  # (num_parts, part_col) or None
    selfjoin = cfg["selfjoin"]
    params = {
        k: cfg[k] for k in ("method", "max_distance", "q", "max_prefix", "prefix_weight")
    }
    lkeys = cfg["left_keys"]
    nkeys = len(lkeys)

    def empty(t: pa.Table) -> pa.Table:
        idt = t.column(ID).type
        cols = {LID: pa.array([], idt), RID: pa.array([], idt)}
        for n in dist_names(nkeys):
            cols[n] = pa.array([], pa.float64())
        if ckpt is not None:
            cols[ckpt[1]] = pa.array([], pa.int64())
        return pa.table(cols)

    def slabs(t: pa.Table):
        """Yield the partition's scored slabs: every block's group cross
        expanded at once, the pairs another block owns dropped, the
        distinct value pairs scored, at most ``SLAB_PAIRS`` expanded
        pairs per slab (a block whose own cross is larger gets a slab
        of its own)."""
        import pandas as pd

        bcode, ubk = pd.factorize(t.column(BK).to_numpy(zero_copy_only=False))
        base, tri = _block_keys(np.asarray(ubk, dtype=object))
        bkeys_code, bkeys = pd.factorize(base)
        bkeys = np.asarray(bkeys, dtype=object)
        side = t.column(SIDE).to_numpy(zero_copy_only=False)
        ids = t.column(ID).to_numpy(zero_copy_only=False)
        # emitted key columns are unified under the left names for both
        # sides (see build_edges_blocked); row positions select the side
        kv = [t.column("k_" + c).to_numpy(zero_copy_only=False) for c in lkeys]
        if selfjoin:
            lu, lblk, lval, lg = _groups(bcode, np.arange(len(ids), dtype=np.int64), kv[0])
            ru, rblk, rval, rg = None, lblk, lval, lg
            row_filter = _self_pairs(ids, tri[bcode])
        else:
            lu, lblk, lval, lg = _groups(bcode, np.flatnonzero(side == 0), kv[0])
            ru, rblk, rval, rg = _groups(bcode, np.flatnonzero(side == 1), kv[0])
            row_filter = None
        nr = len(lu if ru is None else ru)
        # each block's groups are one run of the (block, value) order
        rng = np.arange(len(ubk))
        lstart = np.searchsorted(lblk, rng)
        lcount = np.searchsorted(lblk, rng, side="right") - lstart
        rstart = np.searchsorted(rblk, rng)
        rcount = np.searchsorted(rblk, rng, side="right") - rstart
        bounds = slab_bounds(lcount * rcount)
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            rep, al, bl = _cross_expand(lcount[b0:b1], rcount[b0:b1])
            if selfjoin:  # a block's group triangle, diagonal included
                upper = al <= bl
                rep, al, bl = rep[upper], al[upper], bl[upper]
            if not len(rep):
                continue
            blk = rep + b0
            ga, gb = lstart[blk] + al, rstart[blk] + bl
            va, vb = lval[ga], rval[gb]
            own = strategy.owns(lu, ru, va, vb, bkeys, bkeys_code[blk], selfjoin)
            ga, gb = ga[own], gb[own]
            vpair, pair = np.unique(va[own] * nr + vb[own], return_inverse=True)
            yield score_candidates(
                lu, ru, vpair // nr, vpair % nr, lg, rg, kv[1:], kv[1:],
                row_filter=row_filter, fan=(pair, ga, gb), **params,
            )

    def score_partition(t: pa.Table) -> pa.Table:
        # one exchange partition holds every row of each of its blocks
        # and may hold many blocks: score them all in one pass
        parts = [p for p in slabs(t) if len(p[0])]
        if not parts:
            return empty(t)
        lrow, rrow = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
        ids = t.column(ID).to_numpy(zero_copy_only=False)
        cols = {LID: pa.array(ids[lrow]), RID: pa.array(ids[rrow])}
        for k, n in enumerate(dist_names(nkeys)):
            cols[n] = pa.array(np.concatenate([p[2][k] for p in parts]), pa.float64())
        if ckpt is not None:
            # an edge's checkpoint partition is its owning block's
            bk = t.column(BK).take(pa.array(lrow, pa.int64()))
            cols[ckpt[1]] = pa.array(partition_ids([bk], ckpt[0]), pa.int64())
        return pa.table(cols)

    return score_partition


def build_edges_blocked(
    left: rd.Dataset,
    right: rd.Dataset | None,
    by: list[tuple[str, str]],
    method: str,
    max_distance: float,
    q: int,
    max_prefix: int,
    prefix_weight: float,
    lid: str,
    rid: str | None,
    *,
    pair_budget: int | None = 4_000_000,
    allpairs_salts: tuple[int, int] = (8, 8),
    ckpt_parts: tuple[int, list[int], str] | None = None,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Edges via blocking shuffle. ``right=None`` -> self-join on ``left``
    (edges have id_a < id_b, one per unordered pair). Scoring is one
    :func:`~fozziejoin_ray.exchange.exchange` on the block key into
    ``num_partitions`` partitions.

    ``ckpt_parts=(num_parts, missing, part_col)`` enables
    partition-granular checkpoint resume: each block (salted key) hashes
    to one of ``num_parts`` deterministic partitions; only blocks whose
    partition is in ``missing`` enter the shuffle — candidate generation
    AND scoring are skipped for partitions a previous run completed —
    and every edge carries its partition id in ``part_col``."""
    method = canon_method(method)
    selfjoin = right is None
    strategy = strategy_for(method, max_distance, q, allpairs_salts=allpairs_salts)

    lkeys = [l for l, _ in by]
    rkeys = [r for _, r in by]
    cfg = {
        "method": method,
        "max_distance": max_distance,
        "q": q,
        "max_prefix": max_prefix,
        "prefix_weight": prefix_weight,
        "selfjoin": selfjoin,
        "left_keys": lkeys,
        "right_keys": rkeys,
        "allpairs_salts": allpairs_salts,
        "ckpt_parts": None if ckpt_parts is None else (ckpt_parts[0], ckpt_parts[2]),
    }

    lsel = [lid] + sorted(set(lkeys) - {lid})
    left_p = left.select_columns(lsel)
    right_p = None if selfjoin else right.select_columns([rid] + sorted(set(rkeys) - {rid}))
    if pair_budget is not None:
        # the salt census runs the emission over these inputs block by
        # block; materialize the projected (id, keys) inputs once so the
        # upstream graph does not re-execute for the planning passes
        left_p = left_p.materialize()
        if right_p is not None:
            right_p = right_p.materialize()

    def emitters(salts, keys_only=False):
        if selfjoin:
            return [(left_p, _emit_batches(strategy, "self", lid, lkeys, salts, keys_only))]
        return [
            (left_p, _emit_batches(strategy, "left", lid, lkeys, salts, keys_only)),
            (right_p, _emit_batches(strategy, "right", rid, rkeys, salts, keys_only)),
        ]

    salts = None
    if pair_budget is not None:
        salts = _plan_salts(emitters(None, keys_only=True), pair_budget, selfjoin) or None

    emitted = [ds.map_batches(fn, batch_format="pyarrow") for ds, fn in emitters(salts)]
    if not selfjoin and lkeys != rkeys:
        # unify emitted key column names (k_<leftname>)
        emitted[1] = emitted[1].map_batches(
            lambda t: t.rename_columns(
                [
                    ("k_" + lkeys[rkeys.index(c[2:])]) if c.startswith("k_") else c
                    for c in t.column_names
                ]
            ),
            batch_format="pyarrow",
        )
    if ckpt_parts is not None:
        num_parts, missing, _ = ckpt_parts
        want = np.asarray(sorted(missing), dtype=np.int64)

        def part_filter(t: pa.Table) -> pa.Table:
            keep = np.isin(partition_ids([t.column(BK)], num_parts), want)
            return t.filter(pa.array(keep))

        emitted = [e.map_batches(part_filter, batch_format="pyarrow") for e in emitted]
    return exchange(
        emitted, BK, num_partitions, _make_partition_scorer(cfg), batch_format="pyarrow"
    )
