"""Mergeable sketches: count-min heavy hitters over a token stream.

Two siblings:

- :func:`heavy_hitters` — EXACT top-k terms by corpus frequency: the
  value-counts combiner (one partial-count pass, one tiny exchange)
  followed by a per-partition top-k prune and a k-row global sort.
  Shuffle volume is bounded by distinct-term cardinality; this is the
  oracle-checkable path and the right one whenever the vocabulary fits
  an exchange (true for word-like token spaces).
- :func:`cms_heavy_hitters` — count-min sketch + per-batch candidate
  tracking, for streams whose key space is too large to exchange
  (URLs, n-grams, raw bytes). Every batch reduces to a fixed
  ``depth x width`` int64 matrix plus its local top candidates; CMS
  partials merge by ADDITION (the defining sketch property), so the
  driver folds num_batches tiny matrices and estimates each surviving
  candidate with the classic min-over-rows upper bound. Deterministic
  (seeded hash family), one-sided error: estimates only ever
  OVER-count, bounded by ``2N/width`` with prob ``1 - 2^-depth``
  (Cormode & Muthukrishnan 2005). No SQL oracle (the sketch is the
  point); pytest pins exactness on under-width streams and the
  top-k recovery + upper-bound invariants on skewed ones.

Both tokenize with the shared lowercase ASCII convention
(pipelines/lm.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange
from ..kernels.stablehash import stable_col_hash
from .lm import _flat_tokens


def heavy_hitters(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    top_k: int = 50,
) -> rd.Dataset:
    """Exact top ``top_k`` tokens by total corpus count, ranked by
    (count DESC, token) — a total order, so cross-engine deterministic.
    Output: ``(token, n)``."""
    import pandas as pd

    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    def partial(t: pa.Table) -> pa.Table:
        _, toks = _flat_tokens(t, text_col)
        codes, uniq = pd.factorize(toks)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {"token": pa.array(np.asarray(uniq, dtype=object), pa.string()), "n": pa.array(cnt)}
        )

    merged = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .sum("n")
    )

    def prune(t: pa.Table) -> pa.Table:
        tok = t["token"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.sort(np.lexsort((tok, -n))[:top_k])
        return pa.table(
            {
                "token": pa.array(tok[order], pa.string()),
                "n": pa.array(n[order]),
                "__neg": pa.array(-n[order]),
            }
        )

    out = merged.map_batches(prune, batch_format="pyarrow").sort(["__neg", "token"]).limit(top_k)
    return out.map_batches(lambda t: t.drop_columns(["__neg"]), batch_format="pyarrow")


def _cms_hashes(toks: np.ndarray, depth: int, width: int, seed: int) -> np.ndarray:
    """(depth, n) column indices for each token — pandas siphash with
    per-row derived keys (stable across processes)."""
    import pandas as pd

    cols = np.empty((depth, len(toks)), np.int64)
    for d in range(depth):
        h = pd.util.hash_array(toks, categorize=False, hash_key=f"{seed + d:016d}")
        cols[d] = (h % np.uint64(width)).astype(np.int64)
    return cols


def cms_heavy_hitters(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    top_k: int = 50,
    width: int = 4096,
    depth: int = 4,
    candidates_per_batch: int = 256,
    seed: int = 7,
) -> pa.Table:
    """Approximate top-k tokens via a count-min sketch (see module
    docstring). Returns an Arrow table ``(token, n_est)`` ranked by
    (estimate DESC, token); ``n_est >= true count`` always, and a true
    heavy hitter is missed only if it never enters any batch's local
    top-``candidates_per_batch`` — size that to the batch skew."""
    import pandas as pd

    if top_k < 1 or width < 1 or depth < 1:
        raise ValueError("top_k, width and depth must all be >= 1")

    def partial(t: pa.Table) -> pa.Table:
        _, toks = _flat_tokens(t, text_col)
        codes, uniq = pd.factorize(toks)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        uniq = np.asarray(uniq, dtype=object)
        sk = np.zeros((depth, width), np.int64)
        if len(uniq):
            cols = _cms_hashes(uniq, depth, width, seed)
            for d in range(depth):
                np.add.at(sk[d], cols[d], cnt)
        top = np.sort(np.lexsort((uniq.astype("U"), -cnt))[: min(candidates_per_batch, len(uniq))])
        return pa.table(
            {
                "sketch": pa.array([sk.ravel()]),
                "cand": pa.array([uniq[top].tolist()]),
            }
        )

    def merge_rows(t: pa.Table) -> pa.Table:
        """Tree-reduce level: fold up to a batch of per-block sketches
        into ONE row (CMS partials merge by addition), so the driver
        fold sees num_blocks/64 rows instead of num_blocks."""
        sks = t["sketch"].combine_chunks()
        merged = (
            sks.flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(-1, depth * width)
            .sum(axis=0)
        )
        cu = pc.unique(t["cand"].combine_chunks().flatten())
        return pa.table({"sketch": pa.array([merged]), "cand": pa.array([cu.to_pylist()])})

    reduced = (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(merge_rows, batch_format="pyarrow", batch_size=64)
    )
    # stream the reduced rows (no driver-side list()), summing vectorized
    sk = np.zeros(depth * width, np.int64)
    cands: set = set()
    for bt in reduced.iter_batches(batch_size=None, batch_format="pyarrow"):
        col = bt["sketch"].combine_chunks()
        sk += col.flatten().to_numpy(zero_copy_only=False).reshape(-1, depth * width).sum(axis=0)
        cands.update(bt["cand"].combine_chunks().flatten().to_pylist())
    sk = sk.reshape(depth, width)
    if not cands:
        return pa.table({"token": pa.array([], pa.string()), "n_est": pa.array([], pa.int64())})
    carr = np.array(sorted(cands), dtype=object)
    cols = _cms_hashes(carr, depth, width, seed)
    est = sk[np.arange(depth)[:, None], cols].min(axis=0)
    order = np.lexsort((carr.astype("U"), -est))[:top_k]
    return pa.table(
        {
            "token": pa.array(carr[order], pa.string()),
            "n_est": pa.array(est[order], pa.int64()),
        }
    )


def hll_count_distinct(
    ds: rd.Dataset,
    col: str,
    *,
    p: int = 12,
) -> rd.Dataset:
    """Approximate COUNT(DISTINCT ``col``) via HyperLogLog (Flajolet et
    al. 2007) — the sketch sibling of
    :func:`fozziejoin_ray.pipelines.stats.group_count_distinct`, for
    key spaces too large to exchange even as distinct pairs (URLs, raw
    n-grams, user ids at web scale). ``m = 2**p`` registers; standard
    error ~ ``1.04/sqrt(m)`` (~1.6% at the default p=12). Deterministic:
    the value hash is the fixed-key siphash used engine-wide, so the
    estimate is a pure function of the data. Uses linear counting below
    the classic ``2.5m`` small-range threshold (near-exact there).

    Scale shape: every batch reduces to ONE m-byte register row
    (vectorized: top-``p`` hash bits index the register, the rank is
    the leading-zero count of the remaining ``64-p`` bits — exact in
    float64 for p >= 11 since 64-p <= 53); rows tree-merge by
    elementwise MAX (the defining HLL property) in ``map_batches``
    levels of 64, and the driver folds the few survivors. Output: one
    row ``(n_distinct, n_exact_registers...)``: the rounded estimate
    plus the sketch parameters for auditability. No SQL oracle (the
    sketch is the point); pytest pins the error bound on large
    cardinalities and near-exactness in the linear-counting regime."""
    import pandas as pd

    if not 11 <= p <= 18:
        # lower bound is the float64 mantissa: the rank computation needs
        # 64-p <= 53 bits exact in np.frexp
        raise ValueError(f"p must be in [11, 18], got {p}")
    m = 1 << p
    shift = np.uint64(64 - p)
    wbits = 64 - p
    mask = np.uint64((1 << wbits) - 1)

    def partial(t: pa.Table) -> pa.Table:
        s = t.column(col).to_pandas()
        # dtype-stable value hash (stablehash.py): the raw to_numpy path
        # hashed an int64 batch and a null-degraded float64 batch of the
        # same value differently, inflating estimates (ADVICE r4).
        # Nulls are masked AFTER hashing by position — SQL
        # COUNT(DISTINCT) ignores them
        h = stable_col_hash(s)
        valid = s.notna().to_numpy()
        h = h[valid]
        reg = np.zeros(m, dtype=np.uint8)
        if len(h):
            idx = (h >> shift).astype(np.int64)
            w = (h & mask).astype(np.uint64)
            _, e = np.frexp(w.astype(np.float64))
            rank = np.where(w > 0, wbits - e + 1, wbits + 1).astype(np.uint8)
            np.maximum.at(reg, idx, rank)
        return pa.table({"reg": pa.array([reg])})

    def merge_rows(t: pa.Table) -> pa.Table:
        rs = t["reg"].combine_chunks()
        merged = (
            rs.flatten().to_numpy(zero_copy_only=False).reshape(-1, m).max(axis=0)
        ).astype(np.uint8)
        return pa.table({"reg": pa.array([merged])})

    reduced = (
        ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(merge_rows, batch_format="pyarrow", batch_size=64)
    )
    reg = np.zeros(m, dtype=np.uint8)
    for bt in reduced.iter_batches(batch_size=None, batch_format="pyarrow"):
        part = bt["reg"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        reg = np.maximum(reg, part.reshape(-1, m).max(axis=0).astype(np.uint8))

    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1.0 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting (small range)
    return rd.from_arrow(
        pa.table(
            {
                "n_distinct": pa.array([int(round(est))], pa.int64()),
                "p": pa.array([p], pa.int64()),
                "zero_registers": pa.array([zeros], pa.int64()),
            }
        )
    )


def group_hll_distinct(
    ds: rd.Dataset,
    keys: list[str],
    col: str,
    *,
    p: int = 12,
    out_col: str = "n_distinct",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Approximate ``COUNT(DISTINCT col)`` PER KEY TUPLE via HyperLogLog
    — the web-scale form of
    :func:`fozziejoin_ray.pipelines.stats.group_count_distinct`, for
    when even the distinct (key, value) pair set is too large to
    exchange (distinct users per domain over a year of events). Same
    register math as :func:`hll_count_distinct` (fixed-key siphash,
    ~1.04/sqrt(2^p) standard error, linear counting small-range), so
    estimates are deterministic and partitioning-invariant.

    Scale shape: every batch reduces to ONE ``m = 2**p``-byte register
    row per key present in the batch (np.maximum.at over the composite
    (group, register) index — vectorized), then a single key exchange
    merges rows by elementwise max in each exchange partition. Exchange
    volume: m bytes per (batch, key), never per row. Output:
    ``(keys..., out_col)``. NULL values ignored; NULL keys group
    together."""
    import pandas as pd

    if not keys:
        raise ValueError("keys must name at least one grouping column")
    if not 11 <= p <= 18:
        raise ValueError(f"p must be in [11, 18], got {p}")
    m = 1 << p
    shift = np.uint64(64 - p)
    wbits = 64 - p
    mask = np.uint64((1 << wbits) - 1)
    alpha = 0.7213 / (1.0 + 1.079 / m)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        # keep NULL-value rows for GROUPING (a key whose values are all
        # NULL must surface with estimate 0, matching the exact sibling
        # group_count_distinct); mask them out of the register math only
        df = df[keys + [col]]
        if not len(df):
            out = pd.DataFrame({k: df[k] for k in keys})
            out["__reg"] = pd.Series([], dtype=object)
            return out
        # EXACT intra-batch grouping (groupby.ngroup, C-vectorized) —
        # factorizing a 64-bit key hash here could silently merge two
        # colliding tuples with no recovery; the exchange co-locates
        # several tuples per partition and the merge groupby separates them
        codes = (
            df.groupby(keys, sort=False, dropna=False).ngroup().to_numpy()
        )
        n_groups = int(codes.max()) + 1
        # representative row per key tuple for the output key columns
        first = np.zeros(n_groups, dtype=np.int64)
        first[codes[::-1]] = np.arange(len(df))[::-1]
        valid = df[col].notna().to_numpy()
        # dtype-stable value hash: hashing the raw block's numpy values
        # gave the same value two hashes across batches (int64 block vs
        # null-degraded float64 block), inflating estimates (ADVICE r4)
        h = stable_col_hash(df[col])[valid]
        idx = (h >> shift).astype(np.int64)
        w = (h & mask).astype(np.uint64)
        _, e = np.frexp(w.astype(np.float64))
        rank = np.where(w > 0, wbits - e + 1, wbits + 1).astype(np.uint8)
        regs = np.zeros((n_groups, m), dtype=np.uint8)
        np.maximum.at(regs.reshape(-1), codes[valid] * m + idx, rank)
        out = df.iloc[first][keys].reset_index(drop=True)
        out["__reg"] = [r.tobytes() for r in regs]
        return out

    def merge(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(keys, sort=False, dropna=False)["__reg"]

        def est(rows) -> int:
            reg = np.zeros(m, dtype=np.uint8)
            for rb in rows:
                reg = np.maximum(reg, np.frombuffer(rb, dtype=np.uint8))
            e = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
            zeros = int((reg == 0).sum())
            if e <= 2.5 * m and zeros > 0:
                e = m * np.log(m / zeros)
            return int(round(e))

        return g.apply(est).rename(out_col).reset_index()

    partials = ds.select_columns(list(dict.fromkeys(keys + [col]))).map_batches(
        partial, batch_format="pandas"
    )
    return exchange(partials, keys, num_partitions, merge, batch_format="pandas")
