"""Count-based n-gram language-model scoring for corpus quality
filtering — the CCNet / RedPajama "perplexity filter" pattern: build a
(small relative to the corpus) LM once, broadcast it, and score every
document with a streaming per-batch map.

No reference analog (survey §2.6 extension). The production recipe
ships a pretrained KenLM binary to every worker; here the model is a
smoothed bigram table BUILT BY a distributed pass over a (possibly
different) text dataset, which keeps the whole operator inside the
engine and gives the driver oracle an exact SQL replication.

Model: add-``k`` smoothed bigram conditionals over the shared
lowercase-ASCII tokenizer (``[0-9a-z_]+``, the same class every text
operator and SQL oracle here uses)::

    P(w2 | w1) = (c(w1 w2) + k) / (c(w1 *) + k * V)

where ``c(w1 *)`` is the count of bigrams with prefix ``w1`` (so the
conditional normalizes exactly) and ``V`` is the number of distinct
unigram tokens in the model corpus. A document's score is the mean
``ln P`` over its bigrams (``lm_logprob``, higher = more fluent under
the model) and ``perplexity = exp(-lm_logprob)``; documents with
fewer than two tokens score null.

Scale shape:

- :func:`build_bigram_lm` — one ``map_batches`` pass emits per-batch
  PARTIAL bigram counts plus distinct-unigram marker rows (one fused
  table, so vocabulary and bigram counts share a single gram-keyed
  groupby); the reduced model (one row per distinct bigram — bounded
  by vocab², not by corpus size) is collected and ``ray.put`` once.
- :func:`lm_score` — every corpus batch is a plain task that reads the
  ``ray.put`` model (two sorted composite-hash arrays + counts, read
  zero-copy; probes are vectorized ``searchsorted``); the corpus
  streams with no shuffle.
  Out-of-vocabulary bigrams/prefixes fall back to count 0, which the
  smoothing keeps finite — scoring a corpus against a model built on a
  different (reference) corpus is the intended use.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_TOKEN_SPLIT = r"[^0-9a-z_]+"


def _flat_tokens(t: pa.Table, text_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(parent_row, token) arrays over the shared ASCII tokenizer."""
    txt = pc.fill_null(t.column(text_col), "")
    toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), _TOKEN_SPLIT)
    if isinstance(toks_list, pa.ChunkedArray):
        toks_list = toks_list.combine_chunks()
    flat = toks_list.flatten()
    parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    return (
        parents[keep].astype(np.int64),
        flat.to_numpy(zero_copy_only=False)[keep],
    )


def _bigram_views(parents: np.ndarray, toks: np.ndarray):
    """Aligned (parent, w1, w2) views: windows whose ends share a row."""
    if len(toks) < 2:
        z = np.empty(0, np.int64)
        return z, np.empty(0, object), np.empty(0, object)
    valid = parents[:-1] == parents[1:]
    return parents[:-1][valid], toks[:-1][valid], toks[1:][valid]


def _hash_pairs(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit composite hash of a bigram (siphash of
    each word, mixed asymmetrically — stable across processes)."""
    import pandas as pd

    h1 = pd.util.hash_array(np.asarray(w1, object), categorize=False)
    h2 = pd.util.hash_array(np.asarray(w2, object), categorize=False)
    return (h1 * np.uint64(0x9E3779B97F4A7C15)) ^ h2


def build_bigram_lm(ds: rd.Dataset, text_col: str = "text") -> dict:
    """Reduce ``ds`` to an add-k-ready bigram model dict:
    ``{"pair_h", "pair_c", "pre_h", "pre_c", "V"}`` — sorted composite
    hashes with counts for bigrams and prefixes, plus the distinct
    unigram count. One shuffle (the gram-keyed groupby); driver memory
    is one row per DISTINCT bigram, not per occurrence."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t, text_col)
        _, w1, w2 = _bigram_views(parents, toks)
        if len(w1):
            codes, uniq = pd.factorize(
                np.char.add(np.char.add(w1.astype("U"), "\x1f"), w2.astype("U"))
            )
            c = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
            split = np.char.partition(np.asarray(uniq, "U"), "\x1f")
            pw1 = split[:, 0].astype(object)
            pw2 = split[:, 2].astype(object)
        else:
            pw1 = pw2 = np.empty(0, object)
            c = np.empty(0, np.int64)
        # distinct-unigram marker rows (w, "") ride the same shuffle;
        # "" is unreachable as a real token (tokens are non-empty)
        uw = np.unique(toks) if len(toks) else np.empty(0, object)
        return pa.table(
            {
                "w1": pa.array(np.concatenate([pw1, uw.astype(object)]), pa.string()),
                "w2": pa.array(
                    np.concatenate([pw2, np.full(len(uw), "", object)]), pa.string()
                ),
                "c": pa.array(np.concatenate([c, np.zeros(len(uw), np.int64)])),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .sum("c")
    )
    parts = list(counts.iter_batches(batch_size=None, batch_format="pyarrow"))
    if parts:
        tbl = pa.concat_tables(parts)
    else:
        tbl = pa.table(
            {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
             "sum(c)": pa.array([], pa.int64())}
        )
    w1 = tbl["w1"].to_numpy(zero_copy_only=False)
    w2 = tbl["w2"].to_numpy(zero_copy_only=False)
    c = tbl["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
    is_uni = np.array([x == "" for x in w2], bool)
    V = int(is_uni.sum())
    bw1, bw2, bc = w1[~is_uni], w2[~is_uni], c[~is_uni]
    pair_h = _hash_pairs(bw1, bw2)
    order = np.argsort(pair_h)
    pair_h, pair_c = pair_h[order], bc[order]
    # prefix counts: sum of bigram counts per w1
    import pandas as pd

    pcodes, puniq = pd.factorize(bw1)
    pre_c = np.bincount(pcodes, weights=bc, minlength=len(puniq)).astype(np.int64)
    pre_h = pd.util.hash_array(np.asarray(puniq, object), categorize=False)
    porder = np.argsort(pre_h)
    return {
        "pair_h": pair_h,
        "pair_c": pair_c,
        "pre_h": pre_h[porder],
        "pre_c": pre_c[porder],
        "V": V,
    }


def _probe(sorted_h: np.ndarray, counts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Vectorized count lookup; misses (OOV) return 0."""
    if not len(sorted_h) or not len(h):
        return np.zeros(len(h), np.int64)
    pos = np.searchsorted(sorted_h, h)
    pos[pos == len(sorted_h)] = 0
    hit = sorted_h[pos] == h
    out = np.zeros(len(h), np.int64)
    out[hit] = counts[pos[hit]]
    return out


def _lm_score_batch(m: dict, t: pa.Table, text_col: str, k: float) -> pa.Table:
    """The per-batch task: one tokenize and two searchsorted probes of
    the model ``m`` (a :func:`build_bigram_lm` dict)."""
    import pandas as pd

    parents, toks = _flat_tokens(t, text_col)
    bp, w1, w2 = _bigram_views(parents, toks)
    lp_sum = np.zeros(t.num_rows, np.float64)
    lp_n = np.zeros(t.num_rows, np.int64)
    if len(bp):
        cb = _probe(m["pair_h"], m["pair_c"], _hash_pairs(w1, w2)).astype(np.float64)
        cp = _probe(
            m["pre_h"], m["pre_c"],
            pd.util.hash_array(np.asarray(w1, object), categorize=False),
        ).astype(np.float64)
        lp = np.log(cb + k) - np.log(cp + k * m["V"])
        lp_sum += np.bincount(bp, weights=lp, minlength=t.num_rows)
        lp_n += np.bincount(bp, minlength=t.num_rows)
    has = lp_n > 0
    mean = np.where(has, lp_sum / np.maximum(lp_n, 1), np.nan)
    ppl = np.where(has, np.exp(-mean), np.nan)
    return t.append_column(
        "lm_logprob", pa.array(mean, pa.float64(), mask=~has)
    ).append_column("perplexity", pa.array(ppl, pa.float64(), mask=~has))


def lm_score(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    model: dict | None = None,
    model_ds: rd.Dataset | None = None,
    model_text_col: str | None = None,
    k: float = 1.0,
) -> rd.Dataset:
    """Append ``lm_logprob`` / ``perplexity`` under an add-``k`` bigram
    LM. The model comes from (first match): ``model`` (a
    :func:`build_bigram_lm` dict), ``model_ds`` (built here), or ``ds``
    itself (self-perplexity — the driver-oracle mode). Smoothing ``k``
    must be > 0 so OOV grams stay finite."""
    import ray

    if k <= 0:
        raise ValueError(f"smoothing k must be > 0, got {k}")
    if model is None:
        if model_ds is None:
            # self-perplexity reads ds twice (model build + scoring):
            # materialize once so the upstream graph executes once
            ds = ds.materialize()
            model_ds = ds
        model = build_bigram_lm(model_ds, model_text_col or text_col)
    if model["V"] < 1:
        raise ValueError("model corpus has no tokens")
    mref = ray.put(model)
    k = float(k)

    def score(t: pa.Table) -> pa.Table:
        return _lm_score_batch(ray.get(mref), t, text_col, k)

    return ds.map_batches(score, batch_format="pyarrow")


def ppl_buckets(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: float = 1.0,
    qs: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0),
    round_dp: int = 3,
    labels: tuple[str, str, str] = ("head", "middle", "tail"),
) -> rd.Dataset:
    """CCNet-style perplexity bucketing: score every doc with the add-k
    bigram LM, then label it ``head`` / ``middle`` / ``tail`` by the
    corpus-level perplexity quantiles ``qs`` (head = lowest perplexity =
    most LM-like, the CCNet/RedPajama quality-tier convention).

    Thresholding happens on perplexity ROUNDED to ``round_dp`` decimals:
    rounding bounds the distinct-value cardinality that the exact
    distributed quantile pass (pipelines/stats.py value-counts) must
    move — a raw float64 column would have one distinct value per row,
    so at 100 TB the quantile step would otherwise collect an
    unbounded driver table. The same rounded value is compared against
    the thresholds, so engine and SQL agree bit-for-bit. Docs with NULL
    perplexity (< 2 tokens) get a NULL bucket.

    Output: ``id_col``, ``perplexity`` (round 6, the lm_score surface),
    ``ppl_bucket``. Scale: lm_score's one fused model groupby +
    broadcast, one bounded value-counts exchange for the thresholds,
    then a shuffle-free bucket map over the scored (materialized)
    dataset.
    """
    import pyarrow.compute as pc

    from .stats import NoValuesError, column_quantiles

    if not (0.0 < qs[0] < qs[1] < 1.0):
        raise ValueError(f"qs must be two increasing quantiles in (0,1), got {qs}")
    # scored feeds both the threshold pass and the bucket map: one run
    scored = lm_score(ds, text_col=text_col, k=k).materialize()

    def proj(t: pa.Table) -> pa.Table:
        pr = pc.round(t["perplexity"], ndigits=round_dp, round_mode="half_towards_infinity")
        out = pa.table({id_col: t[id_col], "__pr": pr})
        return out.filter(pc.is_valid(out["__pr"]))

    try:
        thr = column_quantiles(
            scored.map_batches(proj, batch_format="pyarrow"), "__pr", list(qs)
        )
    except NoValuesError:
        # no scoreable document (every doc < 2 tokens): the SQL oracle
        # returns one row per doc with a NULL bucket — mirror that
        # instead of propagating column_quantiles' no-values error.
        t1 = t2 = None
    else:
        t1, t2 = thr.column("value").to_pylist()

    if t1 is None:

        def assign_null(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: t[id_col],
                    "perplexity": pc.round(
                        t["perplexity"], ndigits=6, round_mode="half_towards_infinity"
                    ),
                    "ppl_bucket": pa.nulls(t.num_rows, pa.string()),
                }
            )

        return scored.map_batches(assign_null, batch_format="pyarrow")

    def assign(t: pa.Table) -> pa.Table:
        pr = pc.round(t["perplexity"], ndigits=round_dp, round_mode="half_towards_infinity")
        bucket = pc.if_else(
            pc.less_equal(pr, pa.scalar(t1, pa.float64())),
            pa.scalar(labels[0], pa.string()),
            pc.if_else(
                pc.less_equal(pr, pa.scalar(t2, pa.float64())),
                pa.scalar(labels[1], pa.string()),
                pa.scalar(labels[2], pa.string()),
            ),
        )
        return pa.table(
            {
                id_col: t[id_col],
                "perplexity": pc.round(t["perplexity"], ndigits=6, round_mode="half_towards_infinity"),
                "ppl_bucket": bucket,
            }
        )

    return scored.map_batches(assign, batch_format="pyarrow")
