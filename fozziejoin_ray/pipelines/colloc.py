"""PMI collocation mining: the corpus's top-k most statistically
associated word bigrams — the classic phrase/term-of-art detector a
corpus-analysis pass runs next to TF-IDF and the bigram LM.

PMI(w1, w2) = ln( (c12 / Nb) / ((c1 / Nu) * (c2 / Nu)) ) over the
shared lowercase ASCII tokenizer (pipelines/lm.py), where c12 is the
bigram count, c1/c2 the unigram counts, Nb/Nu the total bigram/token
counts. Bigrams below ``min_count`` are noise (PMI's low-frequency
bias) and are dropped before ranking. Ranking is by
(ROUND(pmi, 6) DESC, w1, w2) — rounding first makes the boundary
deterministic across engines, the word tiebreak makes the order total.

Scale shape: ONE pass over the input emits per-batch PARTIAL counts
for unigrams (as ``(w, NULL)``) and bigrams on the same stream; ONE
word-hash exchange sums them; unigram counts return to the driver
(vocabulary-bounded — the same boundedness the bigram-LM broadcast
relies on) and broadcast via ``ray.put``; each bigram partition then
computes its PMI locally and prunes to its local top-k, so the final
distributed sort+limit sees <= top_k * num_partitions rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange
from .lm import _bigram_views, _flat_tokens

_EMPTY_OUT = {
    "w1": pa.string(),
    "w2": pa.string(),
    "c12": pa.int64(),
    "pmi": pa.float64(),
}


def _empty(cols: dict, extra: dict | None = None) -> pa.Table:
    cols = dict(cols, **(extra or {}))
    return pa.table({k: pa.nulls(0, t) for k, t in cols.items()})


def pmi_collocations(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    top_k: int = 100,
    min_count: int = 5,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Top ``top_k`` bigrams by PMI (see module docstring).
    Output: ``(w1, w2, c12, pmi)`` with pmi rounded to 6 decimals."""
    import pandas as pd
    import ray

    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")

    def partial(t: pa.Table) -> pa.Table:
        parents, toks = _flat_tokens(t, text_col)
        _, b1, b2 = _bigram_views(parents, toks)
        ug = pd.Series(toks).groupby(toks, sort=False).size()
        bg = (
            pd.DataFrame({"w1": b1, "w2": b2})
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="c")
        )
        w1 = np.concatenate([ug.index.to_numpy(dtype=object), bg["w1"].to_numpy(dtype=object)])
        w2 = np.concatenate(
            [np.full(len(ug), None, dtype=object), bg["w2"].to_numpy(dtype=object)]
        )
        c = np.concatenate([ug.to_numpy(np.int64), bg["c"].to_numpy(np.int64)])
        return pa.table(
            {
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
                "c": pa.array(c),
            }
        )

    def merge(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame(
                {
                    "w1": pd.Series([], dtype=object),
                    "w2": pd.Series([], dtype=object),
                    "c": pd.Series([], dtype=np.int64),
                }
            )
        out = (
            df.groupby(["w1", "w2"], sort=False, dropna=False)["c"]
            .sum()
            .reset_index()
        )
        out["c"] = out["c"].astype(np.int64)
        return out

    counts = exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "w1", num_partitions, merge,
        batch_format="pandas",
    )

    # driver-side aggregates: unigram table (vocabulary-bounded) + the
    # two normalizers; bigram rows never leave the cluster
    uparts: list[pa.Table] = []
    nb = 0
    for bt in counts.iter_batches(batch_size=None, batch_format="pyarrow"):
        isuni = pc.is_null(bt["w2"])
        ut = bt.filter(isuni)
        if ut.num_rows:
            uparts.append(ut.select(["w1", "c"]))
        s = pc.sum(bt.filter(pc.invert(isuni))["c"]).as_py()
        nb += int(s or 0)
    if not uparts or nb == 0:
        return rd.from_arrow(_empty(_EMPTY_OUT))
    nbf = float(nb)
    # one vectorized groupby fold (unigrams are already globally summed
    # by the __wp exchange; the groupby is a cheap defensive re-merge),
    # broadcast as sorted fixed-width arrays so lookups are one
    # vectorized searchsorted, not a per-row dict probe
    uni = pa.concat_tables(uparts).to_pandas().groupby("w1", sort=True)["c"].sum()
    nu = float(uni.sum())
    if nu == 0:
        return rd.from_arrow(_empty(_EMPTY_OUT))
    uw = uni.index.to_numpy(dtype="U")
    ucnt = uni.to_numpy(dtype=np.float64)
    uref = ray.put((uw, ucnt))

    def score(t: pa.Table) -> pa.Table:
        uw_, ucnt_ = ray.get(uref)
        mask = pc.and_(pc.is_valid(t["w2"]), pc.greater_equal(t["c"], min_count))
        bt = t.filter(mask)
        if bt.num_rows == 0:
            return _empty(_EMPTY_OUT, {"__neg": pa.float64()})
        w1 = bt["w1"].to_numpy(zero_copy_only=False)
        w2 = bt["w2"].to_numpy(zero_copy_only=False)
        c12 = bt["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = ucnt_[np.searchsorted(uw_, w1.astype("U"))]
        c2 = ucnt_[np.searchsorted(uw_, w2.astype("U"))]
        pmi = np.log((c12 / nbf) / ((c1 / nu) * (c2 / nu)))
        pmi_r = pc.round(
            pa.array(pmi, pa.float64()), ndigits=6, round_mode="half_towards_infinity"
        ).to_numpy(zero_copy_only=False)
        # local prune to top_k candidates before the global sort
        order = np.sort(np.lexsort((w2, w1, -pmi_r))[:top_k])
        return pa.table(
            {
                "w1": pa.array(w1[order], pa.string()),
                "w2": pa.array(w2[order], pa.string()),
                "c12": pa.array(c12[order].astype(np.int64)),
                "pmi": pa.array(pmi_r[order], pa.float64()),
                "__neg": pa.array(-pmi_r[order], pa.float64()),
            }
        )

    out = (
        counts.map_batches(score, batch_format="pyarrow")
        .sort(["__neg", "w1", "w2"])
        .limit(top_k)
    )
    return out.map_batches(lambda t: t.drop_columns(["__neg"]), batch_format="pyarrow")
