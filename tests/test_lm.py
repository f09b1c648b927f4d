import collections
import math
import re

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.pipelines.lm import build_bigram_lm, lm_score


def _tok(s):
    return [w for w in re.split(r"[^0-9a-z_]+", s.lower()) if w]


def _brute_model(docs):
    cb, cp, vocab = collections.Counter(), collections.Counter(), set()
    for d in docs:
        ws = _tok(d)
        vocab.update(ws)
        for a, b in zip(ws, ws[1:]):
            cb[(a, b)] += 1
            cp[a] += 1
    return cb, cp, len(vocab)


def _brute_scores(docs, model_docs, k=1.0):
    cb, cp, V = _brute_model(model_docs)
    out = []
    for d in docs:
        ws = _tok(d)
        lps = [
            math.log((cb[(a, b)] + k) / (cp[a] + k * V)) for a, b in zip(ws, ws[1:])
        ]
        out.append(sum(lps) / len(lps) if lps else None)
    return out


def test_lm_score_self_perplexity_vs_brute():
    rng = np.random.RandomState(11)
    vocab = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "and"]
    docs = [" ".join(rng.choice(vocab, rng.randint(0, 15))) for _ in range(120)]
    docs[3] = ""  # null score
    docs[4] = "solo"  # 1 token -> null score
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(docs))), "text": docs}))
    got = {r["doc_id"]: r for r in lm_score(ds).take_all()}
    exp = _brute_scores(docs, docs)
    for i, e in enumerate(exp):
        if e is None:
            assert got[i]["lm_logprob"] is None and got[i]["perplexity"] is None
        else:
            assert abs(got[i]["lm_logprob"] - e) < 1e-10, i
            assert abs(got[i]["perplexity"] - math.exp(-e)) < 1e-8, i


def test_lm_score_cross_corpus_oov():
    model_docs = ["the cat sat on the mat"]
    score_docs = ["zebra quux the cat", "the cat sat"]
    model = build_bigram_lm(rd.from_arrow(pa.table({"text": model_docs})), "text")
    assert model["V"] == 5  # the cat sat on mat
    ds = rd.from_arrow(pa.table({"doc_id": [0, 1], "text": score_docs}))
    got = {r["doc_id"]: r["lm_logprob"] for r in lm_score(ds, model=model).take_all()}
    exp = _brute_scores(score_docs, model_docs)
    for i, e in enumerate(exp):
        assert abs(got[i] - e) < 1e-12, i


def test_lm_score_smoothing_k():
    docs = ["the cat sat the cat ran"]
    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": docs}))
    got = lm_score(ds, k=0.5).take_all()[0]["lm_logprob"]
    exp = _brute_scores(docs, docs, k=0.5)[0]
    assert abs(got - exp) < 1e-12
    with pytest.raises(ValueError, match="k must be"):
        lm_score(ds, k=0.0)


def test_build_bigram_lm_empty_corpus():
    ds = rd.from_arrow(pa.table({"text": ["", "   "]}))
    model = build_bigram_lm(ds, "text")
    assert model["V"] == 0 and len(model["pair_h"]) == 0
    with pytest.raises(ValueError, match="no tokens"):
        lm_score(ds, model=model)


def test_ppl_buckets_tiers():
    from fozziejoin_ray.pipelines.lm import ppl_buckets

    # 9 scoreable docs -> 3 per tier at the 1/3 and 2/3 quantiles,
    # plus one unscoreable (single-token) doc -> NULL bucket
    docs = [
        "a a a a a a", "a a a a a b", "a a a a b b",
        "a a b b a b", "b a b a b a", "a b b b a a",
        "c c d d c d", "d c e e d c", "e e c c d e",
        "solo",
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(docs))), "text": docs}))
    out = ppl_buckets(ds).take_all()
    by_id = {d["doc_id"]: d for d in out}
    assert len(out) == len(docs)
    assert by_id[9]["ppl_bucket"] is None
    buckets = [by_id[i]["ppl_bucket"] for i in range(9)]
    assert sorted(collections.Counter(buckets).items()) == [
        ("head", 3), ("middle", 3), ("tail", 3)
    ]
    # head = lowest perplexity
    ppl = {b: [by_id[i]["perplexity"] for i in range(9) if buckets[i] == b] for b in set(buckets)}
    assert max(ppl["head"]) <= min(ppl["middle"]) <= max(ppl["middle"]) <= min(ppl["tail"])
    with pytest.raises(ValueError, match="increasing"):
        ppl_buckets(ds, qs=(0.5, 0.4))


def test_ppl_buckets_no_scoreable_docs():
    from fozziejoin_ray.pipelines.lm import ppl_buckets

    ds = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["solo", "word"]}))
    out = ppl_buckets(ds).take_all()
    assert len(out) == 2
    assert all(d["ppl_bucket"] is None and d["perplexity"] is None for d in out)


def test_ppl_buckets_other_quantile_errors_surface(monkeypatch):
    """Only column_quantiles' NoValuesError means "no scoreable
    document"; any other ValueError from the quantile call (here a bad
    q) surfaces instead of becoming all-NULL buckets."""
    from fozziejoin_ray.pipelines import stats
    from fozziejoin_ray.pipelines.lm import ppl_buckets

    orig = stats.column_quantiles
    monkeypatch.setattr(stats, "column_quantiles", lambda ds, col, qs: orig(ds, col, [1.5]))
    ds = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["a b c", "a b d"]}))
    with pytest.raises(ValueError, match=r"quantile must be in \[0, 1\]"):
        ppl_buckets(ds).take_all()
