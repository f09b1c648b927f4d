"""Curation operator tests: stratified sampling (determinism, per-group
proportions, SQL parity), PII scrubbing (each pattern, ordering, nulls),
repetition scoring (hand-computed fractions, empty/null text)."""

import duckdb
import numpy as np
import pandas.testing as pdt
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.pipelines.curation import (
    pii_scrub,
    pii_scrub_sql,
    repetition_score,
    stratified_sample,
    stratified_sample_sql_where,
)

FRACS = {"en": 0.8, "de": 0.5, "fr": 0.25}


def _docs(n=8_000, seed=3):
    rng = np.random.default_rng(seed)
    langs = rng.choice(["en", "de", "fr", "zz"], size=n).tolist()
    return pa.table({"doc_id": list(range(n)), "lang": langs})


def test_stratified_sample_deterministic_and_proportional():
    t = _docs()
    ds = rd.from_arrow(t)
    out = stratified_sample(ds, "doc_id", "lang", FRACS, default=0.1, salt="s").take_all()
    out2 = stratified_sample(ds, "doc_id", "lang", FRACS, default=0.1, salt="s").take_all()
    assert sorted(d["doc_id"] for d in out) == sorted(d["doc_id"] for d in out2)
    langs = t["lang"].to_pylist()
    totals = {g: langs.count(g) for g in ("en", "de", "fr", "zz")}
    kept = {g: sum(1 for d in out if d["lang"] == g) for g in totals}
    for g, f in list(FRACS.items()) + [("zz", 0.1)]:
        assert abs(kept[g] / totals[g] - f) < 0.04, (g, kept[g] / totals[g])


def test_stratified_sample_partition_invariant_and_sql_parity():
    t = _docs(2_000, seed=5)
    a = stratified_sample(rd.from_arrow(t), "doc_id", "lang", FRACS, default=0.0, salt="x")
    b = stratified_sample(
        rd.from_arrow(t).repartition(7), "doc_id", "lang", FRACS, default=0.0, salt="x"
    )
    ids_a = sorted(d["doc_id"] for d in a.take_all())
    assert ids_a == sorted(d["doc_id"] for d in b.take_all())
    con = duckdb.connect()
    con.register("docs", t)
    where = stratified_sample_sql_where("doc_id", "lang", FRACS, default=0.0, salt="x")
    sql_ids = sorted(r[0] for r in con.execute(f"SELECT doc_id FROM docs WHERE {where}").fetchall())
    assert ids_a == sql_ids


def test_stratified_sample_validates_fractions():
    ds = rd.from_arrow(_docs(10))
    with pytest.raises(ValueError):
        stratified_sample(ds, "doc_id", "lang", {"en": 1.5})
    with pytest.raises(ValueError):
        stratified_sample(ds, "doc_id", "lang", {"en": 0.5}, default=-0.1)


PII_TEXTS = [
    "mail bob.smith+x@corp.example.org now",
    "ssn is 123-45-6789 ok",
    "call 415-555-1234 or 415.555.9876",
    "host 10.0.255.7 responded",
    "none here",
    "",
    None,
    "combo a@b.io 1.2.3.4 999-88-7777 202-555-0147",
]


def test_pii_scrub_patterns_counts_and_nulls():
    ds = rd.from_arrow(pa.table({"i": list(range(len(PII_TEXTS))), "text": PII_TEXTS}))
    rows = sorted(pii_scrub(ds, "text").take_all(), key=lambda d: d["i"])
    got = [(d["text_scrubbed"], d["n_pii"]) for d in rows]
    assert got == [
        ("mail <EMAIL> now", 1),
        ("ssn is <SSN> ok", 1),
        ("call <PHONE> or <PHONE>", 2),
        ("host <IP> responded", 1),
        ("none here", 0),
        ("", 0),
        (None, 0),
        ("combo <EMAIL> <IP> <SSN> <PHONE>", 4),
    ]


def test_pii_scrub_sql_parity():
    t = pa.table({"i": list(range(len(PII_TEXTS))), "text": PII_TEXTS})
    rows = sorted(pii_scrub(rd.from_arrow(t), "text").take_all(), key=lambda d: d["i"])
    scrub, count = pii_scrub_sql("text")
    con = duckdb.connect()
    con.register("docs", t)
    sql = con.execute(
        f"SELECT i, {scrub} AS s, {count} AS c FROM docs ORDER BY i"
    ).fetchall()
    assert [(r[1], r[2]) for r in sql] == [(d["text_scrubbed"], d["n_pii"]) for d in rows]


def test_repetition_score_hand_computed():
    texts = ["a a a b", "x y z", "", None, "go go go go"]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))), "text": texts}))
    rows = sorted(repetition_score(ds, "text", "doc_id").take_all(), key=lambda d: d["doc_id"])
    r0 = rows[0]  # tokens a,a,a,b; bigrams (a a),(a a),(a b)
    assert r0["n_words"] == 4
    assert r0["dup_word_frac"] == pytest.approx(1 - 2 / 4)
    assert r0["top_word_frac"] == pytest.approx(3 / 4)
    assert r0["dup_bigram_frac"] == pytest.approx(1 - 2 / 3, abs=1e-6)
    r1 = rows[1]  # all distinct
    assert (r1["n_words"], r1["dup_word_frac"], r1["dup_bigram_frac"]) == (3, 0.0, 0.0)
    assert r1["top_word_frac"] == pytest.approx(1 / 3, abs=1e-6)
    for r in rows[2:4]:  # empty + null -> all zeros
        assert (r["n_words"], r["dup_word_frac"], r["top_word_frac"], r["dup_bigram_frac"]) == (
            0, 0.0, 0.0, 0.0,
        )
    r4 = rows[4]  # go x4: one distinct word, one distinct bigram
    assert r4["dup_word_frac"] == pytest.approx(3 / 4)
    assert r4["top_word_frac"] == 1.0
    assert r4["dup_bigram_frac"] == pytest.approx(2 / 3, abs=1e-6)


def test_repetition_score_tokenizer_matches_oracle_class():
    # punctuation/case fold into the ASCII [0-9a-z_]+ class
    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": ["Foo, foo! FOO-bar_2"]}))
    r = repetition_score(ds, "text", "doc_id").take_all()[0]
    # tokens: foo foo foo bar_2 -> 4 words, 2 distinct
    assert r["n_words"] == 4
    assert r["dup_word_frac"] == pytest.approx(0.5)


def test_decontaminate_flag_and_drop():
    from fozziejoin_ray.pipelines.curation import decontaminate

    corpus = [
        "the quick brown fox jumps over the lazy dog",   # contains bench gram
        "a completely different document entirely here",
        "quick brown fox jumps twice quick brown fox jumps",  # same gram twice -> distinct count 1
        "",
        None,
    ]
    bench = ["we saw the quick brown fox jumps away", "unrelated benchmark text"]
    docs = rd.from_arrow(pa.table({"doc_id": list(range(len(corpus))), "text": corpus}))
    b = rd.from_arrow(pa.table({"text": bench}))

    out = sorted(
        decontaminate(docs, b, text_col="text", n=4, mode="flag").take_all(),
        key=lambda d: d["doc_id"],
    )
    # doc0 shares "the quick brown fox" AND "quick brown fox jumps";
    # doc2 contains "quick brown fox jumps" twice -> distinct count 1
    assert [(d["n_hits"], d["contaminated"]) for d in out] == [
        (2, True), (0, False), (1, True), (0, False), (0, False),
    ]

    kept = decontaminate(docs, b, text_col="text", n=4, mode="drop").take_all()
    assert sorted(d["doc_id"] for d in kept) == [1, 3, 4]
    assert set(kept[0].keys()) == {"doc_id", "text"}  # input schema preserved


def test_decontaminate_empty_benchmark_and_validation():
    from fozziejoin_ray.pipelines.curation import decontaminate

    docs = rd.from_arrow(pa.table({"doc_id": [1], "text": ["some words here okay"]}))
    empty_b = rd.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = decontaminate(docs, empty_b, n=2).take_all()
    assert out[0]["n_hits"] == 0 and not out[0]["contaminated"]
    with pytest.raises(ValueError):
        decontaminate(docs, empty_b, mode="nope")
    with pytest.raises(ValueError):
        decontaminate(docs, empty_b, n=0)


def test_decontaminate_hash_grams_matches_exact():
    from fozziejoin_ray.pipelines.curation import decontaminate

    corpus = [
        "the quick brown fox jumps over the lazy dog",
        "a completely different document entirely here",
        "quick brown fox jumps twice quick brown fox jumps",
    ] * 3
    bench = ["we saw the quick brown fox jumps away"]
    docs = rd.from_arrow(pa.table({"doc_id": list(range(len(corpus))), "text": corpus}))
    b = rd.from_arrow(pa.table({"text": bench}))
    exact = sorted(
        (d["doc_id"], d["n_hits"], d["contaminated"])
        for d in decontaminate(docs, b, n=4).take_all()
    )
    hashed = sorted(
        (d["doc_id"], d["n_hits"], d["contaminated"])
        for d in decontaminate(docs, b, n=4, hash_grams=True).take_all()
    )
    assert hashed == exact and any(c for _, _, c in exact)


def test_dup_ngram_frac_hand_computed():
    from fozziejoin_ray.pipelines.curation import dup_ngram_frac

    docs = [
        "the cat sat on the mat",      # trigrams: 4, shares "the cat sat"+"cat sat on" with doc 1
        "the cat sat on a rug",        # 4 trigrams, shares 2 with doc 0
        "entirely different words here altogether",  # 3 trigrams, unique
        "the cat sat on the mat",      # exact dup of doc 0: all 4 shared
        "",                            # zero grams
        "two words",                   # < n tokens -> zero grams
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(6)), "text": docs}))
    out = {r["doc_id"]: r for r in dup_ngram_frac(ds, n=3, num_partitions=4).take_all()}
    assert len(out) == 6
    assert (out[0]["n_grams"], out[0]["n_dup_grams"]) == (4, 4)  # doc 3 duplicates all of doc 0
    assert (out[1]["n_grams"], out[1]["n_dup_grams"]) == (4, 2)
    assert out[1]["dup_gram_frac"] == 0.5
    assert (out[2]["n_grams"], out[2]["n_dup_grams"]) == (3, 0)
    assert out[3] == out[0] | {"doc_id": 3}
    assert (out[4]["n_grams"], out[4]["n_dup_grams"], out[4]["dup_gram_frac"]) == (0, 0, 0.0)
    assert (out[5]["n_grams"], out[5]["n_dup_grams"]) == (0, 0)


def test_dup_ngram_frac_random_vs_brute():
    import collections
    import re

    from fozziejoin_ray.pipelines.curation import dup_ngram_frac

    rng = np.random.RandomState(3)
    vocab = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran"]
    docs = [" ".join(rng.choice(vocab, rng.randint(0, 10))) for _ in range(150)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(150)), "text": docs}))
    out = {r["doc_id"]: r for r in dup_ngram_frac(ds, n=2, num_partitions=5).take_all()}

    def grams(s):
        ws = [w for w in re.split(r"[^0-9a-z_]+", s.lower()) if w]
        return set(" ".join(ws[i : i + 2]) for i in range(len(ws) - 1))

    gsets = {i: grams(d) for i, d in enumerate(docs)}
    count = collections.Counter(g for gs in gsets.values() for g in gs)
    for i, gs in gsets.items():
        nd = sum(1 for g in gs if count[g] >= 2)
        assert (out[i]["n_grams"], out[i]["n_dup_grams"]) == (len(gs), nd), i
        assert abs(out[i]["dup_gram_frac"] - nd / max(len(gs), 1)) < 1e-12


def test_dup_ngram_frac_validates_n():
    from fozziejoin_ray.pipelines.curation import dup_ngram_frac

    ds = rd.from_arrow(pa.table({"doc_id": [1], "text": ["a b c"]}))
    with pytest.raises(ValueError, match="n must be"):
        dup_ngram_frac(ds, n=0)


def test_curate_corpus_all_branches():
    from fozziejoin_ray.pipelines.curation import curate_corpus

    rep_doc = " ".join("the quick brown fox jumps over that lazy dog with vigor now".split() * 6)
    keep_a = " ".join(f"alpha{i} beta{i} the of" for i in range(30))
    keep_b = " ".join(f"gamma{i} delta{i} the of" for i in range(30))
    docs = {
        0: rep_doc,   # passes gopher, dup_word_frac ~0.83 -> repetition
        1: keep_a,    # kept (winner of the duplicate group)
        2: keep_a,    # exact dup of 1 -> duplicate
        3: "tiny doc",  # word count -> quality
        4: None,      # null text -> quality
        5: keep_b,    # kept
    }
    ds = rd.from_arrow(
        pa.table({"doc_id": list(docs), "text": pa.array(list(docs.values()), pa.string())})
    )
    out = {
        r["doc_id"]: r
        for r in curate_corpus(
            ds, max_dup_word_frac=0.5, num_partitions=3, salt="s"
        ).take_all()
    }
    assert len(out) == 6
    assert out[0]["drop_reason"] == "repetition" and not out[0]["keep"]
    assert out[1]["keep"] and out[1]["drop_reason"] is None
    assert out[1]["split"] in ("train", "val", "test")
    assert out[2]["drop_reason"] == "duplicate" and out[2]["split"] is None
    assert out[3]["drop_reason"] == "quality"
    assert out[4]["drop_reason"] == "quality"
    assert out[5]["keep"]


def test_curate_corpus_split_matches_hash_split():
    from fozziejoin_ray.pipelines.curation import curate_corpus
    from fozziejoin_ray.pipelines.split import hash_split

    keepers = [" ".join(f"w{i}x{j} y{i}z{j} the of" for j in range(30)) for i in range(20)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(20)), "text": keepers}))
    ratios = {"train": 0.5, "val": 0.25, "test": 0.25}
    got = {
        r["doc_id"]: r["split"]
        for r in curate_corpus(ds, ratios=ratios, salt="q", max_dup_word_frac=0.9).take_all()
        if r["keep"]
    }
    assert got, "expected some kept docs"
    exp = {
        r["doc_id"]: r["split"]
        for r in hash_split(ds.select_columns(["doc_id"]), "doc_id", ratios, salt="q").take_all()
    }
    for i, s in got.items():
        assert s == exp[i]


def test_normalize_text_steps():
    from fozziejoin_ray.pipelines.text import normalize_text

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": [0, 1, 2],
                "text": pa.array(["  Hello\t\tWORLD \n", "Cafe\u0301  X", None], pa.string()),
            }
        )
    )
    out = {r["doc_id"]: r["text"] for r in normalize_text(ds).take_all()}
    assert out[0] == "hello world"
    assert out[1] == "café x"  # NFC composed to precomposed é
    assert out[2] is None
    kept = {
        r["doc_id"]: r
        for r in normalize_text(ds, out_col="norm", lowercase=False, nfc=False).take_all()
    }
    assert kept[0]["text"] == "  Hello\t\tWORLD \n"  # original untouched
    assert kept[0]["norm"] == "Hello WORLD"
    assert kept[1]["norm"] == "Cafe\u0301 X"  # no NFC: stays decomposed


def test_build_inverted_index_vs_brute():
    import collections
    import re

    from fozziejoin_ray.pipelines.text import build_inverted_index

    rng = np.random.RandomState(9)
    vocab = ["the", "cat", "sat", "on", "mat", "dog"]
    docs = {i: " ".join(rng.choice(vocab, rng.randint(0, 8))) for i in range(60)}
    ds = rd.from_arrow(pa.table({"doc_id": list(docs), "text": list(docs.values())}))
    got = {r["term"]: r for r in build_inverted_index(ds, num_partitions=4).take_all()}

    post = collections.defaultdict(set)
    for i, d in docs.items():
        for w in set(re.split(r"[^0-9a-z_]+", d.lower())) - {""}:
            post[w].add(i)
    assert set(got) == set(post)
    for w, ids in post.items():
        assert got[w]["df"] == len(ids)
        assert got[w]["postings"] == ",".join(map(str, sorted(ids)))

    capped = {r["term"] for r in build_inverted_index(ds, max_df=30, num_partitions=4).take_all()}
    assert capped == {w for w, ids in post.items() if len(ids) <= 30}
    assert capped != set(post)  # something was actually dropped


def test_chunk_documents_layout():
    import ray.data as rd

    from fozziejoin_ray.pipelines.chunk import chunk_documents

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3, 4],
                "text": ["a b c d e f g", "x", "", None],
            }
        )
    )
    out = chunk_documents(ds, chunk_size=3, overlap=1).take_all()
    got = {(d["doc_id"], d["chunk_id"]): (d["n_tokens"], d["chunk_text"]) for d in out}
    # 7 tokens, window 3, stride 2 -> [0:3],[2:5],[4:7]; empty/null docs vanish
    assert got == {
        (1, 0): (3, "a b c"),
        (1, 1): (3, "c d e"),
        (1, 2): (3, "e f g"),
        (2, 0): (1, "x"),
    }
    # every token covered, short-tail chunk allowed
    out2 = chunk_documents(ds, chunk_size=4, overlap=0).take_all()
    texts = [d["chunk_text"] for d in sorted(out2, key=lambda d: (d["doc_id"], d["chunk_id"])) if d["doc_id"] == 1]
    assert texts == ["a b c d", "e f g"]
    with pytest.raises(ValueError, match="overlap"):
        chunk_documents(ds, chunk_size=3, overlap=3)


def test_remove_dup_spans():
    from fozziejoin_ray.pipelines.curation import remove_dup_spans

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps again and again ok",
        "totally unique text here nothing repeats at all",
        "xx yy xx yy xx yy xx yy",  # internal repeats count too
        "",
        "short doc",  # < n tokens -> untouched
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(docs))), "text": docs}))
    out = {d["doc_id"]: d for d in remove_dup_spans(ds, n=5).take_all()}

    # brute-force oracle
    from collections import Counter

    toks = [t.split() for t in docs]
    cnt = Counter(
        " ".join(tk[i : i + 5]) for tk in toks for i in range(len(tk) - 4)
    )
    for i, tk in enumerate(toks):
        covered = set()
        for j in range(len(tk) - 4):
            if cnt[" ".join(tk[j : j + 5])] >= 2:
                covered.update(range(j, j + 5))
        kept = [w for p, w in enumerate(tk) if p not in covered]
        assert out[i]["text_dedup"] == " ".join(kept), i
        assert out[i]["n_kept"] == len(kept)
        assert out[i]["n_removed"] == len(tk) - len(kept)
    with pytest.raises(ValueError, match="min_count"):
        remove_dup_spans(ds, n=5, min_count=1)
    with pytest.raises(ValueError, match="strategy"):
        remove_dup_spans(ds, n=5, strategy="nope")


def test_remove_dup_spans_shuffle_matches_broadcast():
    """The join-back tier (VERDICT r4 Next #4) must be value-identical
    to the broadcast path — same dup-hash set, same spans — including
    on multi-block inputs, repeated boilerplate and empty docs."""
    from fozziejoin_ray.pipelines.curation import remove_dup_spans

    rng = np.random.RandomState(11)
    words = [f"w{i}" for i in range(30)]
    boiler = "all rights reserved by the original author of record"
    docs = []
    for i in range(60):
        body = " ".join(rng.choice(words, size=rng.randint(0, 25)))
        docs.append(f"{body} {boiler}" if i % 3 == 0 else body)
    docs.append("")
    t1 = pa.table({"doc_id": list(range(30)), "text": docs[:30]})
    t2 = pa.table({"doc_id": list(range(30, len(docs))), "text": docs[30:]})
    ds = rd.from_arrow([t1, t2])

    a = (
        remove_dup_spans(ds, n=5, strategy="broadcast", num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        remove_dup_spans(ds, n=5, strategy="shuffle", num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert a["n_removed"].sum() > 0  # the boilerplate actually repeats
    pdt.assert_frame_equal(a, b, check_dtype=False)
    # auto with a tiny bound must take the shuffle tier and still agree
    c = (
        remove_dup_spans(ds, n=5, strategy="auto", max_broadcast_hashes=1, num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pdt.assert_frame_equal(a, c, check_dtype=False)


def test_decontaminate_shuffle_matches_broadcast():
    from fozziejoin_ray.pipelines.curation import decontaminate, decontaminate_shuffle

    corpus = [
        "the quick brown fox jumps over the lazy dog",
        "a completely different document entirely here",
        "quick brown fox jumps twice quick brown fox jumps",
        "",
        None,
    ]
    bench = ["we saw the quick brown fox jumps away", "unrelated benchmark text"]
    docs = rd.from_arrow(pa.table({"doc_id": list(range(len(corpus))), "text": corpus}))
    b = rd.from_arrow(pa.table({"text": bench}))

    ref = sorted(
        decontaminate(docs, b, text_col="text", n=4, mode="flag").take_all(),
        key=lambda d: d["doc_id"],
    )
    for jb in ("broadcast", "shuffle"):
        got = sorted(
            decontaminate_shuffle(
                docs, b, text_col="text", n=4, mode="flag", join_back=jb,
                num_partitions=8,
            ).take_all(),
            key=lambda d: d["doc_id"],
        )
        assert got == ref, jb

    kept = decontaminate_shuffle(
        docs, b, text_col="text", n=4, mode="drop", join_back="shuffle"
    ).take_all()
    assert sorted(d["doc_id"] for d in kept) == [1, 3, 4]

    # empty benchmark: every doc clean on both join-back paths
    empty_b = rd.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    for jb in ("broadcast", "shuffle"):
        out = decontaminate_shuffle(docs, empty_b, n=2, join_back=jb).take_all()
        assert all(not d["contaminated"] for d in out) and len(out) == 5

    with pytest.raises(ValueError):
        decontaminate_shuffle(docs, b, mode="nope")
    with pytest.raises(ValueError):
        decontaminate_shuffle(docs, b, join_back="nope")


def test_remove_dup_spans_shuffle_id_contract():
    """The shuffle tier validates its join-back key: null or duplicate
    ids raise; auto mode falls back to broadcast with a warning and
    produces the broadcast answer (review r5)."""
    import warnings

    import pytest

    from fozziejoin_ray.pipelines.curation import remove_dup_spans

    dup_text = "a b c d e f g h"  # one 5-gram duplicated across docs
    t = pa.table(
        {
            "doc_id": pa.array(["x", "x", "y"], pa.string()),  # dup id
            "text": pa.array([dup_text, dup_text, "z z z z z"], pa.string()),
        }
    )
    ds = rd.from_arrow(t)
    with pytest.raises(ValueError, match="unique"):
        remove_dup_spans(ds, strategy="shuffle", n=5).materialize()

    t2 = pa.table(
        {
            "doc_id": pa.array(["x", None, "y"], pa.string()),  # null id
            "text": pa.array([dup_text, dup_text, "z z z z z"], pa.string()),
        }
    )
    with pytest.raises(ValueError, match="non-null"):
        remove_dup_spans(rd.from_arrow(t2), strategy="shuffle", n=5).materialize()

    # auto mode: force the size bound to prefer shuffle, then verify the
    # broadcast fallback engages and matches plain broadcast output
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        got = (
            remove_dup_spans(
                rd.from_arrow(t2), strategy="auto", n=5, max_broadcast_hashes=0
            )
            .to_pandas()
            .sort_values("text_dedup")
            .reset_index(drop=True)
        )
        assert any("falling back to broadcast" in str(x.message) for x in w)
    want = (
        remove_dup_spans(rd.from_arrow(t2), strategy="broadcast", n=5)
        .to_pandas()
        .sort_values("text_dedup")
        .reset_index(drop=True)
    )
    assert got["text_dedup"].tolist() == want["text_dedup"].tolist()
    assert got["n_removed"].tolist() == want["n_removed"].tolist()


def test_remove_dup_spans_auto_propagates_other_value_errors(monkeypatch):
    """Only the id-contract violation (IdContractError) triggers the
    auto-mode broadcast fallback; any other ValueError from the shuffle
    tier propagates."""
    import warnings

    from fozziejoin_ray.pipelines import curation

    assert issubclass(curation.IdContractError, ValueError)

    def broken(ds, id_col):
        raise ValueError("shuffle tier exploded")

    monkeypatch.setattr(curation, "_validate_unique_ids", broken)
    dup_text = "a b c d e f g h"
    t = pa.table(
        {
            "doc_id": pa.array(["x", "y", "z"], pa.string()),
            "text": pa.array([dup_text, dup_text, "z z z z z"], pa.string()),
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no fallback warning
        with pytest.raises(ValueError, match="shuffle tier exploded"):
            curation.remove_dup_spans(
                rd.from_arrow(t), strategy="auto", n=5, max_broadcast_hashes=0
            )
