"""Dedup / text / ANN / media pipeline tests (brute-force oracles in
plain python where the operator is approximate-by-construction)."""

import itertools

import pytest

import numpy as np
import pyarrow as pa
import ray.data as rd

from fozziejoin_ray.pipelines.ann import ann_topk, embedding_dup_pairs, ivf_topk
from fozziejoin_ray.pipelines.dedup import (
    char_shingles,
    exact_dedup,
    jaccard_sets,
    minhash_lsh_dedup,
    ngram_jaccard_dedup,
    simhash_dedup,
)
from fozziejoin_ray.pipelines.media import (
    extract_image_features,
    sample_frames,
    synth_media_table,
)
from fozziejoin_ray.pipelines.text import fingerprint_docs, lang_id, quality_score, token_count

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy dog!",  # near-dup of 0
    "the quick brown fox jumped over a lazy dog",  # near-dup of 0
    "completely different content about query engines",
    "el rapido zorro marron salta sobre el perro perezoso y la casa",
    "the quick brown fox jumps over the lazy dog",  # exact dup of 0
    "short",
    "data processing pipelines shuffle blocks with backpressure",
]


def docs_ds():
    return rd.from_arrow(
        pa.table({"doc_id": [f"d{i}" for i in range(len(TEXTS))], "text": TEXTS})
    )


def test_exact_dedup():
    out = exact_dedup(docs_ds(), "text", "doc_id").take_all()
    ids = sorted(r["doc_id"] for r in out)
    assert ids == ["d0", "d1", "d2", "d3", "d4", "d6", "d7"]  # d5 == d0 dropped


def test_minhash_lsh_dedup_finds_near_dups():
    out = {r["doc_id"]: r["dup_group"] for r in minhash_lsh_dedup(
        docs_ds(), "text", "doc_id", threshold=0.5, num_partitions=4
    ).take_all()}
    assert len(out) == len(TEXTS)
    assert out["d5"] == out["d0"] == "d0"  # exact dup in same group
    assert out["d1"] == "d0"  # near-dup found
    assert out["d3"] != out["d0"]


def test_lsh_ownership_with_capped_buckets():
    """The first-agreeing-band ownership must stay exactly-once AND keep
    a pair discoverable through a LATER band when its first agreeing
    bucket is capped: 60 near-identical docs force giant buckets in
    every band; with max_bucket=8 most buckets are globally capped, yet
    the two distinctive near-dup docs must still pair exactly once."""
    from fozziejoin_ray.pipelines.dedup import MinHashBands, lsh_fused_edges

    texts = ["the quick brown fox jumps over the lazy dog %d" % (i % 3) for i in range(60)]
    texts += [
        "zebras graze quietly beside the riverbank at dawn",
        "zebras graze quietly beside the riverbank at dusk",
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": [f"x{i:03d}" for i in range(len(texts))], "text": texts})
    ).repartition(4)

    def jac(a_list, b_list):
        sims = np.array(
            [
                len(char_shingles(a, 5) & char_shingles(b, 5))
                / max(1, len(char_shingles(a, 5) | char_shingles(b, 5)))
                for a, b in zip(a_list, b_list)
            ]
        )
        keep = sims >= 0.5
        return keep, sims[keep]

    edges = lsh_fused_edges(
        ds, "text", "doc_id", jac, key=MinHashBands(num_perm=64, bands=16, shingle_k=5),
        num_partitions=4, max_bucket=8,
    ).take_all()
    pairs = [(r["a"], r["b"]) for r in edges]
    # exactly-once: no duplicate pairs even though near-dups agree in many bands
    assert len(pairs) == len(set(pairs))
    # the zebra pair must survive despite heavy capping elsewhere
    assert ("x060", "x061") in set(pairs)


def test_minhash_dedup_payloads_agree(monkeypatch):
    """Long texts (mean > _CARRY_CUTOFF bytes) take the id-payload
    layout, verified against a broadcast shingle index; forcing the
    texts into the emission must give the same (doc_id, dup_group)
    rows."""
    import fozziejoin_ray.pipelines.dedup as dd

    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(400)]
    rows = []
    for fam in range(8):  # families of ~20 near-identical long docs
        base = list(rng.choice(vocab, 60))
        for m in range(20):
            words = list(base)
            words[rng.randint(len(words))] = vocab[rng.randint(len(vocab))]
            rows.append((f"f{fam}m{m:02d}", " ".join(words)))
    rows += [(f"s{i:03d}", " ".join(rng.choice(vocab, 60))) for i in range(40)]
    t = pa.table({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    assert np.mean([len(x.encode()) for x in t["text"].to_pylist()]) > dd._CARRY_CUTOFF

    made = []
    index_score = dd._IndexJaccardScore
    monkeypatch.setattr(
        dd, "_IndexJaccardScore", lambda ref, thr: made.append(1) or index_score(ref, thr)
    )

    def run():
        out = minhash_lsh_dedup(
            rd.from_arrow(t).repartition(4), "text", "doc_id",
            threshold=0.5, num_partitions=4,
        ).take_all()
        return sorted((r["doc_id"], r["dup_group"]) for r in out)

    by_id = run()
    assert len(made) == 1  # verified against the shingle index
    assert len(by_id) == len(rows)
    assert len({g for _, g in by_id}) < len(rows)  # the families collapsed

    monkeypatch.setattr(dd, "_CARRY_CUTOFF", 1 << 30)
    assert run() == by_id
    assert len(made) == 1  # texts carried: no index built


def test_ngram_jaccard_dedup_matches_bruteforce():
    thresh = 0.5
    out = {r["doc_id"]: r["dup_group"] for r in ngram_jaccard_dedup(
        docs_ds(), "text", "doc_id", threshold=thresh, num_partitions=4
    ).take_all()}
    # brute-force: pairs with exact shingle jaccard >= thresh, then union-find
    sh = {f"d{i}": char_shingles(t, 5) for i, t in enumerate(TEXTS)}
    parent = {d: d for d in sh}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in itertools.combinations(sorted(sh), 2):
        if jaccard_sets(sh[a], sh[b]) >= thresh:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    expected = {d: find(d) for d in sh}
    assert out == expected


def test_simhash_dedup_exact_dup_together():
    out = {r["doc_id"]: r["dup_group"] for r in simhash_dedup(
        docs_ds(), "text", "doc_id", max_hamming=3, num_partitions=4
    ).take_all()}
    assert out["d5"] == out["d0"]
    assert out["d3"] != out["d0"]


def _union_find_groups(ids, linked):
    """Brute-force duplicate classes: union every pair ``linked(i, j)``
    accepts, label each id with its class's min id."""
    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(ids)), 2):
        if linked(i, j):
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
    return {d: ids[find(i)] for i, d in enumerate(ids)}


def _family_docs(seed=3, families=6, members=6, vocab_size=60, words=30):
    """Families of word-sequence docs, member m carrying m random word
    substitutions, plus an exact dup, an empty text, a null and a loner."""
    rng = np.random.RandomState(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    texts = []
    for _ in range(families):
        base = list(rng.choice(vocab, words))
        for m in range(members):
            w = list(base)
            for _ in range(m):
                w[rng.randint(len(w))] = vocab[rng.randint(len(vocab))]
            texts.append(" ".join(w))
    texts += [texts[0], "", None, "solo"]
    return [f"t{i:03d}" for i in range(len(texts))], texts


@pytest.mark.parametrize("max_hamming", [0, 1, 3, 7])
def test_simhash_dedup_matches_bruteforce(max_hamming):
    """Exact vs pure-python simhash64 + hamming + union-find: 0 is the
    single 64-bit block (folded to 32 bits), 7 is eight 8-bit blocks."""
    from fozziejoin_ray.pipelines.dedup import simhash64

    ids, texts = _family_docs()
    sig = [simhash64(t or "") for t in texts]
    expected = _union_find_groups(
        ids, lambda i, j: bin(sig[i] ^ sig[j]).count("1") <= max_hamming
    )
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(3)
    out = {r["doc_id"]: r["dup_group"] for r in simhash_dedup(
        ds, "text", "doc_id", max_hamming=max_hamming, num_partitions=4
    ).take_all()}
    assert out == expected
    assert len(set(expected.values())) < len(ids)  # some class formed


def test_ngram_jaccard_dedup_payloads_match_bruteforce(monkeypatch):
    """The id payload (broadcast shingle index) and the forced text
    carry (a table over the broadcast limit) give the brute-force
    classes."""
    import fozziejoin_ray.pipelines.dedup as dd

    ids, texts = _family_docs(seed=4)
    sh = [char_shingles(t or "", 5) for t in texts]
    expected = _union_find_groups(
        ids, lambda i, j: len(sh[i]) and len(sh[j]) and jaccard_sets(sh[i], sh[j]) >= 0.6
    )
    assert len(set(expected.values())) < len(ids)
    made = []
    index_score = dd._IndexJaccardScore
    monkeypatch.setattr(
        dd, "_IndexJaccardScore", lambda ref, thr: made.append(1) or index_score(ref, thr)
    )

    def run():
        ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts})).repartition(3)
        return {r["doc_id"]: r["dup_group"] for r in ngram_jaccard_dedup(
            ds, "text", "doc_id", threshold=0.6, num_partitions=4
        ).take_all()}

    monkeypatch.setattr(dd, "_CARRY_CUTOFF", 0)
    assert run() == expected
    assert made == [1]  # ids rode the exchange, verified by the index
    monkeypatch.setattr(dd, "_BROADCAST_DOC_LIMIT", 0)
    assert run() == expected
    assert made == [1]  # texts carried: no index built


def test_ngram_jaccard_dedup_no_shared_shingle():
    """No 5-gram occurs in two docs: the rare-first order table is
    empty and every doc is its own class."""
    texts = ["aaaaaaaaaa", "bbbbbbbbbbbb", "cdefghijklmnop"]
    ds = rd.from_arrow(pa.table({"doc_id": ["a", "b", "c"], "text": texts}))
    out = {r["doc_id"]: r["dup_group"] for r in ngram_jaccard_dedup(
        ds, "text", "doc_id", threshold=0.8, num_partitions=4
    ).take_all()}
    assert out == {"a": "a", "b": "b", "c": "c"}


@pytest.mark.parametrize(
    "fn,kw",
    [
        (minhash_lsh_dedup, {"threshold": 0.0}),
        (minhash_lsh_dedup, {"threshold": 1.5}),
        (ngram_jaccard_dedup, {"threshold": 0.0}),
        (ngram_jaccard_dedup, {"threshold": -0.2}),
        (simhash_dedup, {"max_hamming": -1}),
        (simhash_dedup, {"max_hamming": 64}),
    ],
)
def test_dedup_rejects_out_of_range_inputs(fn, kw):
    with pytest.raises(ValueError):
        fn(docs_ds(), "text", "doc_id", num_partitions=4, **kw)


def _rand_embeddings(n=64, d=16, seed=3):
    rng = np.random.RandomState(seed)
    M = rng.randn(n, d).astype(np.float32)
    M[1] = M[0] * 2.0 + rng.randn(d).astype(np.float32) * 0.01  # near-dup pair
    return M


def emb_ds(M):
    return rd.from_arrow(
        pa.table(
            {
                "vec_id": list(range(len(M))),
                "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32())),
            }
        )
    )


def test_ann_topk_exact_vs_numpy():
    M = _rand_embeddings()
    Q = M[:3].astype(np.float64)
    out = ann_topk(emb_ds(M), Q, [0, 1, 2], k=5, dtype=np.float64).take_all()
    Mn = M.astype(np.float64) / np.linalg.norm(M, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Mn @ Qn.T
    for qi in range(3):
        expected = list(np.lexsort((np.arange(len(M)), -sims[:, qi]))[:5])
        got = [r["vec_id"] for r in sorted(
            (r for r in out if r["query_id"] == qi), key=lambda r: r["rank"]
        )]
        assert got == expected, (qi, got, expected)


def test_ivf_topk_self_hit():
    M = _rand_embeddings(128, 16)
    out = ivf_topk(emb_ds(M), M[:4], [0, 1, 2, 3], k=3, n_centroids=8, nprobe=4).take_all()
    # each query's top hit is itself (cosine 1.0)
    for qi in range(4):
        rows = sorted((r for r in out if r["query_id"] == qi), key=lambda r: r["rank"])
        assert rows and rows[0]["vec_id"] == qi


def test_topk_keeps_ties_at_kth_place_in_oracle_order():
    """Rows tied at the k-th similarity all reach the per-query merge,
    so both top-k operators return the (cosine DESC, vec_id) order of
    the SQL oracle, not whichever tied rows a block partition kept."""
    ids = np.array([60, 50, 40, 30, 20, 10])
    M = np.zeros((6, 4))
    M[:5, 0] = 1.0  # five rows identical to the query
    M[5, 1] = 1.0
    ds = rd.from_arrow(
        pa.table({"vec_id": ids, "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float64()))})
    )
    Q = np.array([[1.0, 0.0, 0.0, 0.0]])
    sims = (M @ Q.T)[:, 0]
    expected = list(ids[np.lexsort((ids, -sims))[:2]])
    for out in (
        ann_topk(ds, Q, [0], k=2, dtype=np.float64),
        ivf_topk(ds, Q, [0], k=2, n_centroids=2, nprobe=2, dtype=np.float64),
    ):
        rows = sorted(out.take_all(), key=lambda r: r["rank"])
        assert [r["vec_id"] for r in rows] == expected == [20, 30]


@pytest.mark.parametrize("bad_rows", [[1], [1, 4]])
def test_topk_ranks_nan_similarities_last(bad_rows):
    """A NaN or infinite embedding scores a NaN cosine; it ranks below
    every finite row, so the block still offers its k best finite rows
    to the merge, with one such row or with k of them."""
    ids = np.array([60, 50, 40, 30, 20, 10])
    M = np.array([[1.0, 0.1 * i, 0.0] for i in range(6)])
    M[bad_rows[0], 0] = np.nan
    M[bad_rows[1:], 1] = np.inf
    ds = rd.from_arrow(
        pa.table({"vec_id": ids, "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float64()))})
    )
    Q = np.array([[1.0, 0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        sims = ((M / np.linalg.norm(M, axis=1, keepdims=True)) @ Q.T)[:, 0]
    expected = list(ids[np.lexsort((ids, -np.where(np.isnan(sims), -np.inf, sims)))[:2]])
    assert expected == [60, 40]
    for out in (
        ann_topk(ds, Q, [0], k=2, dtype=np.float64),
        ivf_topk(ds, Q, [0], k=2, n_centroids=2, nprobe=2, dtype=np.float64),
    ):
        rows = sorted(out.take_all(), key=lambda r: r["rank"])
        assert [r["vec_id"] for r in rows] == expected


def test_embedding_dup_pairs():
    M = _rand_embeddings()
    pairs = embedding_dup_pairs(emb_ds(M), threshold=0.95, dtype=np.float64).take_all()
    assert any((r["a"], r["b"]) == (0, 1) for r in pairs)
    assert all(r["a"] < r["b"] for r in pairs)


@pytest.mark.parametrize("etype", [pa.list_(pa.float64(), 4), pa.list_(pa.float64())])
def test_embedding_scorers_on_empty_table(etype):
    """A typed 0-row table has no duplicate pairs and no top-k rows."""
    from fozziejoin_ray.pipelines.ann import _embed_matrix

    t = pa.table({"vec_id": pa.array([], pa.int64()), "embedding": pa.array([], etype)})
    dim = 4 if pa.types.is_fixed_size_list(etype) else 0
    assert _embed_matrix(t, "embedding").shape == (0, dim)
    ds = rd.from_arrow(t)
    assert embedding_dup_pairs(ds, threshold=0.9).take_all() == []
    Q = np.ones((1, 4))
    assert ann_topk(ds, Q, [0], k=2).take_all() == []


def test_topk_similar_pairs_exact_vs_numpy():
    from fozziejoin_ray.pipelines.ann import topk_similar_pairs

    M = _rand_embeddings(60, 8)
    k = 12
    # tile_rows=16 forces a 4-tile grid (10 tile-pair tasks)
    got = topk_similar_pairs(emb_ds(M), k, tile_rows=16).take_all()
    Mn = M.astype(np.float64) / np.linalg.norm(M.astype(np.float64), axis=1, keepdims=True)
    sims = Mn @ Mn.T
    li, ri = np.triu_indices(len(M), 1)
    cos = sims[li, ri]
    r = np.sign(cos) * np.floor(np.abs(cos) * 1e4 + 0.5) / 1e4  # half away from zero
    order = np.lexsort((ri, li, -r))[:k]
    expected = [(int(li[i]), int(ri[i]), float(r[i])) for i in order]
    assert [(g["a"], g["b"], g["cosine"]) for g in got] == expected
    assert all(g["a"] < g["b"] for g in got)


def test_topk_similar_pairs_k_exceeds_pairs():
    from fozziejoin_ray.pipelines.ann import topk_similar_pairs

    M = _rand_embeddings(5, 8)
    got = topk_similar_pairs(emb_ds(M), 100, tile_rows=2).take_all()
    assert len(got) == 10  # all 5*4/2 pairs, k clipped to available
    import pytest

    with pytest.raises(ValueError):
        topk_similar_pairs(emb_ds(M), 0)


def test_token_count():
    rows = {r["doc_id"]: r for r in token_count(docs_ds()).take_all()}
    assert rows["d0"]["n_tokens_ws"] == 9
    assert rows["d6"]["n_tokens_ws"] == 1
    assert rows["d1"]["n_tokens_bpe"] == 10  # 9 words + '!'


def test_quality_and_fingerprint_deterministic():
    q1 = {r["doc_id"]: r["quality"] for r in quality_score(docs_ds()).take_all()}
    q2 = {r["doc_id"]: r["quality"] for r in quality_score(docs_ds()).take_all()}
    assert q1 == q2
    assert 0.0 <= min(q1.values()) and max(q1.values()) <= 1.0
    f1 = {r["doc_id"]: r["fingerprint"] for r in fingerprint_docs(docs_ds()).take_all()}
    assert f1["d0"] == f1["d5"]  # same normalized text
    assert f1["d0"] != f1["d3"]


def test_lang_id():
    rows = {r["doc_id"]: r["lang_pred"] for r in lang_id(docs_ds()).take_all()}
    assert rows["d0"] == "en"
    assert rows["d4"] == "es"


def test_media_from_documents_formula():
    import zlib

    from fozziejoin_ray.pipelines.media import media_from_documents

    docs = rd.from_arrow(pa.table({"doc_id": ["a", "b"], "text": ["hello", None]}))
    media = media_from_documents(docs, kind="video")
    rows = {r["media_ref"]: r for r in media.take_all()}
    assert rows["m://a"]["payload"] == b"hello"
    assert rows["m://a"]["duration_ms"] == (5 * 131) % 60000
    assert rows["m://b"]["payload"] == b""  # null text -> empty payload
    feats = extract_image_features(media, fake=True).take_all()
    c = zlib.crc32(b"hello")
    got = next(r for r in feats if r["media_ref"] == "m://a")["features"]
    assert got[0] == ((c * 1) % 1000003) / 1000003.0
    assert got[17] == ((c * 18) % 1000003) / 1000003.0


def test_media_plumbing():
    media = rd.from_arrow(synth_media_table(20, seed=5))
    feats = extract_image_features(media, fake=True).take_all()
    assert len(feats) == 20
    assert all(len(r["features"]) == 32 for r in feats)
    vids = rd.from_arrow(synth_media_table(5, seed=6, kind="video"))
    frames = sample_frames(vids, k=4, fake=True).take_all()
    assert len(frames) == 20
    assert {r["frame"] for r in frames} == {0, 1, 2, 3}


def _clustered_embeddings(n_clusters=24, per=8, d=16, seed=9):
    """Clusters of near-identical vectors: every within-cluster pair has
    cosine near 1 — dense ground truth for dup-pair recall."""
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_clusters, d).astype(np.float32)
    M = np.concatenate(
        [c + rng.randn(per, d).astype(np.float32) * 0.02 for c in centers]
    )
    return M


def test_embedding_dup_bucketed_matches_bruteforce():
    from fozziejoin_ray.pipelines.ann import embedding_dup_pairs_bucketed

    M = _clustered_embeddings()
    exact = {(r["a"], r["b"]) for r in embedding_dup_pairs(emb_ds(M), threshold=0.9).take_all()}
    approx_rows = embedding_dup_pairs_bucketed(
        emb_ds(M), threshold=0.9, n_centroids=16, assign_probes=2, num_partitions=4
    ).take_all()
    approx = {(r["a"], r["b"]) for r in approx_rows}
    assert len(approx_rows) == len(approx)  # cross-bucket dedup: exactly once
    assert approx <= exact  # in-bucket cosine is exact -> precision 1.0
    recall = len(approx & exact) / len(exact)
    assert recall >= 0.95, (recall, len(exact))


def test_ivf_topk_recall_vs_exact():
    """Measured quality bar for the approximate path: recall@k >= 0.9
    against the exact brute-force top-k on the same queries."""
    M = _rand_embeddings(512, 16, seed=11)
    Q = M[:8]
    qids = list(range(8))
    exact = ann_topk(emb_ds(M), Q, qids, k=10).take_all()
    approx = ivf_topk(emb_ds(M), Q, qids, k=10, n_centroids=16, nprobe=8).take_all()

    def by_q(rows):
        out = {}
        for r in rows:
            out.setdefault(r["query_id"], set()).add(r["vec_id"])
        return out

    e, a = by_q(exact), by_q(approx)
    hits = sum(len(e[q] & a.get(q, set())) for q in e)
    total = sum(len(e[q]) for q in e)
    assert hits / total >= 0.9, hits / total


def test_io_roundtrip_and_lance_gate(tmp_path):
    from fozziejoin_ray.sources.io import read_table, write_table

    ds = docs_ds()
    write_table(ds, str(tmp_path / "t"))
    back = read_table(str(tmp_path / "t"), columns=["doc_id"])
    assert back.count() == len(TEXTS)
    assert back.schema().names == ["doc_id"]
    import pytest as _pytest

    with _pytest.raises((ImportError, ValueError)):
        read_table(str(tmp_path / "t"), format="lance")
    with _pytest.raises(ValueError):
        read_table(str(tmp_path / "t"), format="csvx")

    write_table(ds, str(tmp_path / "c"), format="csv")
    cback = read_table(str(tmp_path / "c"), format="csv", columns=["doc_id", "text"])
    assert cback.count() == len(TEXTS)
    assert set(cback.schema().names) == {"doc_id", "text"}
    write_table(ds, str(tmp_path / "j"), format="json")
    jback = read_table(str(tmp_path / "j"), format="json", columns=["doc_id"])
    assert jback.count() == len(TEXTS)
    assert jback.schema().names == ["doc_id"]


def test_lance_gate_mocked_passthrough(monkeypatch, tmp_path):
    """Contract-test the Lance entry points with a mocked backend
    (VERDICT r4 Next #7): the env has no pylance, so assert that a
    deployment that DOES have it gets columns/kwargs passed through
    verbatim, and that the ImportError message still fires when the
    backend is absent."""
    import ray.data as rd

    from fozziejoin_ray.sources.io import read_table, write_table

    calls = {}

    def fake_read_lance(path, columns=None, **kwargs):
        calls["read"] = {"path": path, "columns": columns, **kwargs}
        return rd.from_items([{"doc_id": 1}])

    monkeypatch.setattr(rd, "read_lance", fake_read_lance, raising=False)
    out = read_table(
        "/data/corpus.lance", format="lance", columns=["doc_id", "spans"], scan_limit=7
    )
    assert out.count() == 1
    assert calls["read"] == {
        "path": "/data/corpus.lance",
        "columns": ["doc_id", "spans"],
        "scan_limit": 7,
    }

    ds = docs_ds()
    monkeypatch.setattr(
        type(ds),
        "write_lance",
        lambda self, path, **kw: calls.__setitem__("write", {"path": path, **kw}),
        raising=False,
    )
    write_table(ds, str(tmp_path / "w.lance"), format="lance", max_rows_per_file=5)
    assert calls["write"] == {
        "path": str(tmp_path / "w.lance"),
        "max_rows_per_file": 5,
    }

    # absent backend: the gate raises the actionable ImportError
    def raising_read_lance(path, **kw):
        raise ImportError("no pylance")

    monkeypatch.setattr(rd, "read_lance", raising_read_lance, raising=False)
    with pytest.raises(ImportError, match="pylance"):
        read_table("/data/x.lance", format="lance")


def test_dedup_executes_upstream_once():
    """minhash/ngram/simhash dedup materialize their (id, text)
    projection once: on a derived input the upstream graph must execute
    exactly one time, not once per internal consumer (count probe,
    collect, bucket stage, id join)."""
    import ray

    from fozziejoin_ray.pipelines.dedup import minhash_lsh_dedup, ngram_jaccard_dedup, simhash_dedup

    @ray.remote
    class Counter:
        def __init__(self):
            self.n = 0

        def inc(self):
            self.n += 1

        def get(self):
            return self.n

    for fn, kw in (
        (minhash_lsh_dedup, {"threshold": 0.5}),
        (ngram_jaccard_dedup, {"threshold": 0.6}),
        (simhash_dedup, {}),
    ):
        counter = Counter.remote()

        def bump(t, _c=counter):
            ray.get(_c.inc.remote())
            return t

        nblocks = 4
        derived = (
            docs_ds()
            .repartition(nblocks)
            .map_batches(bump, batch_format="pyarrow", batch_size=None)
        )
        out = fn(derived, "text", "doc_id", num_partitions=4, **kw).take_all()
        assert len(out) == len(TEXTS)
        execs = ray.get(counter.get.remote())
        assert execs == nblocks, (fn.__name__, execs)


def test_tfidf_top_terms_matches_bruteforce():
    """tfidf_top_terms vs a plain-python oracle: same tokenizer, same
    smoothed idf, same (score desc, term asc) tie-break."""
    import math
    import re
    from collections import Counter

    from fozziejoin_ray.pipelines.text import tfidf_top_terms

    out = tfidf_top_terms(docs_ds(), "text", "doc_id", k=3, num_partitions=4).take_all()
    got = {(r["doc_id"], r["rank"]): (r["term"], r["tf"], r["df"], round(r["score"], 9)) for r in out}

    tok = lambda s: re.findall(r"[0-9a-z_]+", (s or "").lower())
    tfs = {f"d{i}": Counter(tok(t)) for i, t in enumerate(TEXTS)}
    df = Counter(term for c in tfs.values() for term in c)
    n = len(TEXTS)
    exp = {}
    for d, c in tfs.items():
        scored = sorted(
            ((tf * (math.log((n + 1) / (df[term] + 1)) + 1.0), term, tf) for term, tf in c.items()),
            key=lambda x: (-x[0], x[1]),
        )[:3]
        for rank, (score, term, tf) in enumerate(scored, 1):
            exp[(d, rank)] = (term, tf, df[term], round(score, 9))
    assert got == exp
    # every doc with tokens appears with exactly min(3, n_terms) rows
    assert len(got) == len(exp)


def test_embedding_dedup_groups():
    """brute and bucketed strategies agree; groups are min-id labels;
    singletons keep their own id."""
    from fozziejoin_ray.pipelines.ann import embedding_dedup

    M = _rand_embeddings()

    def groups(strategy):
        out = embedding_dedup(
            emb_ds(M), threshold=0.9, strategy=strategy, dtype=np.float64,
            n_centroids=4, assign_probes=4, num_partitions=4,
        ) if strategy == "bucketed" else embedding_dedup(
            emb_ds(M), threshold=0.9, strategy="brute", dtype=np.float64,
            num_partitions=4,
        )
        return {r["vec_id"]: r["dup_group"] for r in out.take_all()}

    gb = groups("brute")
    assert len(gb) == len(M)
    # near-dup seed pair (0, 1) groups under the min id
    assert gb[0] == 0 and gb[1] == 0
    for vid, lbl in gb.items():
        assert lbl <= vid  # min-id labels
    assert groups("bucketed") == gb

    import pytest as _pytest

    with _pytest.raises(ValueError):
        embedding_dedup(emb_ds(M), strategy="nope")


def test_gopher_rules_hand_computed():
    from fozziejoin_ray.pipelines.text import gopher_rules

    good = " ".join(["the quick brown fox jumps over that lazy dog with vigor"] * 5)  # 55 words
    bully = "- one\n- two\n- three\nplain"  # 3/4 bullet lines
    elly = "wait...\nmore...\nokay"  # 2/3 ellipsis lines, 2 '...' symbols
    digits = "111 222 333 444"  # no alpha words
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": ["good", "bully", "elly", "digits", "empty"],
                "text": [good, bully, elly, digits, ""],
            }
        )
    )
    rows = {r["doc_id"]: r for r in gopher_rules(ds).take_all()}

    g = rows["good"]
    assert g["n_words"] == 55
    assert g["n_stop_kinds"] == 3  # the, that, with (distinct kinds, not hits)
    assert g["alpha_word_frac"] == 1.0
    assert g["gopher_pass"] is True

    b = rows["bully"]
    assert b["n_words"] == 7
    assert abs(b["bullet_line_frac"] - 3 / 4) < 1e-12
    assert b["gopher_pass"] is False  # word count + bullets

    e = rows["elly"]
    assert abs(e["ellipsis_line_frac"] - 2 / 3) < 1e-12
    assert e["symbol_word_ratio"] == 2 / 3

    d = rows["digits"]
    assert d["alpha_word_frac"] == 0.0 and d["n_words"] == 4

    em = rows["empty"]
    assert em["n_words"] == 0 and em["gopher_pass"] is False


def test_gopher_rules_thresholds_configurable():
    from fozziejoin_ray.pipelines.text import gopher_rules

    ds = rd.from_arrow(pa.table({"doc_id": ["a"], "text": ["the cat and the hat sat"]}))
    strict = gopher_rules(ds).take_all()[0]
    assert strict["gopher_pass"] is False  # 6 words < 50
    loose = gopher_rules(ds, min_words=1, min_mean_word_len=1.0).take_all()[0]
    assert loose["gopher_pass"] is True
    assert loose["n_stop_kinds"] == 2  # the, and


def test_dedup_paragraphs_hand_and_fuzz():
    from fozziejoin_ray.pipelines.dedup import dedup_paragraphs

    SEP = "\n\n"
    docs = {
        0: "alpha" + SEP + "beta" + SEP + "gamma",
        1: "beta" + SEP + "delta",             # beta already in doc 0
        2: "alpha" + SEP + "alpha",            # cross-doc AND within-doc dup
        3: "",                                 # single empty paragraph
        4: "",                                 # dup of doc 3's empty paragraph
        5: "unique" + SEP + "" + SEP + "zeta", # mid empty para is a dup too
    }
    ds = rd.from_arrow(pa.table({"doc_id": list(docs), "text": list(docs.values())}))
    out = {r["doc_id"]: r for r in dedup_paragraphs(ds, sep=SEP, num_partitions=3).take_all()}

    def brute(all_docs):
        seen, exp = {}, {}
        for i in sorted(all_docs):
            for p, para in enumerate(all_docs[i].split(SEP)):
                seen.setdefault(para, (i, p))
        for i in sorted(all_docs):
            paras = all_docs[i].split(SEP)
            kept = [p for j, p in enumerate(paras) if seen[p] == (i, j)]
            exp[i] = (SEP.join(kept), len(paras), len(paras) - len(kept))
        return exp

    for i, e in brute(docs).items():
        assert (out[i]["text"], out[i]["n_paras"], out[i]["n_removed"]) == e, i
    assert out[1]["text"] == "delta" and out[2]["text"] == ""

    rng = np.random.RandomState(5)
    vocab = [f"p{j} filler" for j in range(12)]
    rdocs = {i: SEP.join(rng.choice(vocab, rng.randint(1, 6))) for i in range(120)}
    ds2 = rd.from_arrow(pa.table({"doc_id": list(rdocs), "text": list(rdocs.values())}))
    out2 = {r["doc_id"]: r for r in dedup_paragraphs(ds2, sep=SEP, num_partitions=5).take_all()}
    for i, e in brute(rdocs).items():
        assert (out2[i]["text"], out2[i]["n_paras"], out2[i]["n_removed"]) == e, i


def test_pmi_collocations_vs_brute():
    import collections
    import math
    import re

    from fozziejoin_ray.pipelines.colloc import pmi_collocations

    docs = [
        "new york city is in new york state",
        "san francisco and new york and san francisco again",
        "machine learning and machine learning and machine learning",
        "the cat sat on the mat the cat ran",
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(docs))), "text": docs}))
    got = pmi_collocations(ds, top_k=6, min_count=2, num_partitions=3).take_all()

    toks = [re.findall(r"[0-9a-z_]+", d.lower()) for d in docs]
    uni = collections.Counter(w for tk in toks for w in tk)
    big = collections.Counter((tk[i], tk[i + 1]) for tk in toks for i in range(len(tk) - 1))
    nu, nb = sum(uni.values()), sum(big.values())
    exp = sorted(
        (
            (
                round(math.log((c / nb) / ((uni[a] / nu) * (uni[b] / nu))), 6),
                a,
                b,
                c,
            )
            for (a, b), c in big.items()
            if c >= 2
        ),
        key=lambda r: (-r[0], r[1], r[2]),
    )[:6]
    assert [(d["pmi"], d["w1"], d["w2"], d["c12"]) for d in got] == exp
    with pytest.raises(ValueError, match="top_k"):
        pmi_collocations(ds, top_k=0)


def test_bm25_topk_vs_brute():
    import math
    import re

    from fozziejoin_ray.pipelines.bm25 import bm25_topk

    docs = [
        "merge sort is a classic sort",
        "stream processing with merge joins",
        "nothing relevant here at all",
        "sort sort sort sort",
        "",
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(docs))), "text": docs}))
    got = bm25_topk(ds, "merge sort", top_k=5).take_all()

    toks = [re.findall(r"[0-9a-z_]+", d.lower()) for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in toks) / n
    k1, b = 1.2, 0.75
    exp = []
    for i, tk in enumerate(toks):
        s = 0.0
        for term in ["merge", "sort"]:
            f = tk.count(term)
            if not f:
                continue
            df = sum(1 for t2 in toks if term in t2)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
            s += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(tk) / avgdl))
        exp.append((round(s, 6), i))
    exp = sorted(exp, key=lambda r: (-r[0], r[1]))
    assert [(d["bm25"], d["doc_id"]) for d in got] == exp
    with pytest.raises(ValueError, match="tokenizable"):
        bm25_topk(ds, "!!!")


def test_write_partitioned_roundtrip(tmp_path):
    import os

    from fozziejoin_ray.sources.io import read_table, write_partitioned

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": list(range(8)),
                "lang": ["en", "fr", "en", "de", "fr", "en", "de", "en"],
                "v": [float(i) for i in range(8)],
            }
        )
    )
    out = str(tmp_path / "part")
    write_partitioned(ds, out, ["lang"])
    # hive layout: one lang=<value>/ directory per distinct key
    dirs = sorted(d for d in os.listdir(out) if d.startswith("lang="))
    assert dirs == ["lang=de", "lang=en", "lang=fr"]
    back = read_table(out).take_all()
    assert len(back) == 8
    assert sorted((d["doc_id"], d["lang"]) for d in back) == sorted(
        zip(range(8), ["en", "fr", "en", "de", "fr", "en", "de", "en"])
    )
    with pytest.raises(ValueError, match="partition column"):
        write_partitioned(ds, out, [])


def test_kmeans_embeddings_vs_brute():
    from fozziejoin_ray.pipelines.ann import _embed_matrix, kmeans_embeddings

    # integer-valued embeddings make float sums exact, so the engine's
    # partial-sum order matches the brute single-pass bit-for-bit
    rng = np.random.default_rng(5)
    n, dim, k, iters = 300, 6, 4, 4
    X = rng.integers(-8, 9, size=(n, dim)).astype(np.float64)
    ds = rd.from_arrow(
        pa.table({"vec_id": list(range(n)), "embedding": [row.tolist() for row in X]})
    ).repartition(5)
    got = {d["vec_id"]: d["cluster"] for d in kmeans_embeddings(
        ds, k=k, iters=iters, seed=9
    ).take_all()}

    # brute Lloyd with the SAME init: the engine draws its init sample
    # via the deterministic hash-rank uniform_sample_k
    from fozziejoin_ray.pipelines.split import uniform_sample_k

    st = uniform_sample_k(
        rd.from_arrow(
            pa.table({"vec_id": list(range(n)), "embedding": [row.tolist() for row in X]})
        ).repartition(5),
        "vec_id",
        max(k * 8, 256),
        salt="kmeans-init",
    )
    import pyarrow as _pa

    S = _embed_matrix(
        _pa.concat_tables(list(st.iter_batches(batch_size=None, batch_format="pyarrow"))),
        "embedding",
        dtype=np.float64,
    )
    r = np.random.RandomState(9)
    C = S[r.choice(len(S), size=k, replace=False)].copy()
    for _ in range(iters):
        a = np.argmin(-2.0 * (X @ C.T) + (C * C).sum(axis=1), axis=1)
        for j in range(k):
            if (a == j).any():
                C[j] = X[a == j].mean(axis=0)
    a = np.argmin(-2.0 * (X @ C.T) + (C * C).sum(axis=1), axis=1)
    assert got == {i: int(a[i]) for i in range(n)}
    with pytest.raises(ValueError, match="k and iters"):
        kmeans_embeddings(ds, k=0)
    with pytest.raises(ValueError, match="at least k"):
        kmeans_embeddings(ds.limit(3), k=5)


def test_ivf_topk_with_trained_centroids():
    from fozziejoin_ray.pipelines.ann import ann_topk, ivf_topk, kmeans_embeddings

    rng = np.random.default_rng(12)
    n, dim = 400, 8
    X = rng.normal(size=(n, dim)).astype(np.float64)
    tab = pa.table({"vec_id": list(range(n)), "embedding": [r.tolist() for r in X]})
    ds = rd.from_arrow(tab).repartition(4)
    Q = rng.normal(size=(3, dim))

    # train centroids with k-means, hand them to IVF; exhaustive probing
    # over trained centroids must still equal exact search
    import ray

    cents = None
    km = kmeans_embeddings(ds, k=6, iters=3, seed=4)
    km.take_all()  # materialize side effects not needed; recompute centroids below

    # recompute the trained centroid matrix the same way kmeans did:
    # simplest trained stand-in — per-cluster means from the assignments
    asg = {d["vec_id"]: d["cluster"] for d in km.take_all()}
    import collections

    groups = collections.defaultdict(list)
    for i in range(n):
        groups[asg[i]].append(X[i])
    cents = np.stack([np.mean(v, axis=0) for _, v in sorted(groups.items())])

    exact = ann_topk(ds, Q, [0, 1, 2], k=5)
    got = ivf_topk(ds, Q, [0, 1, 2], k=5, nprobe=len(cents), centroids=cents)
    def canon(rows):
        return sorted(
            (d["query_id"], d["vec_id"], round(d["cosine"], 5), d["rank"]) for d in rows
        )

    assert canon(got.take_all()) == canon(exact.take_all())


def test_semdedup_matches_bruteforce_per_cluster():
    from fozziejoin_ray.pipelines.ann import kmeans_embeddings, semdedup

    M = _rand_embeddings(80, 8, seed=7)
    M[2] = M[0] * 1.5  # exact-direction dup of 0
    M[11] = M[10] + 0.001 * M[3]  # near-dup of 10
    ds = emb_ds(M)
    got = sorted(
        semdedup(ds, n_clusters=4, iters=3, seed=1, threshold=0.97).take_all(),
        key=lambda d: d["vec_id"],
    )
    assert len(got) == len(M)
    # brute reference on the SAME assignments
    assigned = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_embeddings(ds, k=4, iters=3, seed=1).take_all()
    }
    Mn = M.astype(np.float64) / np.linalg.norm(M.astype(np.float64), axis=1, keepdims=True)
    exp_group = {}
    for c in set(assigned.values()):
        ids = sorted(i for i, cc in assigned.items() if cc == c)
        lab = {i: i for i in ids}
        changed = True
        while changed:  # tiny brute CC
            changed = False
            for x in ids:
                for y in ids:
                    if x < y and float(Mn[x] @ Mn[y]) >= 0.97:
                        m = min(lab[x], lab[y])
                        if lab[x] != m or lab[y] != m:
                            lab[x] = lab[y] = m
                            changed = True
        # propagate to fixpoint
        for _ in ids:
            lab = {i: lab[lab[i]] for i in ids}
        exp_group.update(lab)
    for r in got:
        assert r["cluster"] == assigned[r["vec_id"]]
        assert r["dup_group"] == exp_group[r["vec_id"]], r
        assert r["keep"] == (r["dup_group"] == r["vec_id"])
    # the planted dups are grouped (same cluster => same group)
    by_id = {r["vec_id"]: r for r in got}
    if by_id[0]["cluster"] == by_id[2]["cluster"]:
        assert by_id[2]["dup_group"] == 0 and not by_id[2]["keep"]


def test_semdedup_giant_cluster_tiled_matches_untiled():
    """VERDICT r4 Next #5: a cluster whose pair count exceeds
    pair_budget runs as bounded tile tasks (spanning-forest edges) and
    must produce the same components/keepers as the single-task path —
    including an adversarial near-all-duplicate giant cluster."""
    from fozziejoin_ray.pipelines.ann import semdedup

    rng = np.random.RandomState(3)
    base = rng.randn(4).astype(np.float64)
    # 400 near-copies of one vector (one giant dup component) + 100
    # spread; tile_rows floors at 256, so the 400-row cluster tiles
    M = np.vstack(
        [base + 1e-4 * rng.randn(400, 4), rng.randn(100, 4) * 5]
    )
    ds = emb_ds(M)

    kw = dict(n_clusters=3, iters=3, seed=5, threshold=0.95)
    untiled = sorted(
        semdedup(ds, pair_budget=500**2, **kw).take_all(), key=lambda d: d["vec_id"]
    )
    tiled = sorted(
        semdedup(ds, pair_budget=1024, **kw).take_all(), key=lambda d: d["vec_id"]
    )
    assert untiled == tiled
    # the giant component really exists and keeps exactly one row
    groups = {}
    for r in tiled:
        groups.setdefault(r["dup_group"], []).append(r)
    big = max(groups.values(), key=len)
    assert len(big) >= 350
    assert sum(r["keep"] for r in big) == 1
    assert min(r["vec_id"] for r in big) == [r for r in big if r["keep"]][0]["vec_id"]


def test_cross_neardup_pairs_vs_brute():
    from fozziejoin_ray.pipelines.dedup import cross_neardup_pairs

    left_texts = TEXTS
    right_texts = [
        "the quick brown fox jumps over the lazy dog",  # dup of left d0/d5
        "nothing like anything on the left side at all",
        "data processing pipelines shuffle blocks with backpressure!",  # near-dup of d7
    ]
    L = docs_ds()
    R = rd.from_arrow(
        pa.table({"doc_id": [f"r{i}" for i in range(len(right_texts))], "text": right_texts})
    )
    got = sorted(
        (r["a"], r["b"], round(r["score"], 6))
        for r in cross_neardup_pairs(
            L, R, threshold=0.5, num_partitions=4
        ).take_all()
    )
    # brute reference: exact shingle jaccard on the cross product
    exp = []
    for i, lt in enumerate(left_texts):
        for j, rt in enumerate(right_texts):
            s = jaccard_sets(char_shingles(lt, 5), char_shingles(rt, 5))
            if s >= 0.5:
                exp.append((f"d{i}", f"r{j}", round(s, 6)))
    assert got == sorted(exp) and got  # non-trivial: planted dups found
    assert all(a.startswith("d") and b.startswith("r") for a, b, _ in got)
    import pytest

    with pytest.raises(ValueError):
        cross_neardup_pairs(L, R, threshold=0.0)


def test_blocking_stats_vs_brute():
    """blocking_stats (pipelines/blockstats.py) against a plain-python
    count over the same key functions, including null text, empty text,
    leading-space text (empty first token: excluded from blocking), and
    a skewed first-token block."""
    from collections import Counter

    from fozziejoin_ray.pipelines.blockstats import STRATEGIES, blocking_stats

    texts = [
        "alpha beta gamma",
        "alpha delta",
        "Alpha epsilon",  # lower() folds into the alpha block
        " leading space",  # empty first token -> unblocked for first_token
        "",  # empty -> unblocked everywhere text-keyed
        None,  # null -> unblocked everywhere
        "zeta solo",
        "alphabet soup",  # prefix4 'alph' collides with alpha docs
    ]
    n_chars = [len(t) if t is not None else 0 for t in texts]
    t = pa.table(
        {
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array(n_chars, pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(3)  # exercise cross-batch merge
    got = (
        blocking_stats(ds, n_total=len(texts))
        .to_pandas()
        .sort_values("strategy")
        .reset_index(drop=True)
    )

    def brute_keys(name):
        if name == "first_token":
            return [t.split(" ")[0].lower() if t else None for t in texts]
        if name == "prefix4":
            return [t[:4].lower() if t else None for t in texts]
        return [str(c // 16) for c in n_chars]

    total_pairs = len(texts) * (len(texts) - 1) // 2
    for name in STRATEGIES:
        counts = Counter(k for k in brute_keys(name) if k)
        row = got[got["strategy"] == name].iloc[0]
        cand = sum(c * (c - 1) // 2 for c in counts.values())
        assert row["n_blocks"] == len(counts), name
        assert row["blocked_docs"] == sum(counts.values()), name
        assert row["candidate_pairs"] == cand, name
        assert row["max_block"] == max(counts.values()), name
        assert row["reduction_ratio"] == 1.0 - float(cand) / float(total_pairs), name
    assert list(got["n_blocks"].dtype.name for _ in range(1))[0] == "int64"
    assert got["reduction_ratio"].dtype.name == "float64"


def test_blocking_pair_completeness_vs_brute():
    """Pair completeness over a docgen-labeled corpus: brute-force the
    truth and co-blocked pair sets in python and compare exactly."""
    from collections import Counter
    from itertools import combinations

    from fozziejoin_ray.pipelines.blockstats import blocking_pair_completeness

    rows = [
        # (key, entity): entity 0 split across two blocks -> lost pairs
        ("a", 0), ("a", 0), ("b", 0),
        ("b", 1), ("b", 1),
        (None, 2), ("", 2), ("c", 2),  # unblocked rows co-block nothing
        ("d", 3),
    ]
    t = pa.table(
        {
            "key": pa.array([k for k, _ in rows], pa.string()),
            "entity": pa.array([e for _, e in rows], pa.int64()),
        }
    )
    got = blocking_pair_completeness(
        rd.from_arrow(t).repartition(3), "key", "entity"
    )

    truth = Counter(e for _, e in rows)
    true_pairs = sum(c * (c - 1) // 2 for c in truth.values())
    co = Counter((k, e) for k, e in rows if k)
    co_blocked = sum(c * (c - 1) // 2 for c in co.values())
    assert got["true_pairs"] == true_pairs
    assert got["co_blocked_pairs"] == co_blocked
    assert got["pair_completeness"] == co_blocked / true_pairs
    # sanity on the scenario itself: entity 0 lost its cross-block pair
    assert co_blocked < true_pairs


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
            ),
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_blocking_stats_fuzz_vs_brute(texts, nparts):
    """Property fuzz of blocking_stats over arbitrary unicode / null
    texts and block layouts: counts must equal the brute per-strategy
    rule regardless of how rows split into blocks."""
    from collections import Counter

    from fozziejoin_ray.pipelines.blockstats import STRATEGIES, blocking_stats

    n_chars = [len(t) if t is not None else 0 for t in texts]
    tab = pa.table(
        {
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array(n_chars, pa.int64()),
        }
    )
    got = (
        blocking_stats(rd.from_arrow(tab).repartition(nparts), n_total=len(texts))
        .to_pandas()
        .set_index("strategy")
    )

    def brute_keys(name):
        if name == "first_token":
            return [t.split(" ")[0].lower() if t else None for t in texts]
        if name == "prefix4":
            return [t[:4].lower() if t else None for t in texts]
        return [str(c // 16) for c in n_chars]

    for name in STRATEGIES:
        counts = Counter(k for k in brute_keys(name) if k)
        if not counts:
            assert name not in got.index
            continue
        row = got.loc[name]
        assert row["n_blocks"] == len(counts), (name, texts)
        assert row["blocked_docs"] == sum(counts.values()), (name, texts)
        assert row["candidate_pairs"] == sum(
            c * (c - 1) // 2 for c in counts.values()
        ), (name, texts)
        assert row["max_block"] == max(counts.values()), (name, texts)


def _brute_bucket_pairs(bucket, side, capped, sketch, keep_fn):
    from collections import Counter

    got = Counter()
    for i in range(len(bucket)):
        for j in range(len(bucket)):
            if bucket[i] != bucket[j] or bucket[i] in capped:
                continue
            if (i < j) if side is None else (side[i] == 0 and side[j] == 1):
                if keep_fn is None or keep_fn(sketch[[i]], sketch[[j]])[0]:
                    got[(i, j)] += 1
    return got


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(0, 9)), max_size=40
    ),
    st.sets(st.integers(0, 5)),
    st.one_of(st.none(), st.integers(0, 9)),
    st.booleans(),
)
def test_bucket_pairs_vs_brute(rows, capped_ids, thr, two_table):
    """The LSH scorer's one pair expansion against an all-pairs brute
    force, multiplicity included: 1-6 colliding buckets, a random capped
    subset, an optional sketch-threshold filter, self and two-table
    (where a side may have no partner, or the partition no row)."""
    from collections import Counter

    from fozziejoin_ray.pipelines.dedup import _bucket_pairs

    hi = np.uint64(1) << np.uint64(32)  # buckets carry a band in the high bits
    bucket = np.array([r[0] for r in rows], np.uint64) * hi + np.uint64(7)
    side = np.array([r[1] for r in rows], np.int8) if two_table else None
    sketch = np.array([[r[2]] for r in rows], np.uint64).reshape(-1, 1)
    capped = np.array(sorted(capped_ids), np.uint64) * hi + np.uint64(7)
    keep_fn = None
    if thr is not None:
        def keep_fn(A, B):
            return np.abs(A[:, 0].astype(np.int64) - B[:, 0].astype(np.int64)) <= thr

    a, b = _bucket_pairs(bucket, side, capped, sketch, keep_fn)
    want = _brute_bucket_pairs(bucket, side, set(capped.tolist()), sketch, keep_fn)
    assert Counter(zip(a.tolist(), b.tolist())) == want


def test_bucket_pairs_slabs_cut_inside_one_bucket():
    """A single 800-row self bucket makes 319,600 pairs, more than one
    slab: the cuts fall inside the bucket and every pair comes out once."""
    from fozziejoin_ray.joins.string_join import SLAB_PAIRS
    from fozziejoin_ray.pipelines.dedup import _bucket_pairs

    n = 800
    assert n * (n - 1) // 2 > SLAB_PAIRS
    a, b = _bucket_pairs(np.full(n, 42, np.uint64), None, np.empty(0, np.uint64))
    assert len(a) == n * (n - 1) // 2
    ii, jj = np.triu_indices(n, k=1)
    got = np.sort(a * n + b)
    assert np.array_equal(got, np.sort(ii * n + jj))
