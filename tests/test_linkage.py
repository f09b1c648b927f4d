"""Flagship linkage pipeline: blocked self-join edges == brute-force
oracle edges, transitive clusters match oracle clusters with pairwise
F1 >= 0.99, span sequences survive untouched, checkpoint resume skips
completed stages."""

import itertools

import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.cluster.union_find import connected_components
from fozziejoin_ray.joins.blocked import build_edges_blocked
from fozziejoin_ray.kernels.strdist import score_pairs
from fozziejoin_ray.pipelines.linkage import (
    cluster_documents,
    cluster_pairs,
    clustered_documents,
    extract_keys,
    match_edges,
    pairwise_f1,
)
from fozziejoin_ray.sources.docgen import make_documents_table, spans_fingerprint

N_DOCS = 160
METHOD = "jaro_winkler"
MAXD = 0.12


@pytest.fixture(scope="module")
def docs_and_labels():
    return make_documents_table(N_DOCS, seed=7, docs_per_entity=4)


def oracle_clusters(keys: list[tuple[str, str]]):
    """Brute-force reference-semantics clusters: all-pairs scoring at the
    same method+threshold, then python union-find."""
    ids = [d for d, _ in keys]
    vals = {d: k for d, k in keys}
    parent = {d: d for d in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = [(a, b) for a, b in itertools.combinations(ids, 2) if vals[a] is not None and vals[b] is not None]
    dists = score_pairs(METHOD, [vals[a] for a, _ in pairs], [vals[b] for _, b in pairs])
    for (a, b), d in zip(pairs, dists):
        if d <= MAXD:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [(d, find(d)) for d in ids]


def test_edges_match_bruteforce(docs_and_labels):
    docs_t, _ = docs_and_labels
    docs = rd.from_arrow(docs_t)
    keys_ds = extract_keys(docs)
    keys = [(r["doc_id"], r["key"]) for r in keys_ds.take_all()]
    vals = dict(keys)

    edges = match_edges(keys_ds, method=METHOD, max_distance=MAXD, pair_budget=5000)
    got = {(r["src"], r["dst"]) for r in edges.take_all()}
    assert all(a < b for a, b in got)
    assert len(got) == len([1 for _ in got])

    expected = set()
    ids = [d for d, _ in keys]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(ids, 2)
        if vals[a] is not None and vals[b] is not None
    ]
    dists = score_pairs(METHOD, [vals[a] for a, _ in pairs], [vals[b] for _, b in pairs])
    for (a, b), d in zip(pairs, dists):
        if d <= MAXD:
            expected.add((min(a, b), max(a, b)))
    assert got == expected


def test_edges_exactly_once_under_salting(docs_and_labels):
    """Self-join triangle blocking must emit each unordered pair EXACTLY
    once — both for value-level AllPairs salts and for hot-block id-level
    triangle sub-salts (regression: same-salt pairs used to co-occur in
    every triangle block and score sl times)."""
    docs_t, _ = docs_and_labels
    keys_ds = extract_keys(rd.from_arrow(docs_t))
    # small pair_budget forces hot-block salting; salts (4,4) exercises the
    # value-level triangle
    edges = match_edges(
        keys_ds, method=METHOD, max_distance=MAXD, pair_budget=500, allpairs_salts=(4, 4)
    )
    rows = [(r["src"], r["dst"]) for r in edges.take_all()]
    assert len(rows) == len(set(rows)), (
        f"{len(rows) - len(set(rows))} duplicate edges under salted triangle blocking"
    )


def test_clusters_pairwise_f1_resume_and_spans(docs_and_labels, tmp_path):
    docs_t, labels_t = docs_and_labels
    docs = rd.from_arrow(docs_t)
    clusters = cluster_documents(
        docs, method=METHOD, max_distance=MAXD, pair_budget=None,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    got = [(r["doc_id"], r["cluster_id"]) for r in clusters.take_all()]
    assert len(got) == N_DOCS
    assert len({d for d, _ in got}) == N_DOCS

    keys = [(r["doc_id"], r["key"]) for r in extract_keys(rd.from_arrow(docs_t)).take_all()]
    oracle = oracle_clusters(keys)
    m = pairwise_f1(cluster_pairs(got), cluster_pairs(oracle))
    assert m["f1"] >= 0.99, m

    # resume: second run must reuse checkpointed stages (manifest intact)
    import json, os

    man = json.load(open(tmp_path / "ckpt" / "manifest.json"))
    assert set(man) == {"edges", "labels"}
    before = {k: v["completed_at"] for k, v in man.items()}
    clusters2 = cluster_documents(
        docs, method=METHOD, max_distance=MAXD, pair_budget=None,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    got2 = sorted((r["doc_id"], r["cluster_id"]) for r in clusters2.take_all())
    assert got2 == sorted(got)
    man2 = json.load(open(tmp_path / "ckpt" / "manifest.json"))
    assert {k: v["completed_at"] for k, v in man2.items()} == before  # nothing recomputed

    # span-sequence invariant: spans re-attached by id, byte-identical
    out = clustered_documents(docs, clusters2)
    tables = [t for t in out.iter_batches(batch_size=None, batch_format="pyarrow")]
    merged = pa.concat_tables(tables)
    assert merged.num_rows == N_DOCS
    assert spans_fingerprint(merged.select(["doc_id", "spans"])) == spans_fingerprint(docs_t)


def test_cc_chain_converges():
    # path graph 0-1-2-...-9 collapses to a single cluster labeled "n0";
    # exercise BOTH the driver fast path and the distributed rounds
    edges = rd.from_arrow(
        pa.table({"src": [f"n{i}" for i in range(5)], "dst": [f"n{i+1}" for i in range(5)]})
    )
    for thresh in (2_000_000, None):  # driver path / distributed path
        cc = connected_components(edges, driver_threshold=thresh, num_partitions=4)
        rows = cc.take_all()
        assert {r["cluster"] for r in rows} == {"n0"}, thresh
        assert len(rows) == 6


def test_cc_self_loops_survive_both_paths():
    # a node appearing ONLY in a self-loop edge must still get an
    # output row (docstring contract: every node in any edge), on the
    # driver kernel AND through the contraction/star rounds
    edges = rd.from_arrow(
        pa.table(
            {
                "src": ["a", "b", "lonely", "b"],
                "dst": ["b", "c", "lonely", "b"],
            }
        )
    )
    for thresh in (2_000_000, None):
        rows = connected_components(
            edges, driver_threshold=thresh, num_partitions=4
        ).take_all()
        got = {r["node"]: r["cluster"] for r in rows}
        assert got == {"a": "a", "b": "a", "c": "a", "lonely": "lonely"}, thresh
        assert len(rows) == 4, thresh  # exactly one row per node


def test_cc_mid_contraction_driver_exit_keeps_loops():
    # K5 (10 edges) + a self-loop, driver_threshold=4: the pre-split
    # count (11) and non-loop count (10) both exceed the threshold, one
    # contraction round collapses K5 to a 4-edge star <= 4 — exercising
    # the _with_loops mid-contraction driver exit, which must still
    # surface the loop-only node
    nodes = [f"k{i}" for i in range(5)]
    src, dst = zip(*[(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]])
    edges = rd.from_arrow(
        pa.table({"src": list(src) + ["solo"], "dst": list(dst) + ["solo"]})
    )
    rows = connected_components(
        edges, driver_threshold=4, num_partitions=1, contract_rounds=3
    ).take_all()
    got = {r["node"]: r["cluster"] for r in rows}
    assert got == {**{n: "k0" for n in nodes}, "solo": "solo"}
    assert len(rows) == 6


def test_cc_star_rounds_use_num_partitions(monkeypatch):
    """The distributed star rounds exchange into the caller's
    ``num_partitions``, not a default."""
    import fozziejoin_ray.cluster.union_find as uf

    seen = []
    real = uf.exchange

    def spy(ds, keys, num_partitions, fn, **kw):
        seen.append(num_partitions)
        return real(ds, keys, num_partitions, fn, **kw)

    monkeypatch.setattr(uf, "exchange", spy)
    edges = rd.from_arrow(
        pa.table({"src": [f"n{i}" for i in range(5)], "dst": [f"n{i+1}" for i in range(5)]})
    )
    rows = connected_components(
        edges, driver_threshold=0, contract_rounds=0, num_partitions=3
    ).take_all()
    assert {r["cluster"] for r in rows} == {"n0"} and len(rows) == 6
    assert seen and set(seen) == {3}


def test_cc_null_endpoints_follow_na_rule():
    # engine NA rule: a null endpoint never asserts connectivity, but
    # the non-null endpoint still surfaces as its own node; (null, null)
    # rows vanish — identical on the driver and distributed paths
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(["x", None, None, "p"], pa.string()),
                "dst": pa.array([None, "y", None, "q"], pa.string()),
            }
        )
    )
    for thresh in (2_000_000, None):
        rows = connected_components(
            edges, driver_threshold=thresh, num_partitions=4
        ).take_all()
        got = {r["node"]: r["cluster"] for r in rows}
        assert got == {"x": "x", "y": "y", "p": "p", "q": "p"}, thresh


def test_minhash_blocking_recall(docs_and_labels):
    """The scale path (minhash candidate generation + kernel verify) must
    recover nearly all of the exact blocking's edges on mutated names."""
    docs_t, _ = docs_and_labels
    keys_ds = extract_keys(rd.from_arrow(docs_t))
    exact = {
        (r["src"], r["dst"])
        for r in match_edges(keys_ds, method=METHOD, max_distance=MAXD, pair_budget=None).take_all()
    }
    approx = {
        (r["src"], r["dst"])
        for r in match_edges(
            keys_ds, method=METHOD, max_distance=MAXD, blocking="minhash", num_partitions=4
        ).take_all()
    }
    assert approx <= exact  # rep + identity edges are true matches: precision == 1

    # the minhash path emits representative-level edges; compare the
    # resulting transitive clusters (what the pipeline is for), pairwise
    def components(edge_set):
        parent = {}
        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for a, b in edge_set:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        out = set()
        import itertools as it
        from collections import defaultdict
        by = defaultdict(list)
        for n in parent:
            by[find(n)].append(n)
        for mem in by.values():
            for p in it.combinations(sorted(mem), 2):
                out.add(p)
        return out

    m = pairwise_f1(components(approx), components(exact))
    assert m["f1"] >= 0.95, m


def test_jaro_char_bound_filter_lossless():
    """The LSH prefilter is an upper bound on jaro similarity: it must
    never drop a pair within max_distance (fuzzed mutations + edge cases)."""
    import random
    import string

    import numpy as np

    from fozziejoin_ray.pipelines.linkage import JaroCharBoundFilter

    random.seed(3)
    base = [
        "".join(random.choice(string.ascii_letters + " ") for _ in range(random.randint(1, 25)))
        for _ in range(200)
    ]
    words = base + [w[: max(0, len(w) - 2)] + "zq" for w in base] + ["", "a", "aaaaaaaaaaaa", "Ünïcode Nâme"]
    f = JaroCharBoundFilter(MAXD)
    S = f.sketch(words)
    pairs = [(i, j) for i in range(len(words)) for j in random.sample(range(len(words)), 15)]
    ia = np.array([a for a, _ in pairs])
    ib = np.array([b for _, b in pairs])
    keep = f.keep(S[ia], S[ib])
    d = score_pairs("jaro_winkler", [words[a] for a, _ in pairs], [words[b] for _, b in pairs])
    lost = (d <= MAXD) & ~keep
    assert int(lost.sum()) == 0


def test_partition_granular_resume(docs_and_labels, tmp_path):
    """A run killed mid-edges leaves completed partition files behind;
    the next run must (a) ask the builder for ONLY the missing
    partitions, (b) reuse the completed files byte-for-byte, and
    (c) produce the identical edge set. Fingerprint change invalidates
    every partition."""
    import os

    from fozziejoin_ray.state.checkpoint import Manifest, fingerprint

    docs_t, _ = docs_and_labels
    keys_ds = extract_keys(rd.from_arrow(docs_t))
    P = 8
    fp = fingerprint({"t": "resume-test"})

    def build(missing):
        return match_edges(
            keys_ds, method=METHOD, max_distance=MAXD, pair_budget=None,
            num_partitions=P, ckpt_parts=(P, missing, "__ckpt_part"),
        )

    # clean full run -> ground truth
    man1 = Manifest(str(tmp_path / "full"))
    full = man1.run_stage_partitioned("edges", fp, P, build)
    truth = sorted((r["src"], r["dst"]) for r in full.take_all())
    assert truth

    # simulate a mid-stage kill: seed a fresh dir with HALF the part files
    man2 = Manifest(str(tmp_path / "crash"))
    src_dir = man1.stage_dir("edges")
    dst_dir = man2.stage_dir("edges")
    os.makedirs(dst_dir, exist_ok=True)
    seeded = sorted(os.listdir(src_dir))[: P // 2]
    for fn in seeded:
        with open(os.path.join(src_dir, fn), "rb") as a, open(
            os.path.join(dst_dir, fn), "wb"
        ) as b:
            b.write(a.read())
    seeded_parts = {int(fn.split("-")[1]) for fn in seeded}

    calls = []

    def spy_build(missing):
        calls.append(list(missing))
        return build(missing)

    resumed = man2.run_stage_partitioned("edges", fp, P, spy_build)
    # builder saw exactly the non-seeded partitions
    assert len(calls) == 1
    assert set(calls[0]) == set(range(P)) - seeded_parts
    assert sorted((r["src"], r["dst"]) for r in resumed.take_all()) == truth

    # manifest: per-partition lineage + metrics for all P partitions,
    # resumed ones recorded
    import json

    man = json.load(open(tmp_path / "crash" / "manifest.json"))
    e = man["edges"]
    assert e["num_partitions"] == P
    assert set(e["partitions"]) == {str(i) for i in range(P)}
    assert sorted(e["resumed_parts"]) == sorted(seeded_parts)
    assert all("rows" in v for v in e["partitions"].values())

    # second identical run: nothing recomputed
    calls.clear()
    again = man2.run_stage_partitioned("edges", fp, P, spy_build)
    assert calls == []
    assert sorted((r["src"], r["dst"]) for r in again.take_all()) == truth

    # fingerprint change: all partitions invalid, stale files purged
    calls.clear()
    fp2 = fingerprint({"t": "resume-test-v2"})
    man2.run_stage_partitioned("edges", fp2, P, spy_build)
    assert calls and set(calls[0]) == set(range(P))
    assert all(fp2 in fn for fn in os.listdir(dst_dir))


def test_connected_components_mixed_endpoint_types_with_null():
    """Regression: src=int64 / dst=float64-with-null (the pandas
    null-promotion shape) crashed the self-loop rewrite concat with
    mismatched schemas; endpoints now promote to a common node type."""
    import pyarrow as pa
    import ray.data as rd

    from fozziejoin_ray.cluster.union_find import connected_components

    edges = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 5], pa.int64()),
                "b": pa.array([2.0, 3.0, None], pa.float64()),
            }
        )
    )
    out = {r["node"]: r["cluster"] for r in connected_components(edges, "a", "b").take_all()}
    # float-with-int endpoint mixes promote to STRING (a float64 cast
    # would merge distinct ids above 2^53 — ADVICE r4); Arrow renders
    # integral floats without the trailing ".0", so int 2 and float 2.0
    # still name the same node. {1,2,3} one component; 5 survives as
    # its own node via the self-loop rewrite
    assert out["1"] == out["2"] == out["3"]
    assert out["5"] == "5" and out["5"] != out["1"]


def test_incremental_equals_full_rerun(docs_and_labels):
    """cluster_documents_incremental folds a 25% delta into the prior
    clustering and must reproduce cluster_documents(old + new) exactly
    — including merges of two existing clusters bridged by a new doc
    (the interleaved docgen split below guarantees entities straddle
    the old/new boundary)."""
    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental

    docs_t, _ = docs_and_labels
    # split by doc index mod 4: each 4-doc entity contributes 3 old
    # docs + 1 new doc, so every entity's cluster must absorb a new doc
    idx = pa.array([i % 4 == 3 for i in range(docs_t.num_rows)])
    old_t = docs_t.filter(pa.compute.invert(idx))
    new_t = docs_t.filter(idx)

    full = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents(
            rd.from_arrow(docs_t), method=METHOD, max_distance=MAXD, pair_budget=None
        ).take_all()
    }
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD, pair_budget=None
    )
    inc = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents_incremental(
            rd.from_arrow(new_t),
            extract_keys(rd.from_arrow(old_t)),
            old_clusters,
            method=METHOD,
            max_distance=MAXD,
            pair_budget=None,
        ).take_all()
    }
    assert len(inc) == docs_t.num_rows
    assert inc == full
    # sanity: the increment really did join old clusters (not all singletons)
    assert any(inc[d] != d for d in inc)


def test_incremental_minhash_equals_full_rerun(docs_and_labels):
    """Same equivalence at the 10^12-doc blocking tier: banded-MinHash
    candidacy is a pure function of the key pair, so incremental
    minhash == full minhash re-run with the same banding."""
    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental

    docs_t, _ = docs_and_labels
    idx = pa.array([i % 4 == 3 for i in range(docs_t.num_rows)])
    old_t = docs_t.filter(pa.compute.invert(idx))
    new_t = docs_t.filter(idx)

    full = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents(
            rd.from_arrow(docs_t), method=METHOD, max_distance=MAXD,
            blocking="minhash", num_partitions=8,
        ).take_all()
    }
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD,
        blocking="minhash", num_partitions=8,
    )
    inc = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents_incremental(
            rd.from_arrow(new_t),
            extract_keys(rd.from_arrow(old_t)),
            old_clusters,
            method=METHOD,
            max_distance=MAXD,
            blocking="minhash",
            num_partitions=8,
        ).take_all()
    }
    assert len(inc) == docs_t.num_rows
    assert inc == full
    assert any(inc[d] != d for d in inc)


def test_incremental_minhash_bands_with_linkage_bands(docs_and_labels, monkeypatch):
    """Every LSH pass of a live minhash fold-in (the new-key self-join
    and the new-vs-old cross join) bands with ``LINKAGE_BANDS``, seed
    included."""
    import fozziejoin_ray.pipelines.dedup as dd
    import fozziejoin_ray.pipelines.linkage as lk
    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental

    monkeypatch.setattr(lk, "LINKAGE_BANDS", dd.MinHashBands(64, 32, 2, seed=7))
    seeds = []
    real = dd.lsh_fused_edges

    def spy(*args, key, **kw):
        seeds.append(key.seed)
        return real(*args, key=key, **kw)

    monkeypatch.setattr(dd, "lsh_fused_edges", spy)
    docs_t, _ = docs_and_labels
    idx = pa.array([i % 4 == 3 for i in range(docs_t.num_rows)])
    old_t = docs_t.filter(pa.compute.invert(idx))
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD,
        blocking="minhash", num_partitions=4,
    )
    seeds.clear()
    cluster_documents_incremental(
        rd.from_arrow(docs_t.filter(idx)),
        extract_keys(rd.from_arrow(old_t)),
        old_clusters,
        method=METHOD,
        max_distance=MAXD,
        blocking="minhash",
        num_partitions=4,
    ).materialize()
    assert len(seeds) == 2 and set(seeds) == {7}, seeds


def test_incremental_index_probe_equals_live_cross(docs_and_labels, tmp_path):
    """The persisted-index fold-in (build_linkage_lsh_index +
    old_index_dir probe) must reproduce both the live cross-LSH
    incremental AND the full minhash re-run."""
    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental
    from fozziejoin_ray.pipelines.linkage_index import build_linkage_lsh_index

    docs_t, _ = docs_and_labels
    idx = pa.array([i % 4 == 3 for i in range(docs_t.num_rows)])
    old_t = docs_t.filter(pa.compute.invert(idx))
    new_t = docs_t.filter(idx)
    old_keys = extract_keys(rd.from_arrow(old_t))
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD,
        blocking="minhash", num_partitions=8,
    )

    build_linkage_lsh_index(
        old_keys, str(tmp_path / "idx"), old_clusters=old_clusters, num_partitions=8
    )

    def run(index_dir):
        return {
            r["doc_id"]: r["cluster_id"]
            for r in cluster_documents_incremental(
                rd.from_arrow(new_t), old_keys, old_clusters,
                method=METHOD, max_distance=MAXD, blocking="minhash",
                num_partitions=8, old_index_dir=index_dir,
            ).take_all()
        }

    via_index = run(str(tmp_path / "idx"))
    live = run(None)
    assert via_index == live
    # cluster-baked index (the production nightly artifact): probes emit
    # (new doc, old cluster) directly, skipping the collapse join
    build_linkage_lsh_index(
        old_keys, str(tmp_path / "idx2"), old_clusters=old_clusters, num_partitions=8
    )
    assert run(str(tmp_path / "idx2")) == live
    full = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents(
            rd.from_arrow(docs_t), method=METHOD, max_distance=MAXD,
            blocking="minhash", num_partitions=8,
        ).take_all()
    }
    assert via_index == full


@pytest.mark.parametrize(
    "blocking,use_index", [("exact", False), ("minhash", False), ("minhash", True)]
)
def test_fold_in_extracts_delta_keys_once(docs_and_labels, tmp_path, blocking, use_index):
    """The fold-in's self join, cross join and new-doc label join all
    read the delta's keys. Ray Data shares no common subplan, so the
    delta plan must run once, not once per reader. Each execution of
    the delta plan leaves one marker file."""
    import uuid

    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental
    from fozziejoin_ray.pipelines.linkage_index import build_linkage_lsh_index

    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(t: pa.Table) -> pa.Table:
        (marks / uuid.uuid4().hex).touch()
        return t

    docs_t, _ = docs_and_labels
    old_t, new_t = docs_t.slice(0, 120), docs_t.slice(120, 3)
    kw = dict(method=METHOD, max_distance=MAXD, blocking=blocking, num_partitions=4)
    old_keys = extract_keys(rd.from_arrow(old_t))
    old_clusters = cluster_documents(rd.from_arrow(old_t), **kw)
    index_dir = None
    if use_index:
        index_dir = str(tmp_path / "idx")
        build_linkage_lsh_index(old_keys, index_dir, old_clusters=old_clusters, num_partitions=4)
    new_docs = rd.from_arrow(new_t).map_batches(mark, batch_format="pyarrow", batch_size=None)
    out = cluster_documents_incremental(
        new_docs, old_keys, old_clusters, old_index_dir=index_dir, **kw
    ).take_all()
    assert len(out) == 123
    assert len(list(marks.iterdir())) == 1


def test_index_probe_cap_semantics_vs_brute():
    """Stop-word-cap parity: with a tiny max_bucket, probe edges must
    equal the brute rule 'pair survives iff SOME band co-buckets it in
    a bucket where neither the old nor the new side alone exceeds the
    cap', computed directly from the shared signature helpers."""
    import itertools as it

    from fozziejoin_ray.kernels.strdist import score_pairs
    from fozziejoin_ray.pipelines.dedup import (
        _band_hashes, _minhash_params, char_shingles, minhash_signatures_batch,
    )
    from fozziejoin_ray.pipelines.linkage_index import (
        build_linkage_lsh_index, probe_linkage_lsh_index,
    )

    # a hot shared shingle-profile: many near-identical DISTINCT keys on
    # the old side (the engine banding runs on distinct-key reps, so the
    # brute bucket counts below are per distinct key too) so several
    # buckets exceed the tiny cap
    old_keys_v = [f"smith john {i}" for i in range(12)] + ["unique zebra"]
    new_keys_v = ["smith john 1x", "unique zebrb", "other name"]
    old = rd.from_arrow(pa.table({
        "doc_id": pa.array([f"o{i:03d}" for i in range(len(old_keys_v))]),
        "key": pa.array(old_keys_v),
    }))
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([f"n{i:03d}" for i in range(len(new_keys_v))]),
        "key": pa.array(new_keys_v),
    }))
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        old_ids = pa.array([f"o{i:03d}" for i in range(len(old_keys_v))])
        identity = rd.from_arrow(pa.table({"doc_id": old_ids, "cluster_id": old_ids}))
        build_linkage_lsh_index(old, d, old_clusters=identity, num_partitions=4)
        MAXB = 2
        got = {
            (r["src"], r["dst"])
            for r in probe_linkage_lsh_index(
                new, d, method="jaro_winkler", max_distance=0.2, max_bucket=MAXB
            ).take_all()
        }

    # brute: same signatures, same per-side cap rule
    ma, mb = _minhash_params(64, 13)
    def bands_of(vals):
        sh = [char_shingles(v, 2) for v in vals]
        return _band_hashes(minhash_signatures_batch(sh, ma, mb), 32)
    BO, BN = bands_of(old_keys_v), bands_of(new_keys_v)
    from collections import Counter
    # per-SIDE counts: the cap rule (mirroring the live two-table LSH
    # join) caps a bucket when EITHER side alone exceeds max_bucket
    cnt_o, cnt_n = Counter(), Counter()
    for B, cnt in ((BO, cnt_o), (BN, cnt_n)):
        for row in B:
            for b, h in enumerate(row):
                cnt[(b, int(h))] += 1
    want = set()
    for ni, oi in it.product(range(len(new_keys_v)), range(len(old_keys_v))):
        okb = [
            b for b in range(32)
            if BN[ni][b] == BO[oi][b]
            and cnt_o[(b, int(BN[ni][b]))] <= MAXB
            and cnt_n[(b, int(BN[ni][b]))] <= MAXB
        ]
        if okb:
            d0 = score_pairs("jaro_winkler", [new_keys_v[ni]], [old_keys_v[oi]])[0]
            if d0 <= 0.2:
                want.add((f"n{ni:03d}", f"o{oi:03d}"))
    assert got == want
    assert want  # scenario sanity: some pairs survive
    # scenario sanity: the cap actually bit somewhere
    assert any(c > MAXB for c in cnt_o.values())


@pytest.mark.parametrize(
    "edit",
    [
        {"minhash_bands": 16},  # other banding
        {"seed": 7},
        {"has_clusters": False},  # ids are rep doc ids, not cluster ids
    ],
)
def test_fold_in_rejects_foreign_index(docs_and_labels, tmp_path, edit):
    """index_meta.json is outside input: the fold-in refuses an index of
    other banding or one that is not cluster-baked, since probing it
    would give a fold-in that equals no full re-run."""
    import json

    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental
    from fozziejoin_ray.pipelines.linkage_index import build_linkage_lsh_index

    docs_t, _ = docs_and_labels
    old_t, new_t = docs_t.slice(0, 40), docs_t.slice(40, 10)
    old_keys = extract_keys(rd.from_arrow(old_t))
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD,
        blocking="minhash", num_partitions=4,
    )
    d = tmp_path / "idx"
    build_linkage_lsh_index(old_keys, str(d), old_clusters=old_clusters, num_partitions=4)

    def fold_in():
        return cluster_documents_incremental(
            rd.from_arrow(new_t), old_keys, old_clusters, method=METHOD,
            max_distance=MAXD, blocking="minhash", num_partitions=4,
            old_index_dir=str(d),
        ).take_all()

    assert len(fold_in()) == docs_t.slice(0, 50).num_rows
    meta_path = d / "index_meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, **edit}))
    with pytest.raises(ValueError, match="not a cluster-baked index of this banding"):
        fold_in()


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_incremental_equivalence_randomized(seed):
    """Randomized corpora (different seeds -> different name pools,
    mutation patterns, and split geometry): incremental fold-in must
    equal the full re-run on every one (exact blocking)."""
    import numpy as np

    from fozziejoin_ray.pipelines.linkage import cluster_documents_incremental

    docs_t, _ = make_documents_table(120, seed=seed, docs_per_entity=3)
    rng = np.random.RandomState(seed)
    new_mask = rng.rand(docs_t.num_rows) < 0.3
    old_t = docs_t.filter(pa.array(~new_mask))
    new_t = docs_t.filter(pa.array(new_mask))
    if new_t.num_rows == 0 or old_t.num_rows == 0:
        pytest.skip("degenerate split")

    full = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents(
            rd.from_arrow(docs_t), method=METHOD, max_distance=MAXD, pair_budget=None
        ).take_all()
    }
    old_clusters = cluster_documents(
        rd.from_arrow(old_t), method=METHOD, max_distance=MAXD, pair_budget=None
    )
    inc = {
        r["doc_id"]: r["cluster_id"]
        for r in cluster_documents_incremental(
            rd.from_arrow(new_t),
            extract_keys(rd.from_arrow(old_t)),
            old_clusters,
            method=METHOD,
            max_distance=MAXD,
            pair_budget=None,
        ).take_all()
    }
    assert inc == full, seed
