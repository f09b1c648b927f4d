"""Measure minhash-blocking recall at scale (verdict r2 item 9).

Exact all-pairs jw blocking at 480k keys is ~10^11 candidate pairs —
infeasible as a ground truth — so the oracle is ENTITY-STRATIFIED: draw
M whole entities (docgen ground truth: doc_idx // docs_per_entity),
regenerate their ~4M docs deterministically, run the EXACT blocking
(reference all-pairs jw semantics) on just those docs, and test every
exact same-cluster pair against the cluster labels produced by the
full-corpus minhash run.

Recall here = fraction of exact-oracle same-cluster pairs that the
full-corpus LSH clustering also puts in one cluster. (Caveat: the full
corpus can transitively link sampled docs through out-of-sample docs,
which flatters recall; the 120k fuzz test bounds the raw LSH band miss
rate independently.) Precision is 1 by construction — every LSH
candidate pair is verified with the exact jw kernel before becoming an
edge, so the only error mode is a MISSED pair, which is what this
measures.

Usage: python tools/measure_recall.py [n_docs] [n_sample_entities]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 480_000
N_ENTITIES_SAMPLE = int(sys.argv[2]) if len(sys.argv) > 2 else 2_500
SEED = 42
DPE = 4
METHOD = "jaro_winkler"
MAXD = 0.12


def main():
    import ray

    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from fozziejoin_ray.cluster.union_find import connected_components
    from fozziejoin_ray.pipelines.linkage import extract_keys, match_edges
    from fozziejoin_ray.sources.docgen import _gen_doc, SPAN_TYPE

    gen_dir = f"/tmp/fozzie_bench_docs_n{N_DOCS}_seed{SEED}"
    if not (os.path.isdir(gen_dir) and os.listdir(gen_dir)):
        from fozziejoin_ray.sources.docgen import make_documents_dataset

        make_documents_dataset(N_DOCS, seed=SEED, docs_per_entity=DPE).write_parquet(
            gen_dir + ".tmp"
        )
        os.rename(gen_dir + ".tmp", gen_dir)

    # ---- full-corpus minhash clustering (the scale path under test)
    t0 = time.time()
    docs = rd.read_parquet(gen_dir)
    keys = extract_keys(docs)
    edges = match_edges(keys, method=METHOD, max_distance=MAXD, blocking="minhash",
                        num_partitions=32)
    labels_rows = connected_components(edges, "src", "dst", num_partitions=32).take_all()
    lsh_label = {r["node"]: r["cluster"] for r in labels_rows}
    t_lsh = time.time() - t0

    # ---- entity-stratified exact oracle
    rng = np.random.RandomState(7)
    n_entities = N_DOCS // DPE
    ents = rng.choice(n_entities, size=min(N_ENTITIES_SAMPLE, n_entities), replace=False)
    idxs = (ents[:, None] * DPE + np.arange(DPE)[None, :]).ravel()
    ids, spans_col = [], []
    for i in idxs:
        d, s, _ = _gen_doc(int(i), SEED, DPE)
        ids.append(d)
        spans_col.append(s)
    sample = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.string()),
                  "spans": pa.array(spans_col, pa.list_(SPAN_TYPE))})
    )
    t1 = time.time()
    skeys = extract_keys(sample)
    ex_edges = match_edges(skeys, method=METHOD, max_distance=MAXD, blocking="exact",
                           pair_budget=4_000_000, num_partitions=32)
    ex_rows = connected_components(ex_edges, "src", "dst", num_partitions=32).take_all()
    t_exact = time.time() - t1
    ex_label = {r["node"]: r["cluster"] for r in ex_rows}
    for d in ids:  # singletons cluster to themselves in both systems
        ex_label.setdefault(d, d)
        lsh_label.setdefault(d, d)

    # exact same-cluster pairs within the sample
    from collections import defaultdict

    by_cluster = defaultdict(list)
    for d in ids:
        by_cluster[ex_label[d]].append(d)
    true_pairs = 0
    recovered = 0
    for members in by_cluster.values():
        members.sort()
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                true_pairs += 1
                if lsh_label[members[i]] == lsh_label[members[j]]:
                    recovered += 1

    recall = recovered / true_pairs if true_pairs else 1.0
    print(json.dumps({
        "metric": "minhash-blocking cluster recall vs exact-blocking oracle "
                  "(entity-stratified sample; edge precision is 1 by "
                  "construction - every LSH candidate is kernel-verified)",
        "n_docs": N_DOCS,
        "sample_entities": int(len(ents)),
        "sample_docs": len(ids),
        "true_pairs": true_pairs,
        "recovered": recovered,
        "recall": round(recall, 6),
        "lsh_run_sec": round(t_lsh, 1),
        "exact_oracle_sec": round(t_exact, 1),
        "seed": SEED,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
