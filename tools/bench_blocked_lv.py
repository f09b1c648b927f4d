"""One-off measurement for the blocked-string-path scale criterion:
edge building over the 480k-doc corpus keys with method='lv' under
(a) blocking='exact' (the joins/blocked.py recall-complete path) and
(b) blocking='minhash' (the LSH scale path), each in a fresh Ray
session. Reports wall seconds + edge counts; the bar is blocked within
2x of minhash (VERDICT r2 item 1).

Usage: python tools/bench_blocked_lv.py [n_docs] [blocking]
  with no args, self-spawns both legs in fresh processes and prints a
  combined JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 480_000
GEN_DIR = f"/tmp/fozzie_bench_docs_n{N_DOCS}_seed42"
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))


def one_leg(blocking: str) -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False, logging_level="ERROR")
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from fozziejoin_ray.pipelines.linkage import extract_keys, match_edges

    if not (os.path.isdir(GEN_DIR) and os.listdir(GEN_DIR)):
        from fozziejoin_ray.sources.docgen import make_documents_dataset

        make_documents_dataset(N_DOCS, seed=42, docs_per_entity=4).write_parquet(GEN_DIR + ".tmp")
        os.rename(GEN_DIR + ".tmp", GEN_DIR)

    keys = extract_keys(rd.read_parquet(GEN_DIR)).materialize()  # untimed input
    t0 = time.time()
    edges = match_edges(keys, method="lv", max_distance=1, blocking=blocking, num_partitions=64)
    n = edges.count()
    wall = time.time() - t0
    # edge SETS differ by representation (exact emits every row pair;
    # minhash emits value-rep pairs + zero-dist identity edges) — the
    # comparable artifact is the induced partition. Hash it (untimed).
    import pandas as pd

    pairs = pa.concat_tables(
        edges.select_columns(["src", "dst"]).iter_batches(batch_size=None, batch_format="pyarrow")
    ).to_pandas() if n else None
    sig = 0
    if pairs is not None:
        import zlib

        nodes = pd.unique(pd.concat([pairs["src"], pairs["dst"]], ignore_index=True))
        idx = pd.Series(range(len(nodes)), index=nodes)
        parent = list(range(len(nodes)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(idx[pairs["src"]].to_numpy(), idx[pairs["dst"]].to_numpy()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        comp = {}
        for i, node in enumerate(nodes):
            comp.setdefault(find(i), []).append(str(node))
        sig = zlib.crc32(
            "|".join(sorted(",".join(sorted(c)) for c in comp.values())).encode()
        )
    print(json.dumps({"blocking": blocking, "edges": n, "sec": round(wall, 1),
                      "partition_crc": sig}))
    ray.shutdown()


def main() -> None:
    if len(sys.argv) > 2:
        one_leg(sys.argv[2])
        return
    out = {}
    for blocking in ("minhash", "exact"):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=repo)
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), str(N_DOCS), blocking],
            capture_output=True, text=True, cwd=repo, env=env,
        )
        if r.returncode != 0:
            print(r.stderr[-3000:], file=sys.stderr)
            sys.exit(1)
        out[blocking] = json.loads(r.stdout.strip().splitlines()[-1])
    ratio = out["exact"]["sec"] / out["minhash"]["sec"]
    print(json.dumps({
        "n_docs": N_DOCS, "method": "lv", "max_distance": 1, "num_cpus": NUM_CPUS,
        "minhash": out["minhash"], "blocked_exact": out["exact"],
        "blocked_over_minhash": round(ratio, 2),
        "same_partition": out["exact"]["partition_crc"] == out["minhash"]["partition_crc"],
    }))


if __name__ == "__main__":
    main()
