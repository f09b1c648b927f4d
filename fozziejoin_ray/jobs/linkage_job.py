"""``ray job submit``-able entrypoint for the flagship record-linkage
pipeline (the north_star deployment shape): read a spans-shaped table
(Lance in production, Parquet in this environment), run blocking +
pairwise scoring + transitive clustering, write partitioned output, and
print one JSON metrics line.

Cluster usage (the driver process connects to the running cluster via
the RAY_ADDRESS the job runner injects — ``ray.init()`` here attaches,
it does not start a new cluster)::

    ray job submit --working-dir . -- \
        python -m fozziejoin_ray.jobs.linkage_job \
        --input /data/docs.lance --format lance \
        --output /data/clusters --checkpoint-dir /data/ckpt \
        --method jaro_winkler --max-distance 0.12 \
        --blocking minhash --num-partitions 512

Local smoke run (single node, same code path)::

    python -m fozziejoin_ray.jobs.linkage_job \
        --input /root/testdata/sf0.001/documents.parquet --spansify \
        --output /tmp/clusters --num-cpus 8

Production nightly/daily cycle (incremental fold-in)::

    # nightly: one pass — keys are extracted once, the cluster label
    # join carries them, and the clusters, the keys and the
    # cluster-baked LSH index are all written from that one table
    ray job submit -- python -m fozziejoin_ray.jobs.linkage_job \
        --input /data/docs.lance --format lance --output /data/nightly \
        --emit-keys /data/keys --build-index /data/lsh_index

    # daily: fold the delta in — probes the index partition-locally,
    # O(delta) shuffle; output == a full re-run over old+new
    ray job submit -- python -m fozziejoin_ray.jobs.linkage_job \
        --input /data/delta.lance --format lance --output /data/daily \
        --incremental --old-keys /data/keys --old-clusters /data/nightly \
        --index-dir /data/lsh_index

Resumability: with ``--checkpoint-dir`` every stage writes part files
with per-partition lineage + wall-time metrics into ``manifest.json``;
a rerun after a mid-stage kill reuses completed partitions (see
state/checkpoint.py). The metrics line echoes the manifest so the job
log carries per-stage rows/wall_sec.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fozziejoin_ray.jobs.linkage_job",
        description="Blocking + pairwise scoring + transitive clustering over a spans table.",
    )
    p.add_argument("--input", required=True, help="input table path (spans-shaped)")
    p.add_argument("--format", default="parquet", choices=("parquet", "lance", "csv", "json"))
    p.add_argument("--output", required=True, help="output directory (partitioned files)")
    p.add_argument("--output-format", default="parquet", choices=("parquet", "lance", "csv", "json"))
    p.add_argument("--checkpoint-dir", default=None, help="manifest + stage part files")
    p.add_argument("--method", default="jaro_winkler", help="string-distance method")
    p.add_argument("--max-distance", type=float, default=0.12)
    p.add_argument("--blocking", default="minhash", choices=("exact", "minhash"),
                   help="'minhash' is the at-scale path; 'exact' is recall-complete all-pairs")
    p.add_argument("--num-partitions", type=int, default=32,
                   help="shuffle width — size to ~2-4x total cluster cores")
    p.add_argument("--pair-budget", type=int, default=4_000_000,
                   help="per-block candidate cap before salting kicks in")
    p.add_argument("--id-type", default="string", choices=("string", "int64"))
    p.add_argument("--spansify", action="store_true",
                   help="input is a flat (doc_id, text) table: reshape it into the "
                        "spans schema first (testdata convenience; production tables "
                        "are already spans-shaped)")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="only for local runs WITHOUT a cluster: cores for the "
                        "implicit ray.init; ignored when attached to a cluster")
    # --- nightly/daily production cycle -------------------------------
    p.add_argument("--build-index", default=None, metavar="DIR",
                   help="persist the banded LSH linkage index to DIR: one row "
                        "per band of each distinct key, labelled with its "
                        "cluster — the nightly artifact the daily --incremental "
                        "fold-in probes. Written from the same keyed cluster "
                        "table as --output and --emit-keys")
    p.add_argument("--incremental", action="store_true",
                   help="fold-in mode: --input is the DELTA; requires "
                        "--old-keys and --old-clusters (prior nightly outputs); "
                        "output holds updated assignments for old+new docs")
    p.add_argument("--old-keys", default=None,
                   help="(incremental) parquet of the prior corpus' (doc_id, key) "
                        "table — extract_keys output retained by the nightly run")
    p.add_argument("--old-clusters", default=None,
                   help="(incremental) parquet of the prior (doc_id, cluster_id)")
    p.add_argument("--index-dir", default=None,
                   help="(incremental, minhash) probe this persisted LSH index "
                        "instead of re-exchanging the old key table")
    p.add_argument("--emit-keys", default=None, metavar="DIR",
                   help="also write the extracted (doc_id, key) table — retain "
                        "it for future --incremental runs")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        # On a cluster, ray job submit sets RAY_ADDRESS and this attaches;
        # standalone it starts a local session (bounded by --num-cpus).
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    import pyarrow as pa

    from ..joins.modes import _project
    from ..pipelines.linkage_index import build_linkage_lsh_index, write_linkage_lsh_index
    from ..sources.io import read_table, write_table

    t0 = time.time()
    cols = ["doc_id", "spans"] if not args.spansify else ["doc_id", "text"]
    docs = read_table(args.input, format=args.format, columns=cols)
    if args.spansify:
        from ..sources.docgen import spansify_table

        docs = docs.map_batches(spansify_table, batch_format="pyarrow")
    n_docs = docs.count()

    id_type = pa.string() if args.id_type == "string" else pa.int64()
    if args.incremental:
        if not (args.old_keys and args.old_clusters):
            raise SystemExit("--incremental requires --old-keys and --old-clusters")
        from ..pipelines.linkage import cluster_documents_incremental, extract_keys

        old_keys = read_table(args.old_keys, format="parquet")
        old_clusters = read_table(args.old_clusters, format="parquet")
        clusters = cluster_documents_incremental(
            docs,
            old_keys,
            old_clusters,
            method=args.method,
            max_distance=args.max_distance,
            pair_budget=args.pair_budget,
            num_partitions=args.num_partitions,
            id_type=id_type,
            blocking=args.blocking,
            old_index_dir=args.index_dir,
        )
        # the next nightly artifacts must cover old + new keys
        keys = extract_keys(docs).union(old_keys)
        if args.emit_keys and args.build_index:
            keys = keys.materialize()
    else:
        from ..pipelines.linkage import cluster_keys

        # (doc_id, key, cluster_id): the clusters, the key table and the
        # index are all written from this one table
        labelled = cluster_keys(
            docs,
            method=args.method,
            max_distance=args.max_distance,
            pair_budget=args.pair_budget,
            checkpoint_dir=args.checkpoint_dir,
            num_partitions=args.num_partitions,
            id_type=id_type,
            blocking=args.blocking,
        )
        if args.emit_keys or args.build_index:
            labelled = labelled.materialize()
        clusters = _project(labelled, ["doc_id", "cluster_id"])
        keys = _project(labelled, ["doc_id", "key"])
    write_table(clusters, args.output, format=args.output_format)
    if args.emit_keys:
        write_table(keys, args.emit_keys, format="parquet")
    if args.build_index and args.incremental:
        # read the just-written assignments back rather than
        # re-executing the (lazy) fold-in plan a second time
        build_linkage_lsh_index(
            keys,
            args.build_index,
            old_clusters=read_table(args.output, format=args.output_format),
            num_partitions=args.num_partitions,
            id_type=id_type,
        )
    elif args.build_index:
        write_linkage_lsh_index(labelled, args.build_index, num_partitions=args.num_partitions)

    wall = time.time() - t0
    metrics = {
        "job": "linkage_incremental" if args.incremental else "linkage",
        "docs": n_docs,
        "wall_sec": round(wall, 3),
        "docs_per_sec": round(n_docs / wall, 1) if wall > 0 else None,
        "method": args.method,
        "blocking": args.blocking,
        "num_partitions": args.num_partitions,
        "output": args.output,
    }
    if args.checkpoint_dir:
        import os

        mpath = os.path.join(args.checkpoint_dir, "manifest.json")
        if os.path.exists(mpath):
            with open(mpath) as f:
                man = json.load(f)
            metrics["stages"] = {
                s: {k: e[k] for k in ("rows", "wall_sec") if k in e} for s, e in man.items()
            }
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
