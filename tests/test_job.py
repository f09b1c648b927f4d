"""Linkage job entrypoint: CLI arg handling, end-to-end run over real
parquet, metrics line, and checkpoint-backed rerun identity."""

import json

import pyarrow.parquet as pq

from fozziejoin_ray.jobs.linkage_job import build_parser, main

SF = "/root/testdata/sf0.001"


def _run(tmp_path, capsys, out_name, ckpt):
    rc = main(
        [
            "--input", f"{SF}/documents.parquet",
            "--spansify",
            "--output", str(tmp_path / out_name),
            "--checkpoint-dir", str(ckpt),
            "--num-partitions", "4",
            "--blocking", "minhash",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(line)


def test_job_end_to_end_and_resume(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    m1 = _run(tmp_path, capsys, "out1", ckpt)
    assert m1["docs"] == 500 and m1["job"] == "linkage"
    assert set(m1["stages"]) == {"edges", "labels"}
    t1 = pq.read_table(str(tmp_path / "out1")).sort_by("doc_id")
    assert t1.num_rows == 500 and set(t1.column_names) == {"doc_id", "cluster_id"}
    # rerun with the same checkpoint dir: stages resumed, output identical
    m2 = _run(tmp_path, capsys, "out2", ckpt)
    assert m2["stages"]["edges"]["rows"] == m1["stages"]["edges"]["rows"]
    t2 = pq.read_table(str(tmp_path / "out2")).sort_by("doc_id")
    assert t1.equals(t2)


def test_parser_defaults():
    args = build_parser().parse_args(["--input", "x", "--output", "y"])
    assert args.blocking == "minhash" and args.format == "parquet"
    assert args.method == "jaro_winkler" and not args.spansify


def test_job_nightly_daily_cycle(tmp_path, capsys):
    """The production cycle end-to-end through the CLI: nightly full run
    emitting keys + LSH index, then a daily --incremental fold-in
    probing that index; fold-in output must equal a full re-run over
    old+new through the same CLI."""
    import pyarrow as pa
    import duckdb

    # split the testdata corpus 75/25 by doc id parity on disk
    src = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = src.column("doc_id").to_pylist()
    mask = pa.array([i % 4 == 3 for i in ids])
    pq.write_table(src.filter(pa.compute.invert(mask)), str(tmp_path / "old.parquet"))
    pq.write_table(src.filter(mask), str(tmp_path / "new.parquet"))

    # nightly: full clustering + retained keys + persisted index
    rc = main([
        "--input", str(tmp_path / "old.parquet"), "--spansify",
        "--output", str(tmp_path / "nightly"),
        "--num-partitions", "4", "--blocking", "minhash",
        "--emit-keys", str(tmp_path / "keys"),
        "--build-index", str(tmp_path / "idx"),
    ])
    assert rc == 0
    capsys.readouterr()

    # daily: fold the delta in via the persisted index
    rc = main([
        "--input", str(tmp_path / "new.parquet"), "--spansify",
        "--output", str(tmp_path / "daily"),
        "--num-partitions", "4", "--blocking", "minhash",
        "--incremental",
        "--old-keys", str(tmp_path / "keys"),
        "--old-clusters", str(tmp_path / "nightly"),
        "--index-dir", str(tmp_path / "idx"),
    ])
    assert rc == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert m["job"] == "linkage_incremental"

    # reference: full CLI run over the whole corpus
    rc = main([
        "--input", f"{SF}/documents.parquet", "--spansify",
        "--output", str(tmp_path / "full"),
        "--num-partitions", "4", "--blocking", "minhash",
    ])
    assert rc == 0
    capsys.readouterr()
    got = pq.read_table(str(tmp_path / "daily")).sort_by("doc_id")
    want = pq.read_table(str(tmp_path / "full")).sort_by("doc_id")
    assert got.equals(want)


def _nightly(tmp_path):
    return main([
        "--input", f"{SF}/documents.parquet", "--spansify",
        "--output", str(tmp_path / "nightly"),
        "--num-partitions", "4", "--blocking", "minhash",
        "--emit-keys", str(tmp_path / "keys"),
        "--build-index", str(tmp_path / "idx"),
    ])


def test_nightly_is_one_pass(tmp_path, capsys, monkeypatch, spy_exchange):
    """The nightly run extracts keys and runs the value-dedup exchange
    once each, and writes clusters, keys and index from the keyed label
    join: 3 exchanges outside connected components (rep exchange, LSH
    bucket exchange, index write) and no Dataset.groupby. The label join
    broadcasts the driver-side components' small materialized labels."""
    import ray.data as rd

    from fozziejoin_ray.pipelines import linkage

    calls = {"extract_keys": 0, "_key_rep_rows": 0, "exchange": 0, "groupby": 0}
    in_cc = [False]

    def counted(name):
        orig = getattr(linkage, name)

        def fn(*a, **kw):
            calls[name] += 1
            return orig(*a, **kw)

        return fn

    for name in ("extract_keys", "_key_rep_rows"):
        monkeypatch.setattr(linkage, name, counted(name))
    orig_cc = linkage.connected_components

    def cc(*a, **kw):
        in_cc[0] = True
        try:
            return orig_cc(*a, **kw)
        finally:
            in_cc[0] = False

    monkeypatch.setattr(linkage, "connected_components", cc)
    orig_groupby = rd.Dataset.groupby

    def groupby(self, *a, **kw):
        calls["groupby"] += not in_cc[0]
        return orig_groupby(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "groupby", groupby)

    def exchanged(*a, **kw):
        calls["exchange"] += not in_cc[0]

    spy_exchange(exchanged)
    assert _nightly(tmp_path) == 0
    capsys.readouterr()
    assert calls == {"extract_keys": 1, "_key_rep_rows": 1, "exchange": 3, "groupby": 0}


def _index_rows(d):
    """All index partitions' rows, sorted: (bucket, key) is unique."""
    import glob

    import pyarrow as pa

    t = pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(f"{d}/__part=*/*.parquet"))])
    return t.sort_by([("__bucket", "ascending"), ("key", "ascending")])


def test_nightly_index_equals_public_build(tmp_path, capsys):
    """The index the nightly CLI writes from its keyed label join holds
    the same rows, across all partitions, as the public
    build_linkage_lsh_index over the same keys and the nightly's own
    cluster output."""
    import ray.data as rd

    from fozziejoin_ray.pipelines.linkage import extract_keys
    from fozziejoin_ray.pipelines.linkage_index import build_linkage_lsh_index
    from fozziejoin_ray.sources.docgen import spansify_table

    assert _nightly(tmp_path) == 0
    capsys.readouterr()
    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        spansify_table, batch_format="pyarrow"
    )
    build_linkage_lsh_index(
        extract_keys(docs), str(tmp_path / "idx_public"),
        old_clusters=rd.read_parquet(str(tmp_path / "nightly")), num_partitions=4,
    )
    got = _index_rows(tmp_path / "idx")
    want = _index_rows(tmp_path / "idx_public")
    assert got.num_rows > 0
    assert got.equals(want)
