"""PageRank vs a brute NumPy power iteration (both physical strategies)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.cluster.pagerank import pagerank

D = 0.85


def _graph(seed=7, n_nodes=40, n_edges=200):
    rng = np.random.RandomState(seed)
    return rng.randint(0, n_nodes, n_edges), rng.randint(0, n_nodes, n_edges)


def _brute(src, dst, iters):
    ids = sorted(set(src.astype(str)) | set(dst.astype(str)))
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    deg = np.zeros(n)
    for s in src.astype(str):
        deg[pos[s]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        c = np.zeros(n)
        for s, t in zip(src.astype(str), dst.astype(str)):
            c[pos[t]] += r[pos[s]] / deg[pos[s]]
        dang = r[deg == 0].sum()
        r = (1 - D) / n + D * (c + dang / n)
    return ids, r


@pytest.mark.parametrize("strategy,iters", [("broadcast", 15), ("shuffle", 10)])
def test_pagerank_matches_brute(strategy, iters):
    src, dst = _graph()
    edges = rd.from_arrow(
        pa.table({"src": src.astype(str), "dst": dst.astype(str)})
    ).repartition(4)
    out = {
        r["node"]: r["rank"]
        for r in pagerank(
            edges, strategy=strategy, iters=iters, num_partitions=4
        ).take_all()
    }
    ids, expected = _brute(src, dst, iters)
    got = np.array([out[v] for v in ids])
    assert len(out) == len(ids)
    assert np.abs(got - expected).max() < 1e-8
    assert abs(got.sum() - 1.0) < 1e-6  # ranks are a distribution


def test_pagerank_dangling_and_edge_cases():
    # star + dangling sink: b,c,d -> a; a has no out-edges
    edges = rd.from_arrow(
        pa.table({"src": ["b", "c", "d"], "dst": ["a", "a", "a"]})
    )
    out = {r["node"]: r["rank"] for r in pagerank(edges, iters=30).take_all()}
    assert out["a"] > out["b"] == out["c"] == out["d"]
    assert abs(sum(out.values()) - 1.0) < 1e-6
    # null endpoints dropped, not crashed
    withnull = rd.from_arrow(
        pa.table({"src": ["b", None, "c"], "dst": ["a", "a", None]})
    )
    out2 = pagerank(withnull, iters=5).take_all()
    assert {r["node"] for r in out2} == {"a", "b"}
    with pytest.raises(ValueError):
        pagerank(edges, damping=1.0)
    with pytest.raises(ValueError):
        pagerank(edges, iters=0)
    with pytest.raises(ValueError):
        pagerank(edges, strategy="nope")


def test_pagerank_shuffle_keeps_no_node_array_on_driver(monkeypatch):
    """The shuffle strategy takes the node count from its shards: the
    driver-side distinct-node pass must never run, and ranks still
    match the brute power iteration (an empty edge table included)."""
    import fozziejoin_ray.cluster.pagerank as pr

    def no_driver_nodes(*_):
        raise AssertionError("shuffle strategy collected the node set on the driver")

    monkeypatch.setattr(pr, "_distinct_nodes", no_driver_nodes)
    src, dst = _graph(seed=11)
    edges = rd.from_arrow(
        pa.table({"src": src.astype(str), "dst": dst.astype(str)})
    ).repartition(4)
    out = {
        r["node"]: r["rank"]
        for r in pagerank(edges, strategy="shuffle", iters=8, num_partitions=3).take_all()
    }
    ids, expected = _brute(src, dst, 8)
    assert sorted(out) == ids
    assert np.abs(np.array([out[v] for v in ids]) - expected).max() < 1e-8
    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())}))
    assert pagerank(empty, strategy="shuffle", num_partitions=3).take_all() == []
