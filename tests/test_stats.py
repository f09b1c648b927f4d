"""column_quantiles / value_counts vs DuckDB's quantile_disc on the
same multisets (the convention contract), plus edge cases."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.pipelines.stats import column_quantiles, value_counts


def _duck_quantiles(values, qs):
    con = duckdb.connect()
    con.register("t", pa.table({"x": values}))
    return [
        con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0] for q in qs
    ]


@pytest.mark.parametrize(
    "values",
    [
        [1, 2, 3, 4, 5],
        [5, 1, 5, 1, 5, 1, 7],
        [42],
        list(range(100)) * 3,
        [0, 0, 0, 1],
    ],
)
def test_quantiles_match_duckdb(values):
    qs = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    ds = rd.from_arrow(pa.table({"x": pa.array(values, pa.int64())}))
    got = column_quantiles(ds, "x", qs)
    want = _duck_quantiles(pa.array(values, pa.int64()), qs)
    assert got.column("value").to_pylist() == want
    assert got.column("q").to_pylist() == qs


def test_quantiles_ignore_nulls_and_validate():
    ds = rd.from_arrow(pa.table({"x": pa.array([None, 3, None, 1, 2], pa.int64())}))
    got = column_quantiles(ds, "x", [0.5])
    assert got.column("value").to_pylist() == [2]
    with pytest.raises(ValueError):
        column_quantiles(ds, "x", [1.5])
    empty = rd.from_arrow(pa.table({"x": pa.array([None, None], pa.int64())}))
    with pytest.raises(ValueError):
        column_quantiles(empty, "x", [0.5])


def test_value_counts_merges_across_batches():
    t = pa.table({"x": pa.array(list(range(10)) * 50, pa.int64())})
    ds = rd.from_arrow(t).repartition(8)
    rows = sorted(
        (r["value"], r["sum(count)"]) for r in value_counts(ds, "x").take_all()
    )
    assert rows == [(i, 50) for i in range(10)]


def test_group_aggregate_vs_pandas():
    import pandas as pd

    from fozziejoin_ray.pipelines.stats import group_aggregate

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "k1": rng.integers(0, 5, n),
            "k2": rng.choice(["a", "b", "c"], n),
            "v": rng.normal(size=n),
            "w": rng.integers(0, 100, n).astype(float),
        }
    )
    df.loc[rng.choice(n, 200, replace=False), "v"] = np.nan  # NULLs ignored
    ds = rd.from_pandas(df).repartition(8)
    got = (
        pd.DataFrame(
            group_aggregate(
                ds,
                ["k1", "k2"],
                {
                    "n": ("count", "*"),
                    "n_v": ("count", "v"),
                    "s_w": ("sum", "w"),
                    "mn_v": ("min", "v"),
                    "mx_v": ("max", "v"),
                    "avg_w": ("avg", "w"),
                },
                num_partitions=4,
            ).take_all()
        )
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    g = df.groupby(["k1", "k2"])
    exp = pd.DataFrame(
        {
            "n": g.size(),
            "n_v": g["v"].count(),
            "s_w": g["w"].sum(),
            "mn_v": g["v"].min(),
            "mx_v": g["v"].max(),
            "avg_w": g["w"].mean(),
        }
    ).reset_index()
    got = got[exp.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-9, rtol=1e-9)
    with pytest.raises(ValueError, match="only valid with count"):
        group_aggregate(ds, ["k1"], {"x": ("sum", "*")})
    with pytest.raises(ValueError, match="unknown agg"):
        group_aggregate(ds, ["k1"], {"x": ("median", "v")})


def test_grouped_quantiles_vs_brute():
    import math

    from fozziejoin_ray.pipelines.stats import grouped_quantiles

    rng = np.random.default_rng(11)
    n = 3000
    keys = rng.choice(["en", "fr", "de", None], n, p=[0.5, 0.3, 0.15, 0.05])
    vals = rng.integers(0, 40, n).astype(float)
    vals[rng.choice(n, 100, replace=False)] = np.nan  # NULL values ignored
    ds = rd.from_arrow(
        pa.table({"k": pa.array(keys.tolist(), pa.string()), "v": vals})
    ).repartition(6)
    qs = [0.1, 0.5, 0.9]
    got = {
        (d["k"], d["q"]): d["value"]
        for d in grouped_quantiles(ds, "k", "v", qs, num_partitions=4).take_all()
    }

    for k in ["en", "fr", "de", None]:
        sub = sorted(
            v
            for kk, v in zip(keys.tolist(), vals)
            if kk == k and not math.isnan(v)
        )
        for q in qs:
            rank = min(max(math.ceil(q * len(sub)), 1), len(sub))
            assert got[(k, q)] == sub[rank - 1], (k, q)
    assert len(got) == 12
    with pytest.raises(ValueError, match="quantile"):
        grouped_quantiles(ds, "k", "v", [1.5])


def _duck_grouped_quantiles(tables, qs):
    con = duckdb.connect()
    con.register("t", pa.concat_tables(tables))
    return {
        (k, q): v
        for q in qs
        for k, v in con.execute(
            f"SELECT k, quantile_disc(v, {q}) FROM t WHERE v IS NOT NULL GROUP BY k"
        ).fetchall()
    }


def _grouped_quantile_rows(ds, qs, num_partitions):
    from fozziejoin_ray.pipelines.stats import grouped_quantiles

    rows = grouped_quantiles(ds, "k", "v", qs, num_partitions=num_partitions).take_all()
    # keys from null-degraded float64 blocks come back as floats (7.0)
    # and the null key as None or NaN
    return [(None if pd.isna(d["k"]) else int(d["k"]), d["q"], d["value"]) for d in rows]


@pytest.mark.parametrize("num_partitions", [4, 8, 16, 32])
def test_grouped_quantiles_int_key_null_in_some_blocks(num_partitions):
    """An int64 key that shares a block with a NULL key turns float64 in
    the pandas partial; its partials must still meet the same key's
    partials from null-free blocks (one row per (key, q))."""
    qs = [0.5]
    blocks = [
        pa.table({"k": pa.array([7, 7, 8], pa.int64()), "v": pa.array([1, 2, 3], pa.int64())}),
        pa.table({"k": pa.array([7, None, 7], pa.int64()), "v": pa.array([10, 5, 11], pa.int64())}),
    ]
    rows = _grouped_quantile_rows(rd.from_arrow(blocks), qs, num_partitions)
    assert len(rows) == len({(k, q) for k, q, _ in rows})
    got = {(k, q): v for k, q, v in rows}
    assert got == _duck_grouped_quantiles(blocks, qs)
    assert got[(7, 0.5)] == 2


def test_grouped_quantiles_int_key_nulls_random_layout():
    rng = np.random.default_rng(23)
    n = 2000
    keys = rng.integers(0, 60, n)
    valid = np.ones(n, dtype=bool)
    valid[rng.choice(n // 2, 40, replace=False)] = False  # nulls in the first half only
    t = pa.table(
        {
            "k": pa.array(keys, pa.int64(), mask=~valid),
            "v": pa.array(rng.integers(0, 30, n), pa.int64()),
        }
    )
    blocks = [t.slice(i, 250) for i in range(0, n, 250)]
    qs = [0.1, 0.5, 0.9]
    want = _duck_grouped_quantiles(blocks, qs)
    for ds in (rd.from_arrow(blocks), rd.from_arrow(blocks).repartition(5)):
        rows = _grouped_quantile_rows(ds, qs, 8)
        assert len(rows) == len({(k, q) for k, q, _ in rows})
        assert {(k, q): v for k, q, v in rows} == want


def test_group_aggregate_allnull_sum_is_null():
    from fozziejoin_ray.pipelines.stats import group_aggregate

    import pandas as pd

    df = pd.DataFrame({"k": ["a", "a", "b"], "v": [np.nan, np.nan, 1.0]})
    out = group_aggregate(
        rd.from_pandas(df), ["k"], {"s": ("sum", "v"), "n": ("count", "v")}
    ).take_all()
    got = {d["k"]: (d["s"], d["n"]) for d in out}
    assert got["b"] == (1.0, 1)
    assert got["a"][1] == 0 and (got["a"][0] is None or np.isnan(got["a"][0]))


def test_heavy_hitters_exact_and_cms():
    from fozziejoin_ray.pipelines.sketch import cms_heavy_hitters, heavy_hitters

    # skewed corpus: token frequencies 100, 50, 25, ... plus noise tail
    import collections

    docs, truth = [], collections.Counter()
    for i, f in enumerate([100, 50, 25, 12, 6]):
        docs.extend([f"hot{i}"] * f)
        truth[f"hot{i}"] = f
    for j in range(200):
        docs.append(f"tail{j}")
        truth[f"tail{j}"] = 1
    # pack tokens into multi-token documents to exercise the flatten
    texts = [" ".join(docs[i : i + 7]) for i in range(0, len(docs), 7)]
    ds = rd.from_arrow(pa.table({"text": texts})).repartition(4)

    exact = heavy_hitters(ds, top_k=5).take_all()
    assert [(d["token"], d["n"]) for d in exact] == [
        ("hot0", 100), ("hot1", 50), ("hot2", 25), ("hot3", 12), ("hot4", 6)
    ]

    t = cms_heavy_hitters(ds, top_k=5, width=4096, depth=4, candidates_per_batch=64)
    got = list(zip(t["token"].to_pylist(), t["n_est"].to_pylist()))
    # CMS never under-counts, and on an under-width stream it's exact
    for tok, est in got:
        assert est >= truth[tok]
    assert [g[0] for g in got] == ["hot0", "hot1", "hot2", "hot3", "hot4"]
    assert all(est - truth[tok] <= 2 * sum(truth.values()) // 4096 for tok, est in got)
    with pytest.raises(ValueError, match=">= 1"):
        cms_heavy_hitters(ds, top_k=0)


def test_group_count_distinct_vs_pandas():
    import pandas as pd

    from fozziejoin_ray.pipelines.stats import group_count_distinct

    rng = np.random.RandomState(5)
    n = 3000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c", None], n),
            "v": rng.randint(0, 80, n).astype(float),
        }
    )
    df.loc[rng.choice(n, 100, replace=False), "v"] = np.nan  # nulls ignored
    ds = rd.from_pandas(df).repartition(6)
    got = (
        group_count_distinct(ds, ["g"], "v", out_col="nd", num_partitions=8)
        .to_pandas()
        .sort_values("g", na_position="last")
        .reset_index(drop=True)
    )
    exp = (
        df.dropna(subset=["v"])
        .groupby("g", dropna=False)["v"]
        .nunique()
        .rename("nd")
        .reset_index()
        .sort_values("g", na_position="last")
        .reset_index(drop=True)
    )
    assert got["nd"].astype(int).tolist() == exp["nd"].astype(int).tolist()
    assert got["g"].fillna("<null>").tolist() == exp["g"].fillna("<null>").tolist()
    # a group whose values are ALL NULL still surfaces, with count 0
    allnull = rd.from_arrow(
        pa.table({"g": ["x", "x", "y"], "v": pa.array([None, None, 7], pa.int64())})
    )
    rows = {
        r["g"]: r["nd"]
        for r in group_count_distinct(allnull, ["g"], "v", out_col="nd").take_all()
    }
    assert rows == {"x": 0, "y": 1}
    with pytest.raises(ValueError):
        group_count_distinct(ds, [], "v")


def test_hll_count_distinct_bounds():
    from fozziejoin_ray.pipelines.sketch import hll_count_distinct

    # large cardinality: within 5% (standard error ~1.6% at p=12)
    n, true = 120_000, 30_000
    ds = rd.from_arrow(
        pa.table({"v": pa.array([f"u{i % true}" for i in range(n)])})
    ).repartition(8)
    est = hll_count_distinct(ds, "v").take_all()[0]["n_distinct"]
    assert abs(est - true) / true < 0.05, est
    # linear-counting regime: near-exact
    small = rd.from_arrow(pa.table({"v": [f"k{i % 200}" for i in range(4000)]}))
    est2 = hll_count_distinct(small, "v").take_all()[0]["n_distinct"]
    assert abs(est2 - 200) <= 4, est2
    # nulls ignored; partition-invariant (pure function of the value set)
    withnull = rd.from_arrow(pa.table({"v": pa.array(["a", "b", None, "a"])}))
    assert hll_count_distinct(withnull, "v").take_all()[0]["n_distinct"] == 2
    est3 = hll_count_distinct(small.repartition(7), "v").take_all()[0]["n_distinct"]
    assert est3 == est2
    with pytest.raises(ValueError):
        hll_count_distinct(small, "v", p=3)
    with pytest.raises(ValueError):
        hll_count_distinct(small, "v", p=10)  # rank bits exceed f64 mantissa


def test_approx_quantiles_error_bound_and_invariance():
    from fozziejoin_ray.pipelines.stats import approx_quantiles

    rng = np.random.RandomState(3)
    v = rng.lognormal(0.0, 1.0, 50_000)
    ds = rd.from_arrow(pa.table({"x": v})).repartition(7)
    qs = [0.05, 0.5, 0.95, 0.99]
    t = approx_quantiles(ds, "x", qs, bins=4096)
    got = dict(zip(t["q"].to_pylist(), t["value"].to_pylist()))
    bin_w = (v.max() - v.min()) / 4096
    for q in qs:
        assert abs(got[q] - np.quantile(v, q)) <= 2 * bin_w, q
    # partitioning-invariant (pure function of the multiset)
    t2 = approx_quantiles(ds.repartition(2), "x", qs, bins=4096)
    assert t2["value"].to_pylist() == t["value"].to_pylist()
    # nulls ignored; empty raises like column_quantiles
    withnull = rd.from_arrow(pa.table({"x": pa.array([1.0, None, 3.0])}))
    tv = approx_quantiles(withnull, "x", [1.0], bins=4).column("value")[0].as_py()
    assert tv >= 3.0 - 1e-9
    allnull = rd.from_arrow(pa.table({"x": pa.array([None, None], pa.float64())}))
    with pytest.raises(ValueError, match="no finite"):
        approx_quantiles(allnull, "x", [0.5])
    # infinities are ignored, not grid-poisoning
    withinf = rd.from_arrow(
        pa.table({"x": pa.array([1.0, float("inf"), 2.0, float("-inf"), 3.0])})
    )
    ti = approx_quantiles(withinf, "x", [0.5], bins=8)
    assert np.isfinite(ti.column("value")[0].as_py())
    # constant column short-circuits to the exact value
    const = rd.from_arrow(pa.table({"x": pa.array([5.0] * 100)}))
    tc = approx_quantiles(const, "x", [0.1, 0.9])
    assert tc["value"].to_pylist() == [5.0, 5.0]
    with pytest.raises(ValueError):
        approx_quantiles(ds, "x", [])
    with pytest.raises(ValueError):
        approx_quantiles(ds, "x", [0.5], bins=0)


def test_group_hll_distinct_bounds_and_invariance():
    import pandas as pd

    from fozziejoin_ray.pipelines.sketch import group_hll_distinct

    rng = np.random.RandomState(9)
    n = 40_000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", None], n),
            "u": [f"user{int(x)}" for x in rng.randint(0, 3000, n)],
        }
    )
    df.loc[rng.choice(n, 50, replace=False), "u"] = None  # nulls ignored
    ds = rd.from_pandas(df).repartition(5)
    def norm(rows):
        return {
            (None if pd.isna(r["g"]) else r["g"]): r["nd"] for r in rows
        }

    got = norm(group_hll_distinct(ds, ["g"], "u", out_col="nd").take_all())
    exact = df.dropna(subset=["u"]).groupby("g", dropna=False)["u"].nunique()
    for g, true in exact.items():
        key = None if pd.isna(g) else g
        assert abs(got[key] - true) / true < 0.05, (g, got[key], true)
    got2 = norm(
        group_hll_distinct(ds.repartition(2), ["g"], "u", out_col="nd").take_all()
    )
    assert got2 == got  # pure function of the (key, value) multiset
    with pytest.raises(ValueError):
        group_hll_distinct(ds, [], "u")
    with pytest.raises(ValueError):
        group_hll_distinct(ds, ["g"], "u", p=10)


def test_quantiles_no_values_error_is_distinct():
    """An all-null column raises NoValuesError (a ValueError); a bad q
    raises a plain ValueError that is not one."""
    from fozziejoin_ray.pipelines.stats import NoValuesError

    empty = rd.from_arrow(pa.table({"x": pa.array([None], pa.int64())}))
    with pytest.raises(NoValuesError):
        column_quantiles(empty, "x", [0.5])
    ds = rd.from_arrow(pa.table({"x": pa.array([1, 2], pa.int64())}))
    with pytest.raises(ValueError) as ei:
        column_quantiles(ds, "x", [-0.1])
    assert not isinstance(ei.value, NoValuesError)
