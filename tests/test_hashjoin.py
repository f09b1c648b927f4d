"""Direct tests for the partitioned grace hash join (joins/hashjoin.py):
all eight modes vs a pandas merge oracle, null-key semantics, composite
keys, nested payload re-attachment, and collision validation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray.joins.hashjoin import hash_join


def _mk(rows, schema):
    return rd.from_arrow(pa.table(rows, schema=schema))


LEFT = pa.table(
    {
        "lk": pa.array([1, 2, 2, None, 5], pa.int64()),
        "lv": ["a", "b", "c", "d", "e"],
    }
)
RIGHT = pa.table(
    {
        "rk": pa.array([2, 2, 3, None, 5], pa.int64()),
        "rv": ["x", "y", "z", "w", "v"],
    }
)


def _oracle(how):
    l = LEFT.to_pandas()
    r = RIGHT.to_pandas()
    rnn = r.dropna(subset=["rk"])  # null keys never match
    lnn = l.dropna(subset=["lk"])
    if how == "inner":
        return lnn.merge(rnn, left_on="lk", right_on="rk")[["lk", "lv", "rv"]]
    if how == "left_outer":
        return l.merge(rnn, left_on="lk", right_on="rk", how="left")[["lk", "lv", "rv"]]
    if how == "right_outer":
        m = lnn.merge(r, left_on="lk", right_on="rk", how="right")
        m["lk"] = m["rk"]  # key coalesces to the (always-present) right value
        return m[["lk", "lv", "rv"]]
    if how == "full_outer":
        m = l.merge(r, left_on="lk", right_on="rk", how="outer")
        # pandas outer merge matches NaN==NaN keys; split them back out
        nulls = m["lk"].isna() & m["rk"].isna() & m["lv"].notna() & m["rv"].notna()
        if nulls.any():
            fixed = []
            for _, row in m[nulls].iterrows():
                fixed.append({"lk": None, "lv": row["lv"], "rv": None})
                fixed.append({"lk": None, "lv": None, "rv": row["rv"]})
            m = pd.concat([m[~nulls], pd.DataFrame(fixed)], ignore_index=True)
        m["lk"] = m["lk"].fillna(m["rk"])
        return m[["lk", "lv", "rv"]]
    if how in ("right_semi", "right_anti"):
        rmatched = r["rk"].isin(lnn["lk"])  # NaN keys never match -> anti keeps them
        m = (r[rmatched] if how == "right_semi" else r[~rmatched]).copy()
        m["lk"] = m["rk"]  # right-only modes surface keys under the left name
        return m[["lk", "rv"]]
    matched = l["lk"].isin(rnn["rk"])
    if how == "left_semi":
        return l[matched][["lk", "lv"]]
    return l[~matched][["lk", "lv"]]


@pytest.mark.parametrize(
    "how",
    [
        "inner",
        "left_outer",
        "left_semi",
        "left_anti",
        "right_outer",
        "right_semi",
        "right_anti",
        "full_outer",
    ],
)
@pytest.mark.parametrize("nparts", [1, 4])
def test_hash_join_modes_vs_pandas(how, nparts):
    out = hash_join(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT), "lk", "rk", how=how, num_partitions=nparts
    ).take_all()
    key = lambda t: tuple((v is None, v) for v in t)
    got = sorted(
        (tuple(None if pd.isna(v) else v for v in d.values()) for d in out), key=key
    )
    exp = sorted(
        (
            tuple(None if pd.isna(v) else v for v in row)
            for row in _oracle(how).itertuples(index=False)
        ),
        key=key,
    )
    assert got == exp, how


@pytest.mark.parametrize("how", ["inner", "left_outer", "right_outer", "full_outer"])
def test_hash_join_composite_keys_vs_pandas(how):
    rng = np.random.default_rng(11)
    n = 300
    l = pd.DataFrame(
        {
            "a": rng.integers(0, 8, n),
            "b": rng.choice(["p", "q", "r", None], n),
            "lv": np.arange(n),
        }
    )
    r = pd.DataFrame(
        {
            "c": rng.integers(0, 8, n),
            "d": rng.choice(["p", "q", "r", None], n),
            "rv": np.arange(n) * 10,
        }
    )
    out = hash_join(
        rd.from_arrow(pa.Table.from_pandas(l)),
        rd.from_arrow(pa.Table.from_pandas(r)),
        ["a", "b"],
        ["c", "d"],
        how=how,
        num_partitions=5,
    ).take_all()
    # oracle built by hand because pandas outer merges match NaN==NaN
    # keys (the engine's rule is null-never-matches): inner join of the
    # null-key-free sides, plus unmatched rows per mode
    lnn = l.dropna(subset=["a", "b"])
    rnn = r.dropna(subset=["c", "d"])
    inner = lnn.merge(rnn, left_on=["a", "b"], right_on=["c", "d"])
    parts = [inner[["a", "b", "lv", "rv"]]]
    if how in ("left_outer", "full_outer"):
        um = l[~l["lv"].isin(inner["lv"])].copy()
        um["rv"] = np.nan
        parts.append(um[["a", "b", "lv", "rv"]])
    if how in ("right_outer", "full_outer"):
        um = r[~r["rv"].isin(inner["rv"])].copy()
        um = um.rename(columns={"c": "a", "d": "b"})
        um["lv"] = np.nan
        parts.append(um[["a", "b", "lv", "rv"]])
    exp = inner[["a", "b", "lv", "rv"]] if how == "inner" else pd.concat(parts, ignore_index=True)
    key = lambda t: tuple((v is None, str(v)) for v in t)
    got = sorted(
        (tuple(None if pd.isna(v) else v for v in d.values()) for d in out), key=key
    )
    want = sorted(
        (tuple(None if pd.isna(v) else v for v in row) for row in exp.itertuples(index=False)),
        key=key,
    )
    assert got == want, how


def test_hash_join_same_named_keys():
    l = rd.from_arrow(pa.table({"k": [1, 2], "v": ["a", "b"]}))
    r = rd.from_arrow(pa.table({"k": [2, 3], "w": ["x", "y"]}))
    out = hash_join(l, r, "k", "k", how="full_outer").take_all()
    assert sorted(
        (d["k"], d["v"], d["w"]) for d in out
    ) == [(1, "a", None), (2, "b", "x"), (3, None, "y")]


def test_hash_join_nested_payload_reattached():
    left = rd.from_arrow(
        pa.table({"k": [1, 2], "emb": [[1.0, 2.0], [3.0, 4.0]]})
    )
    right = rd.from_arrow(pa.table({"rk": [2, 2], "tag": ["p", "q"]}))
    out = hash_join(left, right, "k", "rk", how="inner").take_all()
    assert sorted((d["k"], tuple(d["emb"]), d["tag"]) for d in out) == [
        (2, (3.0, 4.0), "p"),
        (2, (3.0, 4.0), "q"),
    ]


def test_hash_join_nested_payload_outer_modes():
    left = rd.from_arrow(pa.table({"k": [1, 2], "emb": [[1.0], [3.0]]}))
    right = rd.from_arrow(pa.table({"rk": [2, 3], "tag": [["p"], ["q"]]}))
    out = hash_join(left, right, "k", "rk", how="full_outer").take_all()
    norm = sorted(
        (d["k"], tuple(d["emb"] or ()), tuple(d["tag"] or ())) for d in out
    )
    assert norm == [(1, (1.0,), ()), (2, (3.0,), ("p",)), (3, (), ("q",))]


def test_hash_join_nested_payload_right_only_modes():
    left = rd.from_arrow(pa.table({"k": [2], "emb": [[9.0]]}))
    right = rd.from_arrow(pa.table({"rk": [2, 3], "tag": [["p"], ["q"]]}))
    semi = hash_join(left, right, "k", "rk", how="right_semi").take_all()
    assert [(d["k"], tuple(d["tag"])) for d in semi] == [(2, ("p",))]
    anti = hash_join(left, right, "k", "rk", how="right_anti").take_all()
    assert [(d["k"], tuple(d["tag"])) for d in anti] == [(3, ("q",))]


def test_hash_join_collision_and_empty():
    l = rd.from_arrow(pa.table({"k": [1], "v": ["a"]}))
    r = rd.from_arrow(pa.table({"rk": [1], "v": ["b"]}))
    with pytest.raises(ValueError, match="collision"):
        hash_join(l, r, "k", "rk")
    # empty right side with explicit schema: left_outer pads, anti passes all
    empty = rd.from_arrow(pa.table({"rk": pa.nulls(0, pa.int64()), "w": pa.nulls(0, pa.string())}))
    sch = pa.schema([("rk", pa.int64()), ("w", pa.string())])
    out = hash_join(l, empty, "k", "rk", how="left_outer", right_schema=sch).take_all()
    assert out == [{"k": 1, "v": "a", "w": None}]


def test_left_outer_sparse_right_many_partitions():
    """Regression: with num_partitions much larger than the right side's
    key spread, whole partitions hold left rows only and Ray's sort
    shuffle degraded the all-null right column to arrow `null` type,
    which Acero rejects; join_part must pin the unified schema."""
    import pandas as pd

    from fozziejoin_ray.joins.hashjoin import hash_join

    left = rd.from_arrow(
        pa.table({"k": pa.array(range(200), pa.int64()), "lv": pa.array(range(200), pa.int64())})
    ).repartition(4)
    right = rd.from_arrow(
        pa.table({"rk": pa.array([5, 7], pa.int64()), "n_hits": pa.array([1, 2], pa.int64())})
    )
    out = hash_join(left, right, "k", "rk", how="left_outer", num_partitions=64)
    df = pd.DataFrame(out.take_all()).sort_values("k").reset_index(drop=True)
    assert len(df) == 200
    assert df.loc[df.k == 5, "n_hits"].iloc[0] == 1
    assert df.loc[df.k == 7, "n_hits"].iloc[0] == 2
    assert df.n_hits.isna().sum() == 198


# ---------------------------------------------------------- hypothesis fuzz

from hypothesis import given, settings
from hypothesis import strategies as hst

_KEYS = hst.lists(hst.one_of(hst.none(), hst.integers(0, 5)), min_size=0, max_size=10)
_MODES = [
    "inner", "left_outer", "left_semi", "left_anti",
    "right_outer", "right_semi", "right_anti", "full_outer",
]


def _fuzz_oracle(l: pd.DataFrame, r: pd.DataFrame, how: str) -> pd.DataFrame:
    """Mode-by-mode set oracle built from null-stripped inner pieces —
    never relies on pandas' NaN==NaN merge quirk."""
    lnn, rnn = l.dropna(subset=["lk"]), r.dropna(subset=["rk"])
    inner = lnn.merge(rnn, left_on="lk", right_on="rk")[["lk", "lv", "rv"]]
    lmatch = l["lk"].isin(rnn["rk"]) & l["lk"].notna()
    rmatch = r["rk"].isin(lnn["lk"]) & r["rk"].notna()
    if how == "inner":
        return inner
    if how == "left_semi":
        return l[lmatch][["lk", "lv"]]
    if how == "left_anti":
        return l[~lmatch][["lk", "lv"]]
    if how in ("right_semi", "right_anti"):
        m = (r[rmatch] if how == "right_semi" else r[~rmatch]).copy()
        m["lk"] = m["rk"]
        return m[["lk", "rv"]]
    lout = l[~lmatch].copy()
    lout["rv"] = None
    rout = r[~rmatch].copy()
    rout["lk"] = rout["rk"]
    rout["lv"] = None
    if how == "left_outer":
        return pd.concat([inner, lout])[["lk", "lv", "rv"]]
    if how == "right_outer":
        return pd.concat([inner, rout])[["lk", "lv", "rv"]]
    return pd.concat([inner, lout, rout])[["lk", "lv", "rv"]]  # full_outer


@settings(max_examples=12, deadline=None)
@given(lk=_KEYS, rk=_KEYS, how=hst.sampled_from(_MODES), nparts=hst.sampled_from([1, 3, 16]))
def test_hash_join_fuzz_vs_pandas(lk, rk, how, nparts):
    lt = pa.table(
        {"lk": pa.array(lk, pa.int64()),
         "lv": pa.array([f"l{i}" for i in range(len(lk))], pa.string())}
    )
    rt = pa.table(
        {"rk": pa.array(rk, pa.int64()),
         "rv": pa.array([f"r{i}" for i in range(len(rk))], pa.string())}
    )
    out = hash_join(
        rd.from_arrow(lt), rd.from_arrow(rt), "lk", "rk", how=how,
        num_partitions=nparts, left_schema=lt.schema, right_schema=rt.schema,
    ).take_all()
    exp_df = _fuzz_oracle(lt.to_pandas(), rt.to_pandas(), how)
    key = lambda t: tuple((v is None, v) for v in t)
    got = sorted(
        (tuple(None if pd.isna(v) else v for v in d.values()) for d in out), key=key
    )
    exp = sorted(
        (tuple(None if pd.isna(v) else v for v in row) for row in exp_df.itertuples(index=False)),
        key=key,
    )
    assert got == exp, (how, lk, rk)


def test_null_bearing_int_keys_partition_consistently():
    """Regression (found by the fuzz): one null in an int64 key column
    used to flip the batch to float64 at hashing, so value 1 hashed as
    1.0 on one side and 1 on the other and the match was lost across
    partitions."""
    lt = pa.table(
        {"lk": pa.array([None, 1], pa.int64()), "lv": pa.array(["l0", "l1"], pa.string())}
    )
    rt = pa.table({"rk": pa.array([1], pa.int64()), "rv": pa.array(["r0"], pa.string())})
    out = hash_join(
        rd.from_arrow(lt), rd.from_arrow(rt), "lk", "rk", how="inner",
        num_partitions=3, left_schema=lt.schema, right_schema=rt.schema,
    ).take_all()
    assert [(d["lk"], d["lv"], d["rv"]) for d in out] == [(1, "l1", "r0")]


def test_right_key_sharing_left_payload_name():
    """Regression: a right KEY named like a left PAYLOAD column must go
    into the unified key slot, not leak into (or crash casting to) the
    left payload slot."""
    lt = pa.table(
        {"id": pa.array(["x", "y"], pa.string()), "b": pa.array([10, 20], pa.int64())}
    )
    rt = pa.table(
        {"b": pa.array(["y"], pa.string()), "w": pa.array([7], pa.int64())}
    )
    out = hash_join(
        rd.from_arrow(lt), rd.from_arrow(rt), "id", "b", how="left_outer",
        num_partitions=2, left_schema=lt.schema, right_schema=rt.schema,
    ).take_all()
    rows = {d["id"]: (d["b"], d["w"]) for d in out}
    assert rows == {"x": (10, None), "y": (20, 7)}


# ------------------------------------------------ broadcast == shuffle fuzz

_K1 = hst.one_of(hst.none(), hst.integers(0, 3))
_K2 = hst.one_of(hst.none(), hst.sampled_from(["p", "q"]))
_ROWS = hst.lists(hst.tuples(_K1, _K2), min_size=0, max_size=8)


def _blocks(t: pa.Table, empty_no_schema: bool) -> rd.Dataset:
    """A materialized Dataset of ``t`` in two blocks; an empty ``t`` may
    come as one column-less block whose schema Ray cannot observe."""
    if not t.num_rows and empty_no_schema:
        return rd.from_arrow(pa.table({}))
    k = t.num_rows // 2
    return rd.from_arrow([t.slice(0, k), t.slice(k)])


def _rows(out: list[dict]) -> list[tuple]:
    def norm(v):
        if isinstance(v, (list, np.ndarray)):
            return tuple(v)
        return None if v is None or (isinstance(v, float) and np.isnan(v)) else v

    return sorted((tuple(norm(v) for v in d.values()) for d in out), key=repr)


@pytest.mark.parametrize("how", _MODES)
@settings(max_examples=6, deadline=None)
@given(
    lrows=_ROWS,
    rrows=_ROWS,
    rk_float=hst.booleans(),
    composite=hst.booleans(),
    empty_no_schema=hst.booleans(),
)
def test_broadcast_equals_shuffle_fuzz(how, lrows, rrows, rk_float, composite, empty_no_schema):
    """Every mode gives the same rows whether a side is broadcast or both
    are shuffled: null keys, an int64 left key against its float64 right
    twin, composite keys, nested payloads on both sides, and empty sides
    known only through the explicit schemas."""
    from fozziejoin_ray.joins import hashjoin as hj

    rk_type = pa.float64() if rk_float else pa.int64()
    lt = pa.table(
        {
            "a": pa.array([r[0] for r in lrows], pa.int64()),
            "b": pa.array([r[1] for r in lrows], pa.string()),
            "lv": pa.array([f"l{i}" for i in range(len(lrows))], pa.string()),
            "le": pa.array([[float(i)] * (i % 3) for i in range(len(lrows))], pa.list_(pa.float64())),
        }
    )
    rt = pa.table(
        {
            "c": pa.array([r[0] for r in rrows], rk_type),
            "d": pa.array([r[1] for r in rrows], pa.string()),
            "rv": pa.array([[i, -i] for i in range(len(rrows))], pa.list_(pa.int64())),
        }
    )
    lkeys, rkeys = (["a", "b"], ["c", "d"]) if composite else ("a", "c")

    def run(limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hj, "BROADCAST_BYTES", limit)
            return _rows(
                hash_join(
                    _blocks(lt, empty_no_schema), _blocks(rt, empty_no_schema), lkeys, rkeys,
                    how=how, num_partitions=3, left_schema=lt.schema, right_schema=rt.schema,
                ).take_all()
            )

    assert run(0) == run(float("inf")), (how, lrows, rrows)


def test_broadcast_rule_by_mode(monkeypatch):
    """A small materialized side is broadcast only where the mode allows
    it (no exchange), a lazy side is never measured, and no mode runs a
    Dataset.groupby."""
    from fozziejoin_ray.joins import hashjoin as hj

    calls = []
    groupbys = []
    orig = hj.exchange
    orig_groupby = rd.Dataset.groupby

    def exchange(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    def groupby(self, *a, **kw):
        groupbys.append(1)
        return orig_groupby(self, *a, **kw)

    monkeypatch.setattr(hj, "exchange", exchange)
    monkeypatch.setattr(rd.Dataset, "groupby", groupby)
    small = rd.from_arrow(LEFT)
    lazy = rd.from_arrow(RIGHT).map_batches(lambda t: t, batch_format="pyarrow")
    shuffled = {}
    for how in _MODES:
        for name, (l, r) in {"both": (small, rd.from_arrow(RIGHT)), "lazy_right": (small, lazy)}.items():
            calls.clear()
            hash_join(l, r, "lk", "rk", how=how).take_all()
            shuffled[how, name] = bool(calls)
    for how in _MODES:
        assert shuffled[how, "both"] == (how == "full_outer"), how
        # only the materialized left may broadcast: inner and right_* modes
        assert shuffled[how, "lazy_right"] == (how not in ("inner", "right_outer", "right_semi", "right_anti")), how
    assert hj.broadcast_bytes(lazy) is None
    assert not groupbys
