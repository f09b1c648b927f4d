"""Dtype-stability of exchange-primitive hashing (ADVICE r4 + VERDICT
Next #6): a value's routing hash must not depend on WHICH block it sat
in — pandas blocks degrade int64 -> float64 whenever the block holds a
null, and pd.util.hash_array hashes the physical representation.

Regression repros for the three ADVICE bugs (group_count_distinct,
group_hll_distinct, hll_count_distinct), the union-find float-promotion
id merge, sample_per_group's raw-value exchange, plus a hypothesis fuzz
of the shared stablehash kernel itself.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from fozziejoin_ray.kernels.stablehash import stable_col_hash, stable_row_hash


def _two_block_ds(block1: dict, block2: dict) -> rd.Dataset:
    """Dataset whose two input blocks have the given (python-value)
    columns — the null-in-one-block layout that flips pandas dtypes."""
    return rd.from_arrow([pa.table(block1), pa.table(block2)])


# ---------------------------------------------------------------- kernels


class TestStableHashKernel:
    def test_int_vs_null_degraded_float_block(self):
        lo = -(2**63)  # int64's minimum, exactly representable in float64
        a = stable_col_hash(pd.Series([5, 6, lo], dtype="int64"))
        b = stable_col_hash(pd.Series([5.0, None, float(lo)], dtype="float64"))
        c = stable_col_hash(pd.Series([None, "x", float(lo)], dtype=object))
        assert a[0] == b[0]  # 5 hashes alike in both physical dtypes
        assert a[2] == b[2] == c[2]
        assert a[0] != a[1]

    def test_null_distinct_from_zero_and_empty(self):
        h = stable_col_hash(pd.Series([0.0, None], dtype="float64"))
        assert h[0] != h[1]
        h2 = stable_col_hash(pd.Series(["", None], dtype=object))
        assert h2[0] != h2[1]

    def test_neg_zero_equals_zero(self):
        h = stable_col_hash(pd.Series([-0.0, 0.0]))
        assert h[0] == h[1]

    def test_bool_object_block(self):
        a = stable_col_hash(pd.Series([True, False], dtype=bool))
        b = stable_col_hash(pd.Series([True, None], dtype=object))
        assert a[0] == b[0]

    def test_row_hash_multi_col(self):
        df1 = pd.DataFrame({"k": pd.Series([7], dtype="int64"), "v": ["x"]})
        df2 = pd.DataFrame({"k": pd.Series([7.0, None]), "v": ["x", "y"]})
        assert stable_row_hash(df1, ["k", "v"])[0] == stable_row_hash(df2, ["k", "v"])[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-(2**31), max_value=2**31),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=8),
                st.booleans(),
            ),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=0, max_value=23),
    )
    def test_fuzz_split_invariance(self, vals, cut):
        """Hash of each element is invariant to how the column is split
        into blocks (numeric and string values materialize with
        whatever physical dtype each sub-block happens to get)."""
        # a column mixes str/num only via object dtype; keep domains
        # homogeneous the way a real schema does
        if any(isinstance(v, str) for v in vals):
            vals = [str(v) if v is not None else None for v in vals]
        elif any(isinstance(v, bool) for v in vals):
            vals = [bool(v) if v is not None else None for v in vals]
        cut = min(cut, len(vals))
        full = stable_col_hash(pd.Series(vals))
        parts = [p for p in (vals[:cut], vals[cut:]) if p]
        split = np.concatenate([stable_col_hash(pd.Series(p)) for p in parts])
        assert (full == split).all()


# ---------------------------------------------------- exchange primitives


class TestGroupCountDistinctStable:
    def test_null_block_does_not_overcount(self, ray_session):
        from fozziejoin_ray.pipelines.stats import group_count_distinct

        ds = _two_block_ds(
            {"k": ["a", "a"], "v": [5, 6]},
            {"k": ["a", "a"], "v": [5, None]},
        )
        out = group_count_distinct(ds, ["k"], "v", num_partitions=8).to_pandas()
        assert len(out) == 1
        # distinct non-null values are {5, 6}: the ADVICE repro returned 3
        assert int(out["n_distinct"].iloc[0]) == 2

    def test_int_key_null_block(self, ray_session):
        from fozziejoin_ray.pipelines.stats import group_count_distinct

        ds = _two_block_ds(
            {"k": [7, 7], "v": ["x", "y"]},
            {"k": [7, None], "v": ["x", "z"]},
        )
        out = group_count_distinct(ds, ["k"], "v", num_partitions=8).to_pandas()
        row7 = out[out["k"].astype("float64") == 7.0]
        assert len(row7) == 1
        # key 7's distinct values are {x, y}; z belongs to the null key
        assert int(row7["n_distinct"].iloc[0]) == 2
        rown = out[out["k"].isna()]
        assert len(rown) == 1 and int(rown["n_distinct"].iloc[0]) == 1


class TestGroupAggregateStable:
    def test_null_key_block_single_output_row(self, ray_session):
        from fozziejoin_ray.pipelines.stats import group_aggregate

        ds = _two_block_ds(
            {"k": [7, 7], "x": [1.0, 2.0]},
            {"k": [7, None], "x": [3.0, 9.0]},
        )
        out = group_aggregate(ds, ["k"], {"s": ("sum", "x")}, num_partitions=8).to_pandas()
        row7 = out[out["k"].astype("float64") == 7.0]
        assert len(row7) == 1
        assert float(row7["s"].iloc[0]) == 6.0


class TestHllStable:
    def test_hll_count_distinct_null_block(self, ray_session):
        from fozziejoin_ray.pipelines.sketch import hll_count_distinct

        ds = _two_block_ds({"v": [5, 6]}, {"v": [5, None]})
        out = hll_count_distinct(ds, "v", p=12).to_pandas()
        # linear-counting regime: near-exact; the ADVICE repro read 3
        assert int(out["n_distinct"].iloc[0]) == 2

    def test_group_hll_distinct_one_row_per_key(self, ray_session):
        from fozziejoin_ray.pipelines.sketch import group_hll_distinct

        ds = _two_block_ds(
            {"k": [7, 7], "v": [1, 2]},
            {"k": [7, None], "v": [3, 1]},
        )
        out = group_hll_distinct(ds, ["k"], "v", p=12).to_pandas()
        row7 = out[out["k"].astype("float64") == 7.0]
        assert len(row7) == 1  # the ADVICE repro emitted key 7 twice
        assert int(row7["n_distinct"].iloc[0]) == 3


class TestUnionFindPromotion:
    def test_big_int_ids_survive_float_mixed_edges(self):
        from fozziejoin_ray.cluster.union_find import _normalize_edge_table

        big1, big2 = 2**53 + 1, 2**53 + 2  # equal after a float64 cast
        t = pa.table(
            {
                "a": pa.array([big1, big2], pa.int64()),
                "b": pa.array([0.5, 0.25], pa.float64()),
            }
        )
        out = _normalize_edge_table(t, "a", "b")
        assert pa.types.is_string(out["a"].type)
        avals = out["a"].to_pylist()
        assert str(big1) in avals and str(big2) in avals
        assert len(set(avals)) == 2  # distinct ids did NOT merge

    def test_uint64_overflow_promotes_to_string(self):
        from fozziejoin_ray.cluster.union_find import _normalize_edge_table

        t = pa.table(
            {
                "a": pa.array([2**63 + 7], pa.uint64()),
                "b": pa.array([1], pa.int32()),
            }
        )
        out = _normalize_edge_table(t, "a", "b")  # int64 cast would raise
        assert pa.types.is_string(out["a"].type)
        assert str(2**63 + 7) in out["a"].to_pylist()


class TestSamplePerGroupStable:
    def test_null_and_str_groups(self, ray_session):
        from fozziejoin_ray.pipelines.split import sample_per_group

        ds = _two_block_ds(
            {"id": ["a", "b", "c"], "g": ["x", "x", None]},
            {"id": ["d", "e", "f"], "g": [None, "y", "x"]},
        )
        out = sample_per_group(ds, "id", "g", k=2).to_pandas()
        got = out.groupby("g", dropna=False).size()
        assert got.get("x") == 2  # 3 candidates capped at k
        assert got.get("y") == 1
        assert got[got.index.isna()].iloc[0] == 2  # null group sampled too

    def test_deterministic_across_block_layout(self, ray_session):
        from fozziejoin_ray.pipelines.split import sample_per_group

        ids = [f"id{i:03d}" for i in range(40)]
        gs = ["g" + str(i % 3) for i in range(40)]
        one = rd.from_arrow([pa.table({"id": ids, "g": gs})])
        two = _two_block_ds(
            {"id": ids[:17], "g": gs[:17]}, {"id": ids[17:], "g": gs[17:]}
        )
        a = sample_per_group(one, "id", "g", k=3).to_pandas().sort_values("id")
        b = sample_per_group(two, "id", "g", k=3).to_pandas().sort_values("id")
        assert list(a["id"]) == list(b["id"])


class TestStableHashCanonicalization:
    """Round-5 review regressions: per-element canonicalization must be
    exact for big int64 ids, survive tz-aware datetimes, and never let
    a value's hash depend on its block-mates."""

    def test_big_int64_ids_hash_exactly(self):
        # snowflake-magnitude ids: consecutive values must all differ
        # (the old float64 canonicalization collapsed ~256-wide runs)
        base = 1_400_000_000_000_000_000
        ids = pd.Series(np.arange(base, base + 1000, dtype=np.int64))
        assert len(np.unique(stable_col_hash(ids))) == 1000

    def test_big_int_object_block_matches_typed_block(self):
        v = 2**60 + 12345
        a = stable_col_hash(pd.Series([v], dtype="int64"))
        b = stable_col_hash(pd.Series([v, None], dtype=object))
        c = stable_col_hash(pd.Series([float(v), None]))  # 2^60+12345 not f64-exact
        assert a[0] == b[0]
        # the float64 representation rounded the value; purity still
        # holds per-representation but equality with the exact int
        # cannot (documented pandas-side limit)
        assert c[0] != a[0] or float(v) == v

    def test_tz_aware_datetime_hashes(self):
        naive = pd.Series(
            pd.to_datetime(["2026-01-01 12:00:00", "2026-01-02 00:00:00"])
        )
        aware = naive.dt.tz_localize("UTC")
        other = aware.dt.tz_convert("America/New_York")
        hn, ha, ho = map(stable_col_hash, (naive, aware, other))
        # same UTC instant hashes alike regardless of tz representation
        assert list(ha) == list(ho)
        # naive column interpreted as UTC nanos agrees with the aware one
        assert list(hn) == list(ha)
        assert ha[0] != ha[1]

    def test_object_branch_purity_mixed_blockmates(self):
        pure = stable_col_hash(pd.Series([7, 8], dtype=object))
        mixed = stable_col_hash(pd.Series([7, "x"], dtype=object))
        assert pure[0] == mixed[0]
        typed = stable_col_hash(pd.Series([7], dtype="int64"))
        assert typed[0] == pure[0]

    def test_uint64_beyond_int63_is_pure(self):
        big = np.uint64(2**63 + 99)
        a = stable_col_hash(pd.Series([big, np.uint64(1)], dtype=np.uint64))
        b = stable_col_hash(pd.Series([big], dtype=np.uint64))
        assert a[0] == b[0]
        # small uint agrees with the signed-int representation
        assert a[1] == stable_col_hash(pd.Series([1], dtype="int64"))[0]

    def test_whole_float_still_matches_int(self):
        a = stable_col_hash(pd.Series([5, 6], dtype="int64"))
        b = stable_col_hash(pd.Series([5.0, None], dtype="float64"))
        assert a[0] == b[0]
        c = stable_col_hash(pd.Series([5.5, 5.0]))
        assert c[1] == a[0] - (a[0] - b[0])  # 5.0 whole -> int hash
        assert c[0] != c[1]
