"""Driver-style correctness harness: run every queries() entry and its
oracle_sql() side-by-side over a sf dir, compare row count + schema +
order-insensitive value hash (columns sorted by name, rows sorted).

Usage: python tools/check_oracles.py [--strict] [sf_dir] [query ...]

--strict additionally compares per-column DTYPES and a dtype-sensitive
value hash (no int->float coercion, no rounding): this mirrors the
driver's canonicalization, where an int64 column on the Ray side vs a
DuckDB HUGEINT->float64 column on the oracle side hash-mismatches even
when every value is numerically identical.  A query is only certifiable
for the driver when strict mode reports OK.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# this checkout, not whichever copy of the package is on the default path
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        tables = list(res.iter_batches(batch_size=None, batch_format="pyarrow"))
        if not tables:
            return pd.DataFrame()
        return pa.concat_tables(tables, promote_options="permissive").to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer) or df[c].dtype == bool:
            df[c] = df[c].astype("float64")
        elif str(df[c].dtype).startswith("dictionary") or str(df[c].dtype) == "category":
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _strict_canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, rows sorted by all columns. Calibrated to
    the observed driver hash: int WIDTHS unify (int32-vs-int64 rows were
    driver-green in r03) and float columns round to 6dp (reassociation
    noise on window sums was green), but int-vs-float stays DISTINCT
    (the exact difference behind the three r04 hash-red rows)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object or str(df[c].dtype) in ("category",) or str(
            df[c].dtype
        ).startswith(("dictionary", "datetime")):
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer) or df[c].dtype == bool:
            df[c] = df[c].astype("int64")
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype("float64").round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def strict_compare(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    """Dtype-sensitive comparison mirroring the driver's value hash."""
    import hashlib

    a = _strict_canon(ray_df)
    b = _strict_canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"STRICT-SCHEMA {list(a.columns)} vs {list(b.columns)}"
    dt_bad = [
        f"{c}: ray={a[c].dtype} sql={b[c].dtype}"
        for c in a.columns
        if str(a[c].dtype) != str(b[c].dtype)
    ]
    if dt_bad:
        return "STRICT-DTYPE " + "; ".join(dt_bad)

    def h(df):
        hh = hashlib.sha256()
        for c in df.columns:
            hh.update(c.encode())
            hh.update(str(df[c].dtype).encode())
            hh.update(pd.util.hash_pandas_object(df[c], index=False).values.tobytes())
        return hh.hexdigest()

    ha, hb = h(a), h(b)
    if ha != hb:
        for c in a.columns:
            av = pd.util.hash_pandas_object(a[c], index=False).values
            bv = pd.util.hash_pandas_object(b[c], index=False).values
            neq = av != bv
            if neq.any():
                i = int(np.nonzero(neq)[0][0])
                return (
                    f"STRICT-VALUES col={c} row{i}: ray={a[c].iloc[i]!r} "
                    f"sql={b[c].iloc[i]!r} ({int(neq.sum())} diffs)"
                )
        return "STRICT-HASH (row-order/multicol)"
    return "OK"


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame, strict: bool = False) -> str:
    if len(ray_df) != len(sql_df):
        return f"ROWS ray={len(ray_df)} sql={len(sql_df)}"
    if sorted(map(str.lower, ray_df.columns)) != sorted(map(str.lower, sql_df.columns)):
        return f"SCHEMA ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    sql_df = sql_df.rename(columns=dict(zip(sorted(sql_df.columns, key=str.lower), sorted(ray_df.columns, key=str.lower))))
    if strict:
        s = strict_compare(ray_df, sql_df)
        if s != "OK":
            return s
    a = canon(ray_df)
    b = canon(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA2 {list(a.columns)} vs {list(b.columns)}"
    if not a.equals(b):
        diff_cols = [c for c in a.columns if not a[c].equals(b[c])]
        for c in diff_cols:
            neq = a[c] != b[c]
            if np.issubdtype(a[c].dtype, np.floating):
                neq = ~np.isclose(a[c].fillna(1e300), b[c].fillna(1e300), atol=1e-6)
            if neq.any():
                i = int(np.nonzero(np.asarray(neq))[0][0])
                return f"VALUES col={c} row{i}: ray={a[c].iloc[i]!r} sql={b[c].iloc[i]!r} ({int(neq.sum())} diffs)"
        return "OK(close)"
    return "OK"


def main():
    argv = [a for a in sys.argv[1:]]
    strict = "--strict" in argv
    argv = [a for a in argv if a != "--strict"]
    sf = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    sys.path.insert(0, ROOT)
    if not ray.is_initialized():
        # workers import the package (and pickled query helpers) from here too
        extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        pypath = os.pathsep.join([ROOT] + extra)
        ray.init(
            address="local",
            num_cpus=len(os.sched_getaffinity(0)),
            include_dashboard=False,
            logging_level="ERROR",
            runtime_env={"env_vars": {"PYTHONPATH": pypath}},
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf))
        except Exception as e:
            results[name] = f"RAY-ERROR {type(e).__name__}: {str(e)[-160:]}"
            print(f"{name:28s} {results[name]}", flush=True)
            continue
        sql = sqls.get(name)
        if sql is None:
            results[name] = f"rows-only rows={len(ray_df)}"
        else:
            try:
                sql_df = con.execute(sql).df()
            except Exception as e:
                results[name] = f"SQL-ERROR {type(e).__name__}: {str(e)[-160:]}"
                print(f"{name:28s} {results[name]}", flush=True)
                continue
            results[name] = compare(name, ray_df, sql_df, strict=strict) + f" rows={len(ray_df)}"
        print(f"{name:28s} {results[name]}  [{time.time()-t0:.1f}s]", flush=True)

    bad = [k for k, v in results.items() if not (v.startswith("OK") or v.startswith("rows-only"))]
    print("\nFAILED:" if bad else "\nALL OK", bad)
    ray.shutdown()


if __name__ == "__main__":
    main()
