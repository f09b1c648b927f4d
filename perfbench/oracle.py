"""Exact oracles and output checks, independent of the package under test.

Linkage: DuckDB all-pairs ``1 - jaro_similarity(a, b) <= max_distance``
over the distinct keys, then a numpy union-find; a cluster is labelled
with its minimum doc id. Join: DuckDB ``levenshtein`` full outer join.
Pairwise F1 is computed from cluster contingency counts, never from
pair sets.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa


def _connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET enable_progress_bar = false")
    return con


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component label (min member index) of nodes 0..n-1 under edges a-b."""
    lab = np.arange(n, dtype=np.int64)
    while True:
        m = np.minimum(lab[a], lab[b])
        new = lab.copy()
        np.minimum.at(new, a, m)
        np.minimum.at(new, b, m)
        while True:  # pointer jumping to the root
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        if np.array_equal(new, lab):
            return lab
        lab = new


def linkage_clusters(doc_ids: list[str], keys: list[str | None], max_distance: float) -> pd.Series:
    """Exact cluster_id per doc_id (index), cluster_id = min member doc id.
    Docs with a null key are singletons."""
    ids = np.asarray(doc_ids, dtype=object)
    kser = pd.Series(keys, dtype=object)
    has = kser.notna().to_numpy()
    codes, uniq = pd.factorize(kser[has], sort=True)
    con = _connect()
    con.register("k", pa.table({"i": np.arange(len(uniq)), "v": pa.array(list(uniq), pa.string())}))
    # jaro >= 1 - d needs min(len)/max(len) >= 2 - 3 (1 - d): an exact, cheap prune
    ratio = max(0.0, 3 * (1 - max_distance) - 2)
    pairs = con.execute(
        "SELECT a.i, b.i FROM k a JOIN k b ON a.i < b.i"
        " AND length(b.v) >= ? * length(a.v) AND length(a.v) >= ? * length(b.v)"
        " WHERE 1 - jaro_similarity(a.v, b.v) <= ?",
        [ratio, ratio, max_distance],
    ).fetchnumpy()
    con.close()
    klab = _components(len(uniq), pairs["i"].astype(np.int64), pairs["i_1"].astype(np.int64))
    # doc level: docs of one key are tied; label = min doc id of the component
    comp = np.full(len(ids), -1, dtype=np.int64)
    comp[has] = klab[codes]
    df = pd.DataFrame({"doc": ids, "comp": comp})
    lbl = df[has].groupby("comp")["doc"].transform("min")
    labels = ids.copy()  # a Series over ``ids`` itself would share it with its index
    labels[has] = lbl.to_numpy()
    return pd.Series(labels, index=ids, dtype=object)


def pairwise_f1(pred: pd.Series, truth: pd.Series) -> float:
    """Pairwise F1 of two clusterings of the same docs (both indexed by
    doc id), from contingency counts: TP = sum C(n_ij, 2)."""
    df = pd.DataFrame({"p": pred, "t": truth.reindex(pred.index)})

    def pairs(sizes: pd.Series) -> float:
        s = sizes.to_numpy(dtype=np.float64)
        return float((s * (s - 1) / 2).sum())

    tp = pairs(df.groupby(["p", "t"], sort=False).size())
    pp = pairs(df.groupby("p", sort=False).size())
    tt = pairs(df.groupby("t", sort=False).size())
    if pp == 0 and tt == 0:
        return 1.0
    return 2 * tp / (pp + tt)


def check_clusters(out: pa.Table, doc_ids: list[str]) -> pd.Series:
    """Structural checks of a (doc_id, cluster_id) output; returns the
    assignment as a Series. Raises ValueError on any violation."""
    df = out.select(["doc_id", "cluster_id"]).to_pandas()
    if df["doc_id"].duplicated().any():
        raise ValueError(f"{int(df['doc_id'].duplicated().sum())} doc ids appear more than once")
    want = set(doc_ids)
    got = set(df["doc_id"])
    if got != want:
        raise ValueError(f"doc id set differs: {len(want - got)} missing, {len(got - want)} extra")
    if df["cluster_id"].isna().any():
        raise ValueError("null cluster_id")
    mins = df.groupby("cluster_id")["doc_id"].min()
    bad = mins.index.to_numpy() != mins.to_numpy()
    if bad.any():
        raise ValueError(f"{int(bad.sum())} clusters are not labelled with their min member id")
    return pd.Series(df["cluster_id"].to_numpy(), index=df["doc_id"].to_numpy(), dtype=object)


JOIN_COLS = ["l_id", "name_l", "l_w", "r_id", "name_r", "r_w"]


def join_rows(left: pa.Table, right: pa.Table, max_distance: int) -> pd.DataFrame:
    """Exact full outer levenshtein join, as (l_id, name_l, l_w, r_id,
    name_r, r_w) rows sorted for comparison."""
    con = _connect()
    con.register("l", left)
    con.register("r", right)
    df = con.execute(
        "SELECT l.l_id, l.name AS name_l, l.l_w, r.r_id, r.name AS name_r, r.r_w"
        " FROM l FULL OUTER JOIN r ON levenshtein(l.name, r.name) <= ?",
        [max_distance],
    ).df()
    con.close()
    return canonical_rows(df)


def canonical_rows(df: pd.DataFrame) -> pd.DataFrame:
    df = df[JOIN_COLS].copy()
    for c in ("l_id", "l_w", "r_id", "r_w"):
        df[c] = df[c].astype("Int64")
    for c in ("name_l", "name_r"):
        df[c] = df[c].astype(object).where(df[c].notna(), None)
    return df.sort_values(JOIN_COLS, na_position="last", ignore_index=True)


def rows_equal(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """None when the two canonical row sets are equal, else a reason."""
    if len(got) != len(want):
        return f"row count {len(got)} != oracle {len(want)}"
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    except AssertionError as e:
        return "rows differ: " + str(e).splitlines()[0]
    return None
