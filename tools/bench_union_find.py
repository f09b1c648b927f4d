"""Microbenchmark: per-partition connected-components kernel
(`cluster/union_find._min_label_cc`, used by both the driver CC path and
every `contract_part` partition) vs the round-3 per-edge python
union-find it replaced.

Two graph shapes at ~1.5M edges:
- "clusters": 500k chain-shaped match clusters (geometric sizes, avg 4,
  scrambled node ids) — the realistic dup/linkage edge distribution;
- "giant": Erdos-Renyi with a giant component — the adversarial
  long-propagation case.

Usage: python tools/bench_union_find.py
Round-4 result (32-cpu box, min of 3):
  clusters: old=3.58s new=0.46s speedup=7.8x
  giant:    old=2.98s new=0.22s speedup=13.4x
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from fozziejoin_ray.cluster.union_find import _min_label_cc


def old_uf(ea, eb, n):
    """Round-3 implementation: per-edge python find/union loop."""
    parent = np.arange(n, dtype=np.int64)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(ea, eb):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return np.fromiter((find(i) for i in range(n)), np.int64, count=n)


def bench(name, ea, eb, n, reps=3):
    to = min(_timed(old_uf, ea, eb, n)[0] for _ in range(reps))
    tn = min(_timed(_min_label_cc, ea, eb, n)[0] for _ in range(reps))
    r0 = old_uf(ea, eb, n)
    rn = _min_label_cc(ea, eb, n)
    ok = np.array_equal(pd.factorize(r0)[0], pd.factorize(rn)[0])
    print(f"{name}: old={to:.2f}s new={tn:.2f}s speedup={to / tn:.1f}x components-equal={ok}")
    return to, tn, ok


def _timed(fn, *a):
    t0 = time.time()
    r = fn(*a)
    return time.time() - t0, r


def main():
    rng = np.random.default_rng(7)
    sizes = rng.geometric(0.25, 500_000)
    node_ids = np.arange(sizes.sum())
    starts = np.r_[0, np.cumsum(sizes)[:-1]]
    mask = np.ones(len(node_ids), bool)
    mask[starts] = False
    perm = rng.permutation(len(node_ids))
    ok1 = bench(
        f"clusters(N={len(node_ids)},E={int(mask.sum())})",
        perm[node_ids[mask] - 1],
        perm[node_ids[mask]],
        len(node_ids),
    )[2]
    n2 = 1_200_000
    ok2 = bench(
        "giant(N=1.2M,E=1.5M)",
        rng.integers(0, n2, 1_500_000),
        rng.integers(0, n2, 1_500_000),
        n2,
    )[2]
    if not (ok1 and ok2):
        raise SystemExit("component mismatch")


if __name__ == "__main__":
    main()
