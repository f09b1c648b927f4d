"""Single-core throughput of ``kernels.strdist.score_pairs``, no Ray.

Scores a fixed seeded sample of name pairs (a name against a 0-2 edit
variant of itself, or against another name) per method, several times,
and prints one JSON line {method: median pairs per second}. Run it
pinned to one CPU: ``python3 perfbench/kernel_probe.py`` under
``taskset -c 0``, or through run.py, which pins it itself.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402

# pairs per call, sized so one call takes roughly 50-200 ms on one core
METHODS = {"jaro_winkler": 100_000, "levenshtein": 50_000, "qgram": 10_000, "osa": 2_000}
CALLS = 5
SAMPLE_SEED = 0


def pair_sample(n: int) -> tuple[list[str], list[str]]:
    names = gen.entity_names(SAMPLE_SEED, 5_000)
    rng = np.random.default_rng([SAMPLE_SEED, 9])
    a_idx = rng.integers(len(names), size=n)
    same = rng.random(n) < 0.5
    a = [names[i] for i in a_idx]
    b = [
        gen.mutate(names[i], rng, int(rng.integers(3))) if s else names[int(rng.integers(len(names)))]
        for i, s in zip(a_idx, same)
    ]
    return a, b


def main() -> int:
    from fozziejoin_ray.kernels.strdist import score_pairs

    a, b = pair_sample(max(METHODS.values()))
    out = {}
    for method, n in METHODS.items():
        score_pairs(method, a[:100], b[:100])  # first call sets up the kernel
        rates = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            d = score_pairs(method, a[:n], b[:n])
            rates.append(n / (time.perf_counter() - t0))
            if len(d) != n:
                raise RuntimeError(f"{method}: {len(d)} scores for {n} pairs")
        out[method] = statistics.median(rates)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
