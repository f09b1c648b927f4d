"""Oracle-checked benchmark of fozziejoin_ray on a local Ray session.

    python3 perfbench/run.py --workload linkage_nightly --seed 1 --seconds 12 --trace 0

Run it from the repository root. Each run stops any stale Ray session,
builds (or reuses) its seeded inputs and exact oracle, sets Ray up
twice to time set-up, makes one untimed warm-up call, then repeats the
workload's timed call until ``--seconds`` have passed and at least three
calls ran, checking every output against the oracle.
``--trace 1`` adds a traced replay of the workload's layers and prints
per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Everything else (a readable table, Ray's logs) goes to stderr, and the
full record of the run (every rep, spans, Dataset.stats() per stage,
CPU count) to perfbench/out/. The exit code is 0 only when every
attempted call passed its checks. See perfbench/README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import procstat
import workloads as W
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 2
MIN_REPS = 3  # timed calls per run, however long each takes
DEADLINE_S = 170  # the whole run, set-up and clean-up included

KERNELS = ("jaro_winkler", "levenshtein", "osa", "qgram")
# which count of a traced part feeds which per-layer metric
_COUNT_METRICS = {
    "pipelines.linkage.match_edges_rows": "edges",
    "pipelines.linkage_index.index_bytes": "index_bytes",
    "pipelines.linkage_index.probe_edges": "probe_edges",
    "cluster.union_find.nodes": "nodes",
    "cluster.union_find.max_cluster_rows": "max_cluster_rows",
    "joins.blocked.edges": "blocked_edges",
    "blocking.strategies.keys_per_value": "keys_per_value",
    "blocking.strategies.candidate_pairs": "candidate_pairs",
    "blocking.strategies.useful_ratio": "useful_ratio",
}
# a layer metric comes from the workload's own traced call when it has
# one, else from the small companion inputs
_PART_ORDER = ("own", "companion")


# every module the workloads reach; most of them are imported lazily,
# inside the functions that use them
PACKAGE_MODULES = (
    "jobs.linkage_job", "sources.io", "pipelines.linkage", "pipelines.dedup",
    "pipelines.linkage_index", "cluster.union_find", "joins.hashjoin", "joins.blocked",
    "joins.modes", "joins.string_join", "blocking.strategies", "kernels.strdist",
)


def import_package() -> None:
    import importlib

    for m in PACKAGE_MODULES:
        importlib.import_module(f"fozziejoin_ray.{m}")


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


class RaySession:
    """A local Ray session with its own temp dir; ``stop`` waits until
    every process the session started has ended."""

    def __init__(self, cpus: int, tmp: str):
        self.cpus = cpus
        self.tmp = tmp

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=1_000_000_000,
            _temp_dir=self.tmp,
        )
        DataContext.get_current().enable_progress_bars = False

    def warm(self) -> None:
        """Import the package in every worker, so the first timed call
        does not pay for it."""
        import ray.data as rd

        def load(t):
            import_package()
            return t

        n = 2 * self.cpus
        rd.range(n, override_num_blocks=n).map_batches(load, batch_format="pyarrow").materialize()

    def stop(self) -> None:
        import ray

        pids = procstat.tree_pids()
        if ray.is_initialized():
            ray.shutdown()
        if _wait_gone(pids, 15):
            return
        for p in pids:
            if procstat.alive(p):
                log(f"killing leftover process {p}")
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if not _wait_gone(pids, 10):
            log(f"processes still running: {[p for p in pids if procstat.alive(p)]}")


def _wait_gone(pids: list[int], seconds: float) -> bool:
    """Reap ended children and wait until none of ``pids`` runs."""
    deadline = time.monotonic() + seconds
    while True:
        procstat.reap_children()
        if not any(procstat.alive(p) for p in pids):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)


# ------------------------------------------------------------- workloads


class Workload:
    """One workload: inputs, set-up, the timed call and its check, and
    the traced replay. ``rows`` is the input rows a call processes."""

    def __init__(self, ctx: dict):
        self.ctx = ctx
        self.parts = ctx["parts"]

    def trace(self, tr, work: str, counts: dict) -> None:
        raise NotImplementedError

    def linkage_replay(self, tr, inp: dict, work: str, part: str, counts: dict) -> None:
        """The nightly replay over ``inp``'s old corpus, then the fold-in
        of its delta into the artifacts that replay built."""
        art, counts[part] = W.trace_nightly(tr, inp["old"], f"{work}/{part}", self.parts, part)
        W.check_linkage(art["clusters"], inp["truth"]["old"])
        counts["companion_daily"] = W.trace_daily(
            tr, inp["delta"], art, f"{work}/{part}-daily", self.parts, "companion_daily"
        )
        W.check_linkage(f"{work}/{part}-daily", inp["truth"]["all"])

    def companion_join(self, tr, counts: dict) -> None:
        inp = W.join_inputs(self.ctx["cache"], self.ctx["seed"], W.COMPANION_JOIN_SIZES)
        out, c = W.trace_join(tr, inp, self.parts, "companion_join")
        W.check_join(W.to_table(out), inp["truth"])
        c.update(W.blocking_counts(tr, inp, "companion_join"))
        counts["companion_join"] = c


class Nightly(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.inp = W.linkage_inputs(ctx["cache"], ctx["seed"], W.NIGHTLY_SIZES, self.parts)
        self.rows = self.inp["n_old"]

    def call(self, rep: str):
        return W.nightly_job(self.inp["old"], rep, self.parts)

    def check(self, art) -> float:
        f1 = W.check_linkage(art["clusters"], self.inp["truth"]["old"])
        W.check_keys(art["keys"], self.inp["keys"].iloc[: self.inp["n_old"]])
        if not os.path.isfile(os.path.join(art["index"], "index_meta.json")):
            raise ValueError("the nightly run wrote no index meta")
        return f1

    def trace(self, tr, work, counts):
        self.linkage_replay(tr, self.inp, work, "own", counts)
        self.companion_join(tr, counts)


class StringJoin(Workload):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.inp = W.join_inputs(ctx["cache"], ctx["seed"], W.JOIN_SIZES)
        self.rows = self.inp["n_left"] + self.inp["n_right"]

    def call(self, rep: str):
        return W.string_join(self.inp, self.parts)

    def check(self, out) -> float:
        return W.check_join(W.to_table(out), self.inp["truth"])

    def trace(self, tr, work, counts):
        out, counts["own"] = W.trace_join(tr, self.inp, self.parts, "own")
        W.check_join(W.to_table(out), self.inp["truth"])
        counts["own"].update(W.blocking_counts(tr, self.inp, "own"))
        inp = W.linkage_inputs(self.ctx["cache"], self.ctx["seed"], W.COMPANION_LINKAGE_SIZES,
                               self.parts)
        self.linkage_replay(tr, inp, work, "companion", counts)


CLASSES = {"linkage_nightly": Nightly, "string_join_blocked": StringJoin}


# ------------------------------------------------------------- measuring


def kernel_probe(cpu: int) -> dict:
    """kernel_probe.py in a child process pinned to one CPU."""
    env = dict(os.environ, OMP_NUM_THREADS="1")
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "kernel_probe.py")],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if p.returncode != 0:
        raise RuntimeError(f"kernel probe failed: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def layer_metrics(tr, counts: dict, walls: list[float], kern: dict, names: list[str]) -> dict:
    """Per-layer metrics from the spans and counts of a traced run."""
    parts = {s["part"] for s in tr.spans}

    def pick(pred):
        for p in (p for base in _PART_ORDER for p in sorted(parts) if p.split("_")[0] == base):
            hit = [s for s in tr.spans if s["part"] == p and pred(s)]
            if hit:
                return hit
        return []

    out = {}
    for name in names:
        if name.endswith("_s") and not name.startswith("trace."):
            hit = pick(lambda s, n=name[:-2]: s["name"] == n)
            if hit:
                out[name] = sum(tr.dur(s) for s in hit)
    ordered = [counts[p] for base in _PART_ORDER for p in sorted(counts) if p.split("_")[0] == base]
    for name, key in _COUNT_METRICS.items():
        hit = next((c[key] for c in ordered if key in c), None)
        if hit is not None:
            out[name] = float(hit)
    c = next((c for c in ordered if c.get("keys")), None)
    if c is not None:
        out["pipelines.linkage.edges_per_key"] = c["edges"] / c["keys"]
    for k in KERNELS:
        out[f"kernels.strdist.{k}.pairs_per_s"] = kern[k]
    top = [s for s in tr.spans if s["part"] == "own" and s["parent"] is None]
    total = max(s["end"] for s in top) - min(s["start"] for s in top)
    out["trace.overhead_s"] = total - statistics.median(walls)
    out["trace.unattributed_s"] = total - sum(tr.dur(s) for s in top)
    missing = set(names) - set(out)
    if missing:
        raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
    return out


def run(args, ctx: dict, work: str, record: dict) -> tuple[dict, int, int]:
    t_import = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t_import
    wl = CLASSES[args.workload](ctx)
    # Ray's session dir goes where Ray puts it by default, the system temp
    # dir: under the checkout, its socket paths can outgrow the 107-byte
    # AF_UNIX limit, and with it under perfbench/.work every call here
    # ran about 25 % slower and used 35 % more CPU
    session = RaySession(ctx["cpus"], tempfile.mkdtemp(prefix="perfbench-ray-"))
    try:
        setups = []
        for i in range(SETUP_REPS):
            if i:
                session.stop()
            t0 = time.perf_counter()
            session.start()
            session.warm()
            setups.append(time.perf_counter() - t0)
        record["setup_reps_s"] = setups
        record["import_s"] = import_s

        tally = {"attempted": 0, "failed": 0}

        def attempt(what: str, fn):
            """fn(), counted; a raise or a failed check counts as failed."""
            tally["attempted"] += 1
            try:
                return fn()
            except Exception:
                tally["failed"] += 1
                log(f"{what} failed:\n{traceback.format_exc()}")
                return None

        def timed(rep_dir: str) -> dict:
            procstat.reset_peak_rss()
            c0 = procstat.tree_cpu_s()
            t0 = time.perf_counter()
            out = wl.call(rep_dir)
            wall = time.perf_counter() - t0
            cpu = procstat.tree_cpu_s() - c0
            rss = procstat.peak_rss_mb()
            f1 = wl.check(out)
            log(f"rep: wall {wall:.3f} s, cpu {cpu:.2f} s, f1 {f1:.5f}")
            return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "f1": f1}

        # one untimed call first: the first call in a session pays
        # first-use costs in the workers that later calls do not
        attempt("warm-up call", lambda: wl.check(wl.call(f"{work}/warmup")))
        reps = []
        t_loop = time.perf_counter()
        for i in itertools.count():
            rep = attempt("timed call", lambda: timed(f"{work}/rep{i}"))
            if rep is not None:
                reps.append(rep)
            shutil.rmtree(f"{work}/rep{i}", ignore_errors=True)
            spent = time.perf_counter() - t_loop
            if (spent >= args.seconds and i + 1 >= MIN_REPS) or (
                time.monotonic() + spent / (i + 1) > ctx["deadline"] - 30
            ):
                break
        record["reps"] = reps
        if not reps:
            return {}, tally["attempted"], tally["failed"]

        walls = [r["wall_s"] for r in reps]
        if not args.trace:
            med = statistics.median
            return {
                "wall_s": med(walls),
                "rows_per_s": med([wl.rows / w for w in walls]),
                "cpu_s": med([r["cpu_s"] for r in reps]),
                "driver_peak_rss_mb": med([r["rss_mb"] for r in reps]),
                "setup_s": import_s + med(setups),
                "pairwise_f1": med([r["f1"] for r in reps]),
            }, tally["attempted"], tally["failed"]

        tr = Tracer()
        counts: dict = {}

        def traced() -> dict:
            wl.trace(tr, f"{work}/trace", counts)
            kern = kernel_probe(min(os.sched_getaffinity(0)))
            return layer_metrics(tr, counts, walls, kern, list(ctx["units"]))

        metrics = attempt("traced run", traced)
        record["spans"] = tr.dump()
        record["counts"] = counts
        return metrics or {}, tally["attempted"], tally["failed"]
    finally:
        session.stop()
        shutil.rmtree(session.tmp, ignore_errors=True)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "fozziejoin_ray", "__init__.py")):
        log(f"no fozziejoin_ray package under {ROOT}: run from a checkout of the repository")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    started = time.monotonic()

    cpus = len(os.sched_getaffinity(0))
    ctx = {
        "seed": args.seed,
        "cpus": cpus,
        "parts": 2 * cpus,
        "cache": os.path.join(HERE, ".cache"),
        "deadline": started + DEADLINE_S,
        "units": units,
    }
    # Ray workers start from the raylet's environment: put the package
    # (and these modules, for pickled helpers) on their import path
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]
    )
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                   capture_output=True, timeout=60)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.seed}-", dir=os.path.join(HERE, ".work"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cpus": cpus, "num_partitions": ctx["parts"]}
    try:
        metrics, attempted, failed = run(args, ctx, work, record)
    except Exception:
        log(f"run failed:\n{traceback.format_exc()}")
        metrics, attempted, failed = {}, max(1, len(record.get("reps", ()))) + 1, 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record.update(result=result, run_s=time.monotonic() - started)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)

    log(f"{args.workload} seed={args.seed} cpus={cpus} trace={args.trace} "
        f"attempted={attempted} failed={failed} error_rate={failed / max(1, attempted):.3f} "
        f"run={record['run_s']:.1f}s")
    for k, v in result["metrics"].items():
        log(f"  {k:48s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
