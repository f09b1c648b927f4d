"""Difference / distance / interval / regex / temporal join tests,
modeled on the reference suite (test_fozzie_difference_join.R,
test_fozzie_distance_join.R:17-59 computed-oracle style,
test_fozzie_interval_join.R:53-134, test_regex_join.R,
test_fozzie_temporal_join.R)."""

import datetime as dt
import itertools
import math

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fozziejoin_ray import (
    fuzzy_difference_join,
    fuzzy_distance_join,
    fuzzy_interval_join,
    fuzzy_regex_join,
    fuzzy_temporal_interval_join,
    fuzzy_temporal_join,
)


def ds(**cols):
    return rd.from_arrow(pa.table(cols))


# ---------------------------------------------------------------- difference


def test_difference_inner_basic():
    l = ds(x=[1.0, 2.0, 3.0], lab=["a", "b", "c"])
    r = ds(x=[1.05, 2.2, 2.95], lab=["p", "q", "s"])
    out = fuzzy_difference_join(l, r, by="x", max_distance=0.1, distance_col="d")
    rows = sorted(
        ((d["x.x"], d["x.y"], round(d["d"], 6)) for d in out.take_all())
    )
    assert rows == [(1.0, 1.05, 0.05), (3.0, 2.95, 0.05)]


def test_difference_inclusive_threshold():
    l = ds(x=[0.0])
    r = ds(x=[1.0])
    out = fuzzy_difference_join(l, r, by="x", max_distance=1.0)
    assert len(out.take_all()) == 1  # |0-1| <= 1 + eps


def test_difference_na_never_matches():
    l = ds(x=[1.0, None, 3.0])
    r = ds(x=[1.05, 2.0, None])
    out = fuzzy_difference_join(l, r, by="x", max_distance=10.0)
    for row in out.take_all():
        assert row["x.x"] is not None and row["x.y"] is not None


def test_difference_multikey():
    l = ds(x=[1.0, 2.0], y=[10.0, 20.0])
    r = ds(x=[1.05, 2.0], y=[10.5, 25.0])
    out = fuzzy_difference_join(
        l, r, by=[("x", "x"), ("y", "y")], max_distance=0.6, distance_col="d"
    )
    rows = out.take_all()
    assert len(rows) == 1
    row = rows[0]
    assert row["x.x"] == 1.0 and abs(row["d_x_x"] - 0.05) < 1e-9 and abs(row["d_y_y"] - 0.5) < 1e-9


def test_difference_integer_cols():
    l = ds(x=pa.array([1, 5], pa.int32()))
    r = ds(x=pa.array([2, 9], pa.int32()))
    out = fuzzy_difference_join(l, r, by="x", max_distance=1)
    assert len(out.take_all()) == 1


def test_difference_left_join_padding():
    l = ds(x=[1.0, 100.0])
    r = ds(x=[1.2])
    out = fuzzy_difference_join(l, r, by="x", how="left", max_distance=0.5, distance_col="d")
    rows = sorted(out.take_all(), key=lambda d: d["x.x"])
    assert rows[0]["x.y"] == 1.2
    assert rows[1]["x.y"] is None and math.isnan(rows[1]["d"])


# ------------------------------------------------------------------ distance


def _dist_oracle(lx, rx, method, maxd):
    out = []
    for i, a in enumerate(lx):
        for j, b in enumerate(rx):
            if any(v is None for v in a) or any(v is None for v in b):
                continue
            if method == "manhattan":
                d = sum(abs(p - q) for p, q in zip(a, b))
            else:
                d = math.sqrt(sum((p - q) ** 2 for p, q in zip(a, b)))
            if d <= maxd:
                out.append((i, j, round(d, 9)))
    return sorted(out)


@pytest.mark.parametrize("method", ["euclidean", "manhattan"])
def test_distance_join_vs_oracle(method):
    lx = [(0.0, 0.0), (1.0, 1.0), (None, 2.0), (3.5, 0.5)]
    rx = [(0.5, 0.0), (1.0, 1.5), (None, None), (3.0, 0.0)]
    l = ds(a=[p[0] for p in lx], b=[p[1] for p in lx], i=list(range(4)))
    r = ds(a=[p[0] for p in rx], b=[p[1] for p in rx], j=list(range(4)))
    out = fuzzy_distance_join(
        l, r, by=[("a", "a"), ("b", "b")], method=method, max_distance=1.0, distance_col="d"
    )
    got = sorted((d["i"], d["j"], round(d["d"], 9)) for d in out.take_all())
    assert got == _dist_oracle(lx, rx, method, 1.0)


# ------------------------------------------------------------------ interval


def _interval_oracle(L, R, mode, overlap_type, maxgap, minoverlap):
    out = []
    for i, (ls, le) in enumerate(L):
        for j, (rs, re) in enumerate(R):
            if mode == "integer":
                gap = rs - le - 1 if le < rs else (ls - re - 1 if re < ls else 0)
                ov = min(le, re) - max(ls, rs) + 1
            else:
                gap = rs - le if le < rs else (ls - re if re < ls else 0.0)
                ov = max(min(le, re) - max(ls, rs), 0.0)
            if gap > maxgap or ov < minoverlap:
                continue
            sem = {
                "any": True,
                "within": ls >= rs - maxgap and le <= re + maxgap,
                "start": abs(ls - rs) <= maxgap,
                "end": abs(le - re) <= maxgap,
            }[overlap_type]
            if sem:
                out.append((i, j))
    return sorted(out)


@pytest.mark.parametrize("overlap_type", ["any", "within", "start", "end"])
def test_interval_real_vs_oracle(overlap_type):
    L = [(1.0, 3.0), (5.0, 7.0), (10.0, 10.5)]
    R = [(2.0, 4.0), (6.0, 8.0), (3.0, 5.0), (10.4, 12.0)]
    l = ds(start=[a for a, _ in L], end=[b for _, b in L], i=list(range(len(L))))
    r = ds(start=[a for a, _ in R], end=[b for _, b in R], j=list(range(len(R))))
    out = fuzzy_interval_join(
        l, r, by=[("start", "start"), ("end", "end")], overlap_type=overlap_type, maxgap=1.0, minoverlap=0.5
    )
    got = sorted((d["i"], d["j"]) for d in out.take_all())
    assert got == _interval_oracle(L, R, "real", overlap_type, 1.0, 0.5)


def test_interval_integer_adjacency():
    # IRanges: [1,2] and [3,4] touch at maxgap=0 in integer mode only
    l = ds(s=pa.array([1], pa.int32()), e=pa.array([2], pa.int32()))
    r = ds(s=pa.array([3], pa.int32()), e=pa.array([4], pa.int32()))
    out = fuzzy_interval_join(l, r, by=[("s", "s"), ("e", "e")], maxgap=0, minoverlap=0)
    assert len(out.take_all()) == 1  # auto -> integer mode
    out2 = fuzzy_interval_join(
        l, r, by=[("s", "s"), ("e", "e")], maxgap=0, minoverlap=0, interval_mode="real"
    )
    assert len(out2.take_all()) == 0  # real mode: gap = 1 > 0


def test_interval_touching_real():
    l = ds(s=[1.0], e=[2.0])
    r = ds(s=[2.0], e=[3.0])
    out = fuzzy_interval_join(l, r, by=[("s", "s"), ("e", "e")], maxgap=0, minoverlap=0)
    assert len(out.take_all()) == 1  # touching at a point: gap 0, overlap 0


def test_interval_invalid_raises():
    l = ds(s=[5.0], e=[1.0])
    r = ds(s=[0.0], e=[1.0])
    with pytest.raises(Exception):
        fuzzy_interval_join(l, r, by=[("s", "s"), ("e", "e")]).take_all()


# -------------------------------------------------------------------- regex


def test_regex_inner():
    l = ds(name=["Alpha", "beta", "Gamma", None])
    r = ds(pattern=["^A", "a$", None], tag=["starts-A", "ends-a", "null"])
    out = fuzzy_regex_join(l, r, by={"name": "pattern"})
    got = sorted((d["name"], d["pattern"]) for d in out.take_all())
    assert got == [("Alpha", "^A"), ("Alpha", "a$"), ("Gamma", "a$"), ("beta", "a$")]


def test_regex_ignore_case():
    l = ds(name=["alpha"])
    r = ds(pattern=["^A"])
    assert len(fuzzy_regex_join(l, r, by={"name": "pattern"}).take_all()) == 0
    assert (
        len(fuzzy_regex_join(l, r, by={"name": "pattern"}, ignore_case=True).take_all()) == 1
    )


def test_regex_invalid_pattern_errors():
    l = ds(name=["x"])
    r = ds(pattern=["("])
    with pytest.raises(Exception):
        fuzzy_regex_join(l, r, by={"name": "pattern"}).take_all()


def test_regex_multikey_and_refinement():
    """Keys 2..n AND-refine per pair (regex/mod.rs:66-117; consistent
    left-value/right-pattern orientation — documented divergence from the
    reference's operand swap). NA and invalid refinement patterns drop
    the pair silently (regex/mod.rs:98-101)."""
    l = ds(name=["Alpha", "Amber", "beta", "Anna"],
           city=["Austin", "Boston", "Austin", None])
    r = ds(pattern=["^A", "^A", "^A", "a$"],
           city_pat=["in$", "^B", "(", "ust"],
           tag=["t1", "t2", "t3", "t4"])
    out = fuzzy_regex_join(l, r, by=[("name", "pattern"), ("city", "city_pat")])
    got = sorted((d["name"], d["tag"]) for d in out.take_all())
    # Alpha: ^A + Austin~in$ (t1) and a$ + Austin~ust (t4); Amber: ^A +
    # Boston~^B (t2); beta: a$ + Austin~ust (t4); Anna: city None drops all;
    # the invalid "(" refinement pattern (t3) drops pairs silently
    assert got == [("Alpha", "t1"), ("Alpha", "t4"), ("Amber", "t2"), ("beta", "t4")]


def test_regex_sharded_equals_broadcast():
    rng = np.random.RandomState(19)
    names = ["".join(rng.choice(list("abcdef"), 6)) for _ in range(300)]
    pats = [f"^{c1}.*{c2}$" for c1 in "abcdef" for c2 in "abcdef"]
    l = ds(name=names)
    r = ds(pattern=pats)
    kw = dict(by={"name": "pattern"})
    a = fuzzy_regex_join(l, r, strategy="broadcast", **kw)
    b = fuzzy_regex_join(l, r, strategy="sharded", broadcast_threshold=7, **kw)
    ka = sorted((d["name"], d["pattern"]) for d in a.take_all())
    kb = sorted((d["name"], d["pattern"]) for d in b.take_all())
    assert ka == kb and len(ka) > 0


# ------------------------------------------------------------------ temporal


def test_temporal_seconds():
    t0 = dt.datetime(2020, 1, 1, 12, 0, 0)
    l = ds(time=pa.array([t0, t0 + dt.timedelta(hours=1)], pa.timestamp("s")), i=[0, 1])
    r = ds(time=pa.array([t0 + dt.timedelta(seconds=5)], pa.timestamp("s")), j=[0])
    out = fuzzy_temporal_join(l, r, by="time", max_distance=10, unit="seconds", distance_col="d")
    rows = out.take_all()
    assert len(rows) == 1 and rows[0]["i"] == 0 and abs(rows[0]["d"] - 5.0) < 1e-9


def test_temporal_date_unit_enforced():
    d0 = dt.date(2020, 1, 1)
    l = ds(day=pa.array([d0], pa.date32()))
    r = ds(day=pa.array([d0 + dt.timedelta(days=1)], pa.date32()))
    out = fuzzy_temporal_join(l, r, by="day", max_distance=1, unit="days")
    assert len(out.take_all()) == 1
    with pytest.raises(ValueError):
        fuzzy_temporal_join(l, r, by="day", max_distance=1, unit="hours")


def test_temporal_type_mismatch_errors():
    d0 = dt.date(2020, 1, 1)
    t0 = dt.datetime(2020, 1, 1)
    l = ds(t=pa.array([d0], pa.date32()))
    r = ds(t=pa.array([t0], pa.timestamp("s")))
    with pytest.raises(TypeError):
        fuzzy_temporal_join(l, r, by="t", max_distance=1)


def test_temporal_nontemporal_errors():
    l = ds(t=[1.0])
    r = ds(t=[2.0])
    with pytest.raises(TypeError):
        fuzzy_temporal_join(l, r, by="t", max_distance=1)


def test_temporal_interval_join():
    t0 = dt.datetime(2020, 1, 1, 12, 0, 0)

    def ts(*offsets):
        return pa.array([t0 + dt.timedelta(seconds=o) for o in offsets], pa.timestamp("s"))

    l = ds(s=ts(0, 100), e=ts(10, 110), i=[0, 1])
    r = ds(s=ts(5), e=ts(15), j=[0])
    out = fuzzy_temporal_interval_join(l, r, by=[("s", "s"), ("e", "e")], overlap_type="any")
    rows = out.take_all()
    assert sorted(d["i"] for d in rows) == [0]


# ------------------------------------------------- blocked (both-sides-large)


def _rand_tables(seed=3, n=4000, m=3000):
    rng = np.random.RandomState(seed)
    l = pa.table(
        {
            "lid": pa.array(np.arange(n)),
            "x": pa.array(np.round(rng.uniform(0, 500, n), 3)),
            "y": pa.array(np.round(rng.uniform(0, 50, n), 3)),
        }
    )
    r = pa.table(
        {
            "rid": pa.array(np.arange(m)),
            "x": pa.array(np.round(rng.uniform(0, 500, m), 3)),
            "y": pa.array(np.round(rng.uniform(0, 50, m), 3)),
        }
    )
    return l, r


@pytest.mark.parametrize("how", ["inner", "left", "right", "full", "semi", "anti"])
def test_difference_blocked_equals_broadcast(how):
    lt, rt = _rand_tables()
    kw = dict(
        by={"x": "x"}, how=how, max_distance=0.5,
        left_id="lid", right_id="rid",
        distance_col="d" if how in ("inner", "left", "right", "full") else None,
    )
    a = fuzzy_difference_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="broadcast", **kw)
    b = fuzzy_difference_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="blocked", **kw)

    def canon(out):
        def v(x):  # NaN != NaN fails equality; None/float mix breaks sorted()
            if isinstance(x, float) and math.isnan(x):
                return "NaN"
            return repr(x)

        rows = out.take_all()
        return sorted(tuple(sorted((k, v(x)) for k, x in r.items())) for r in rows)

    assert canon(a) == canon(b), how


def test_difference_blocked_multikey_and_na():
    lt, rt = _rand_tables(seed=5, n=2000, m=2000)
    lt = lt.set_column(1, "x", pa.array([None if i % 97 == 0 else v for i, v in enumerate(lt["x"].to_pylist())]))
    kw = dict(by=[("x", "x"), ("y", "y")], max_distance=1.0, left_id="lid", right_id="rid", distance_col="d")
    a = fuzzy_difference_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="broadcast", **kw)
    b = fuzzy_difference_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="blocked", **kw)
    ka = sorted((r["lid"], r["rid"], round(r["d_x_x"], 9), round(r["d_y_y"], 9)) for r in a.take_all())
    kb = sorted((r["lid"], r["rid"], round(r["d_x_x"], 9), round(r["d_y_y"], 9)) for r in b.take_all())
    assert ka == kb


@pytest.mark.parametrize("mode,overlap,maxgap,minov", [
    ("real", "any", 0.0, 0.0),
    ("real", "any", 2.5, 0.0),
    ("real", "within", 0.0, 0.0),
    ("real", "any", 0.0, 1.0),
    ("integer", "any", 0, 0),
    ("integer", "any", 2, 0),
    ("integer", "end", 1, 0),
])
def test_interval_blocked_equals_broadcast(mode, overlap, maxgap, minov):
    rng = np.random.RandomState(11)
    n, m = 3000, 2500
    if mode == "integer":
        ls = rng.randint(0, 500, n); le = ls + rng.randint(0, 10, n)
        rs = rng.randint(0, 500, m); re = rs + rng.randint(0, 10, m)
        lt = pa.table({"lid": pa.array(np.arange(n)), "s": pa.array(ls.astype(np.int32)), "e": pa.array(le.astype(np.int32))})
        rt = pa.table({"rid": pa.array(np.arange(m)), "s": pa.array(rs.astype(np.int32)), "e": pa.array(re.astype(np.int32))})
    else:
        ls = np.round(rng.uniform(0, 500, n), 3); le = ls + np.round(rng.uniform(0, 8, n), 3)
        rs = np.round(rng.uniform(0, 500, m), 3); re = rs + np.round(rng.uniform(0, 8, m), 3)
        lt = pa.table({"lid": pa.array(np.arange(n)), "s": pa.array(ls), "e": pa.array(le)})
        rt = pa.table({"rid": pa.array(np.arange(m)), "s": pa.array(rs), "e": pa.array(re)})
    kw = dict(
        by=[("s", "s"), ("e", "e")], overlap_type=overlap, maxgap=maxgap,
        minoverlap=minov, interval_mode=mode, left_id="lid", right_id="rid",
    )
    a = fuzzy_interval_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="broadcast", **kw)
    b = fuzzy_interval_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="blocked", **kw)
    ka = sorted((r["lid"], r["rid"]) for r in a.take_all())
    kb = sorted((r["lid"], r["rid"]) for r in b.take_all())
    assert ka == kb, (mode, overlap, maxgap, minov, len(ka), len(kb))


@pytest.mark.parametrize("method,how", [
    ("euclidean", "inner"),
    ("euclidean", "left"),
    ("euclidean", "full"),
    ("manhattan", "inner"),
    ("manhattan", "anti"),
])
def test_distance_blocked_equals_broadcast(method, how):
    lt, rt = _rand_tables(seed=7, n=2500, m=2000)
    # inject NA into a non-first dim: blocked must drop it like broadcast
    lt = lt.set_column(
        2, "y",
        pa.array([None if i % 89 == 0 else v for i, v in enumerate(lt["y"].to_pylist())]),
    )
    kw = dict(
        by=[("x", "x"), ("y", "y")], method=method, how=how, max_distance=2.0,
        left_id="lid", right_id="rid",
        distance_col="d" if how in ("inner", "left", "full") else None,
    )
    a = fuzzy_distance_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="broadcast", **kw)
    b = fuzzy_distance_join(rd.from_arrow(lt), rd.from_arrow(rt), strategy="blocked", **kw)

    def canon(out):
        def v(x):
            if isinstance(x, float):
                return "NaN" if math.isnan(x) else repr(round(x, 9))
            return repr(x)

        rows = out.take_all()
        return sorted(tuple(sorted((k, v(x)) for k, x in r.items())) for r in rows)

    assert canon(a) == canon(b), (method, how)


def test_regex_zero_row_right_left_mode():
    """Zero-row pattern table: inner empty, left pads — the streaming
    shard builder must emit one empty shard, not crash on concat."""
    l = ds(name=["Alpha", "beta"])
    r = rd.from_arrow(pa.table({"pattern": ["^A"]}).slice(0, 0))
    inner = fuzzy_regex_join(l, r, by={"name": "pattern"}).take_all()
    assert inner == []
    left = fuzzy_regex_join(l, r, by={"name": "pattern"}, how="left").take_all()
    assert sorted(d["name"] for d in left) == ["Alpha", "beta"]
    assert all(d["pattern"] is None for d in left)


def test_interval_blocked_heavy_tail_two_level():
    """Heavy-tailed right intervals: the two-level split must (a) match
    the broadcast rows exactly and (b) bound per-tile replication — long
    rights never enter the tiling (they broadcast), so right emissions
    stay <= 2 per short interval instead of O(len/tile) for the tail."""
    rng = np.random.RandomState(23)
    n = 1200
    ls = np.round(rng.uniform(0, 1000, n), 3)
    le = ls + np.round(rng.uniform(0, 5, n), 3)
    rs = np.round(rng.uniform(0, 1000, n), 3)
    lens = np.where(
        rng.rand(n) < 0.05, rng.uniform(200, 800, n), rng.uniform(0, 5, n)
    ).round(3)
    re = rs + lens
    l = ds(s=ls, e=le, lid=np.arange(n))
    r = ds(s2=rs, e2=re, rid=np.arange(n))
    kw = dict(by=[("s", "s2"), ("e", "e2")], maxgap=1.0, left_id="lid", right_id="rid")
    a = fuzzy_interval_join(l, r, strategy="broadcast", **kw)
    b = fuzzy_interval_join(l, r, strategy="blocked", tile_width=10.0, **kw)
    ka = sorted((d["lid"], d["rid"]) for d in a.take_all())
    kb = sorted((d["lid"], d["rid"]) for d in b.take_all())
    assert ka == kb and len(ka) > 0

    # emission-count bound: with the cutoff each tiled right covers
    # <= len/tile + 1 <= 2 tiles; without it the tail dominates
    from fozziejoin_ray.joins.interval_join import _interval_emit

    t = pa.table({"rid": np.arange(n), "s2": rs, "e2": re})
    cut = _interval_emit(1, "rid", "s2", "e2", 10.0, 1.0 + 1e-6, skip_longer_than=10.0)(t)
    full = _interval_emit(1, "rid", "s2", "e2", 10.0, 1.0 + 1e-6)(t)
    n_short = int((lens <= 10.0).sum())
    assert cut.num_rows <= 2 * n_short
    assert full.num_rows > 3 * cut.num_rows


def _row_counter():
    """(count, total): ``count`` is a map_batches fn that adds its
    batch's rows to a shared counter, ``total()`` reads it."""
    import ray

    @ray.remote
    class Rows:
        def __init__(self):
            self.n = 0

        def add(self, n):
            self.n += n

        def total(self):
            return self.n

    rows = Rows.remote()

    def count(t: pa.Table) -> pa.Table:
        ray.get(rows.add.remote(t.num_rows))
        return t

    return count, lambda: ray.get(rows.total.remote())


@pytest.mark.parametrize("strategy", ["broadcast", "blocked"])
def test_interval_lazy_right_read_once(strategy):
    """A lazy right side runs once, however many times the plan reads it:
    a row-counting map over 2,000 right rows counts 2,000."""
    count, total = _row_counter()
    rng = np.random.default_rng(7)
    rs, ls = rng.uniform(0, 1000, 2000), rng.uniform(0, 1000, 200)
    right = rd.from_arrow(pa.table({"s": rs, "e": rs + rng.uniform(0, 8, 2000)}))
    left = rd.from_arrow(pa.table({"s": ls, "e": ls + 4.0}))
    out = fuzzy_interval_join(
        left, right.map_batches(count, batch_format="pyarrow"), by=[("s", "s"), ("e", "e")], strategy=strategy
    )
    assert out.count() > 0
    assert total() == 2000


def _interval_bruteforce(ls, le, rs, re, spec):
    from fozziejoin_ray.joins.interval_join import interval_matches_flat

    keep = interval_matches_flat(ls[:, None], le[:, None], rs[None, :], re[None, :], **spec)
    i, j = np.nonzero(keep)
    return set(zip(i.tolist(), j.tolist()))


def test_interval_open_right_adds_one_probe_per_left(monkeypatch):
    """The broadcast plan probes open-ended rights apart from the short
    ones: one right with ``end = inf`` adds at most one probed pair per
    left (counted by a spy on the window kernel), and every pair is
    still found once."""
    from fozziejoin_ray.joins import interval_join as ij

    rng = np.random.default_rng(5)
    n, m = 2000, 3000
    ls = rng.uniform(0, 1000, n)
    le = ls + rng.uniform(0, 8, n)
    rs = np.sort(rng.uniform(0, 1000, m))
    re = rs + rng.uniform(0, 8, m)
    spec = dict(mode="real", overlap_type="any", maxgap=0.0, minoverlap=0.0)
    kernel, probed = ij.window_slabs, []

    def spy(*args):
        for lrow, rpos in kernel(*args):
            probed[-1] += len(lrow)
            yield lrow, rpos

    monkeypatch.setattr(ij, "window_slabs", spy)

    def run(re):
        probed.append(0)
        lrow, rpos = ij.interval_pairs([ls, le], [rs, re], **spec)
        pairs = list(zip(lrow.tolist(), rpos.tolist()))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == _interval_bruteforce(ls, le, rs, re, spec)
        return probed[-1]

    closed = run(re)
    re[m // 2] = np.inf
    assert closed < run(re) <= closed + n


def test_interval_broadcast_reads_lazy_left_once():
    """The broadcast plan probes the long and open-ended rights in the
    same pass over the left side as the short ones: a row-counting map
    over 300 lazy left rows counts 300, and the edges equal all-pairs."""
    from fozziejoin_ray.joins import interval_join as ij

    count, total = _row_counter()
    rng = np.random.default_rng(9)
    ls, rs = rng.uniform(0, 100, 300), rng.uniform(0, 100, 400)
    le, re = ls + rng.uniform(0, 4, 300), rs + rng.uniform(0, 4, 400)
    re[:20] += 60.0  # long rights
    re[20], rs[21] = np.inf, -np.inf  # open-ended rights
    left = rd.from_arrow(pa.table({"lid": np.arange(300), "s": ls, "e": le}))
    right = rd.from_arrow(pa.table({"rid": np.arange(400), "s": rs, "e": re}))
    spec = dict(mode="real", overlap_type="any", maxgap=0.5, minoverlap=0.0)
    edges = ij._broadcast_interval_edges(
        left.map_batches(count, batch_format="pyarrow"), right,
        [("s", "s"), ("e", "e")], "lid", "rid", spec,
    ).take_all()
    assert total() == 300
    got = {(e["__fj_lid"], e["__fj_rid"]) for e in edges}
    assert len(got) == len(edges)
    assert got == _interval_bruteforce(ls, le, rs, re, spec)
