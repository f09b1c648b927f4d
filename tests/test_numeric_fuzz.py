"""Brute-force fuzz of the numeric joins' two plans: each plan's edges
equal a numpy all-pairs evaluation of the reference predicate. Both
plans score through one function per family, so comparing them with
each other proves little; each is checked on its own against the oracle.

The property tests run the plans in-process on Arrow tables: the
broadcast scorer against the sorted right side, and the blocked plan's
emissions split over a few partitions (each block whole in one) into its
partition scorer. The slab constant is drawn too, so windows split
across slabs. End-to-end tests run the public joins through Ray."""

from functools import partial
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fozziejoin_ray import (
    fuzzy_asof_join,
    fuzzy_difference_join,
    fuzzy_distance_join,
    fuzzy_interval_join,
)
from fozziejoin_ray.joins import interval_join as ij
from fozziejoin_ray.joins import numeric_join as nj
from fozziejoin_ray.semantics import F64_EPS

# multiples of 0.1 (so 0.30000000000000004 and friends show up), small
# integers (duplicates), wide floats, infinities and nulls
_tenth = st.integers(-30, 30).map(lambda k: k * 0.1)
_val = st.one_of(
    _tenth,
    _tenth,
    st.integers(-4, 4).map(float),
    st.floats(-60, 60, allow_nan=False),
    st.sampled_from([-np.inf, np.inf]),
    st.none(),
)
_dist = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.5, np.inf])
_slab = st.sampled_from([1, 3, 1 << 20])
# partitions of the in-process blocked plan: one holds neighboring blocks
_parts = st.sampled_from([1, 2, 3])


def _table(id_col, cols, as_int=False):
    """Columns k0, k1, ...; an int column has no infinities or NaN, so
    such a draw is null there."""
    t = {id_col: pa.array(np.arange(len(cols[0]) if cols else 0), pa.int64())}
    for i, c in enumerate(cols):
        if as_int:
            c = [None if v is None or not np.isfinite(v) else int(round(v)) for v in c]
        t[f"k{i}"] = pa.array(c, pa.int64() if as_int else pa.float64())
    return pa.table(t)


def _np(t, i):
    return nj._numeric_np(t[f"k{i}"])


def _edges(tab, ndist):
    cols = [tab["__fj_lid"].to_pylist(), tab["__fj_rid"].to_pylist()]
    cols += [tab[f"__fj_d{k}"].to_pylist() for k in range(ndist)]
    return sorted(zip(*cols))


def _oracle(keep, dists):
    i, j = np.nonzero(keep)
    return sorted(zip(i.tolist(), j.tolist(), *(d[i, j].tolist() for d in dists)))


def _broadcast(lt, rt, by, score):
    return nj.score_left_batch(nj.sorted_right(rt, "rid", by), lt, "lid", by, score)


def _broadcast_left(lt, rt, by, score):
    held = ([nj._numeric_np(lt[l]) for l, _ in by], lt["lid"])
    return nj.score_right_batch(held, rt, "rid", by, score)


def _blocked(lt, rt, emits, score, nkeys, parts):
    t = pa.concat_tables([emits[0](lt), emits[1](rt)])
    blk = t["__nb_bucket"].to_numpy()
    fn = nj._partition_scorer(score, nkeys)
    return pa.concat_tables([fn(t.filter(pa.array(blk % parts == p))) for p in range(parts)])


def _rows(k, min_size=0):
    return st.lists(st.tuples(*[_val] * k), min_size=min_size, max_size=14)


def _cols(rows, k):
    return [[r[i] for r in rows] for i in range(k)]


_FAST = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=300, **_FAST)
@given(data=st.data())
def test_difference_plans_equal_bruteforce(data):
    k = data.draw(st.integers(1, 2), "keys")
    as_int = data.draw(st.booleans(), "int")
    lt = _table("lid", _cols(data.draw(_rows(k, 1), "left"), k), as_int)
    rt = _table("rid", _cols(data.draw(_rows(k), "right"), k), as_int)
    d = data.draw(_dist, "d")
    thr = d + F64_EPS
    dists = [np.abs(_np(lt, i)[:, None] - _np(rt, i)[None, :]) for i in range(k)]
    want = _oracle(np.logical_and.reduce([x <= thr for x in dists]), dists)
    by = [(f"k{i}", f"k{i}") for i in range(k)]
    score = partial(nj.difference_pairs, thr=thr)
    with mock.patch.object(nj, "SLAB_PAIRS", data.draw(_slab, "slab")):
        assert _edges(_broadcast(lt, rt, by, score), k) == want
        emits = nj.window_emits("lid", "rid", by, thr)
        assert _edges(_blocked(lt, rt, emits, score, k, data.draw(_parts, "parts")), k) == want


@settings(max_examples=300, **_FAST)
@given(data=st.data())
def test_distance_plans_equal_bruteforce(data):
    k = data.draw(st.integers(1, 3), "keys")
    method = data.draw(st.sampled_from(["euclidean", "manhattan"]), "method")
    as_int = data.draw(st.booleans(), "int")
    lt = _table("lid", _cols(data.draw(_rows(k, 1), "left"), k), as_int)
    rt = _table("rid", _cols(data.draw(_rows(k), "right"), k), as_int)
    d = data.draw(_dist, "d")
    D = 0.0
    for i in range(k):
        diff = _np(lt, i)[:, None] - _np(rt, i)[None, :]
        D = D + (np.abs(diff) if method == "manhattan" else diff * diff)
    if method == "euclidean":
        D = np.sqrt(D)
    want = _oracle(D <= d, [D])
    by = [(f"k{i}", f"k{i}") for i in range(k)]
    score = partial(nj.distance_pairs, max_distance=d, method=method)
    with mock.patch.object(nj, "SLAB_PAIRS", data.draw(_slab, "slab")):
        assert _edges(_broadcast(lt, rt, by, score), 1) == want
        emits = nj.window_emits("lid", "rid", by, d)
        assert _edges(_blocked(lt, rt, emits, score, k, data.draw(_parts, "parts")), 1) == want


@pytest.mark.parametrize("x,y,d", [(2.7, 0.2, 2.5), (0.2, 2.7, 2.5), (-1.0, 1.2e-38, 1.0)])
def test_window_keeps_pairs_rounded_outside_x_pm_d(x, y, d):
    """|x - y| rounds to d although y lies several ulps outside the
    rounded x ± d (2.7 - 2.5 is 0.2 + 6 ulps): the window must still
    hold the pair for the predicate to decide."""
    lv, rv = [np.array([x])], [np.array([y])]
    assert len(nj.difference_pairs(lv, rv, thr=d)[0]) == 1
    for method in ("euclidean", "manhattan"):
        assert len(nj.distance_pairs(lv, rv, max_distance=d, method=method)[0]) == 1


def test_euclidean_window_holds_underflowed_squares():
    """0.0 against 2.2e-311 at d = 0: the squared difference underflows,
    so the euclidean distance reads 0 and the pair matches, although
    |x - y| lies outside x ± d (manhattan and difference see 2.2e-311)."""
    lv, rv = [np.array([0.0])], [np.array([2.2e-311])]
    assert len(nj.distance_pairs(lv, rv, max_distance=0.0, method="euclidean")[0]) == 1
    assert len(nj.distance_pairs(lv, rv, max_distance=0.0, method="manhattan")[0]) == 0
    assert len(nj.difference_pairs(lv, rv, thr=0.0)[0]) == 0


def _interval_oracle(ls, le, rs, re, *, mode, overlap_type, maxgap, minoverlap):
    """The reference predicate over all (left, right) pairs."""
    LS, LE, RS, RE = ls[:, None], le[:, None], rs[None, :], re[None, :]
    if mode == "integer":
        gap = np.where(LE < RS, RS - LE - 1, np.where(RE < LS, LS - RE - 1, 0))
        ov = np.minimum(LE, RE) - np.maximum(LS, RS) + 1
    else:
        gap = np.where(LE < RS, RS - LE, np.where(RE < LS, LS - RE, 0.0))
        ov = np.maximum(np.minimum(LE, RE) - np.maximum(LS, RS), 0.0)
    keep = (gap <= maxgap) & (ov >= minoverlap)
    if overlap_type == "within":
        keep &= (LS >= RS - maxgap) & (LE <= RE + maxgap)
    elif overlap_type == "start":
        keep &= np.abs(LS - RS) <= maxgap
    elif overlap_type == "end":
        keep &= np.abs(LE - RE) <= maxgap
    return keep


_len = st.one_of(
    st.integers(0, 12).map(lambda k: k * 0.1),
    st.integers(0, 3).map(float),
    st.just(40.0),
    st.just(np.inf),
)


def _intervals(min_size=0):
    """[starts, ends]: an end is its start plus a drawn length (40 is the
    long tail, inf open-ended), null with its start or on a drawn flag."""
    row = st.tuples(_val, _len, st.integers(0, 5).map(lambda v: v == 0))
    return st.lists(row, min_size=min_size, max_size=14).map(
        lambda rows: [
            [s for s, _, _ in rows],
            [None if s is None or null_end else s + n for s, n, null_end in rows],
        ]
    )


@settings(max_examples=300, **_FAST)
@given(data=st.data())
def test_interval_plans_equal_bruteforce(data):
    mode = data.draw(st.sampled_from(["real", "integer"]), "mode")
    lt = _table("lid", data.draw(_intervals(1), "left"), mode == "integer")
    rt = _table("rid", data.draw(_intervals(), "right"), mode == "integer")
    spec = {
        "mode": mode,
        "overlap_type": data.draw(st.sampled_from(ij.OVERLAP_TYPES), "type"),
        "maxgap": float(data.draw(st.sampled_from([0, 0.3, 1, 2.5]), "maxgap")),
        "minoverlap": float(data.draw(st.sampled_from([0, 0.2, 1, 2]), "minoverlap")),
    }
    keep = _interval_oracle(_np(lt, 0), _np(lt, 1), _np(rt, 0), _np(rt, 1), **spec)
    want = _oracle(keep, [])
    by = [("k0", "k0"), ("k1", "k1")]
    score = partial(ij.interval_pairs, **spec)
    tw = data.draw(st.sampled_from([0.25, 1.0, 3.0]), "tile")
    expand = ij._expand(spec["mode"], spec["maxgap"])
    emits = (
        ij._interval_emit(0, "lid", "k0", "k1", tw, expand),
        ij._interval_emit(1, "rid", "k0", "k1", tw, expand, skip_longer_than=tw),
    )
    # the two-level split: rights longer than a tile and open-ended lefts
    # skip the tiling and are broadcast
    long = _np(rt, 1) - _np(rt, 0) > tw
    long_rt, short_rt = rt.filter(pa.array(long)), rt.filter(pa.array(~long))
    open_lt = lt.filter(pa.array(np.isinf(_np(lt, 0)) | np.isinf(_np(lt, 1))))
    with mock.patch.object(nj, "SLAB_PAIRS", data.draw(_slab, "slab")):
        assert _edges(_broadcast(lt, rt, by, score), 0) == want
        parts = data.draw(_parts, "parts")
        tiled = _blocked(lt, rt, emits, partial(score, tile_width=tw), 2, parts)
        split = [_broadcast(lt, long_rt, by, score), _broadcast_left(open_lt, short_rt, by, score)]
        assert _edges(pa.concat_tables([tiled, *split]), 0) == want


# ------------------------------------------------------------- end to end


def _run(join, lt, rt, **kw):
    out = join(rd.from_arrow(lt), rd.from_arrow(rt), left_id="lid", right_id="rid", **kw)
    return sorted((r["lid"], r["rid"]) for r in out.take_all())


@pytest.mark.parametrize("strategy", ["broadcast", "blocked"])
@settings(max_examples=2, **_FAST)
@given(data=st.data())
def test_numeric_joins_end_to_end_bruteforce(strategy, data):
    """The public joins, through Ray, on drawn tables with nulls and int
    columns: difference (two keys), distance and interval."""
    as_int = data.draw(st.booleans(), "int")
    lt = _table("lid", _cols(data.draw(_rows(2, 1), "left"), 2), as_int)
    rt = _table("rid", _cols(data.draw(_rows(2), "right"), 2), as_int)
    by = [("k0", "k0"), ("k1", "k1")]
    x = [(_np(lt, i)[:, None], _np(rt, i)[None, :]) for i in range(2)]

    want = _oracle(np.logical_and.reduce([np.abs(a - b) <= 1 + F64_EPS for a, b in x]), [])
    assert _run(fuzzy_difference_join, lt, rt, by=by, max_distance=1, strategy=strategy) == want

    D = np.sqrt(sum((a - b) * (a - b) for a, b in x))
    want = _oracle(D <= 2.5, [])
    assert _run(fuzzy_distance_join, lt, rt, by=by, max_distance=2.5, strategy=strategy) == want

    lo = [np.fmin(a, b) for a, b in zip(*x)]  # ordered endpoints
    hi = [np.fmax(a, b) for a, b in zip(*x)]
    keep = _interval_oracle(
        lo[0][:, 0], hi[0][:, 0], lo[1][0], hi[1][0],
        mode="integer" if as_int else "real", overlap_type="any", maxgap=0.5, minoverlap=0.0,
    )
    lti = lt.set_column(1, "k0", pa.array(lo[0][:, 0])).set_column(2, "k1", pa.array(hi[0][:, 0]))
    rti = rt.set_column(1, "k0", pa.array(lo[1][0])).set_column(2, "k1", pa.array(hi[1][0]))
    got = _run(
        fuzzy_interval_join, lti, rti, by=by, maxgap=0.5, strategy=strategy,
        interval_mode="integer" if as_int else "real",
    )
    assert got == _oracle(keep, [])


@pytest.mark.parametrize("strategy", ["broadcast", "blocked"])
def test_infinite_values_and_open_intervals(strategy):
    """Through Ray: at max_distance=inf every pair without an ``inf -
    inf`` matches, and open-ended intervals (an infinite end or start)
    keep their matches on either side."""
    inf = np.inf
    lt = pa.table({"lid": np.arange(5), "k0": [0.0, 1.0, 5.0, -3.0, inf]})
    rt = pa.table({"rid": np.arange(4), "k0": [0.5, 10.0, -inf, inf]})
    x, y = _np(lt, 0)[:, None], _np(rt, 0)[None, :]
    for d in (inf, 1.0):
        want = _oracle(np.abs(x - y) <= d + F64_EPS, [])
        got = _run(fuzzy_difference_join, lt, rt, by="k0", max_distance=d, strategy=strategy)
        assert got == want, d
        want = _oracle(np.abs(x - y) <= d, [])
        assert _run(fuzzy_distance_join, lt, rt, by="k0", max_distance=d, strategy=strategy) == want

    lt = _table("lid", [[0.0, 5.0, 20.0, -inf, 3.0], [1.0, inf, 21.0, 2.0, 3.5]])
    rt = _table("rid", [[0.5, 30.0, 4.0, 22.0, -inf], [0.7, inf, 6.0, 23.0, 0.0]])
    by = [("k0", "k0"), ("k1", "k1")]
    spec = {"mode": "real", "overlap_type": "any", "maxgap": 0.0, "minoverlap": 0.0}
    want = _oracle(_interval_oracle(_np(lt, 0), _np(lt, 1), _np(rt, 0), _np(rt, 1), **spec), [])
    assert len(want) == 7
    assert _run(fuzzy_interval_join, lt, rt, by=by, strategy=strategy) == want


_FAMILIES = {
    "difference": lambda l, r, **kw: fuzzy_difference_join(l, r, by="x", max_distance=1.0, **kw),
    "distance": lambda l, r, **kw: fuzzy_distance_join(l, r, by="x", max_distance=1.0, **kw),
    "interval": lambda l, r, **kw: fuzzy_interval_join(l, r, by=[("x", "x"), ("y", "y")], **kw),
    "asof": lambda l, r, **kw: fuzzy_asof_join(l, r, by="x", tolerance=1.0, **kw),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("strategy", ["broadcast", "blocked"])
@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_zero_row_right_side(family, strategy, how):
    """A typed right side without rows: inner returns nothing, left and
    anti return every left row."""
    l = rd.from_arrow(pa.table({"x": [1.0, 2.0], "y": [3.0, 4.0], "a": ["p", "q"]}))
    r = rd.from_arrow(pa.table({"x": [1.0], "y": [3.0], "b": ["s"]}).slice(0, 0))
    rows = _FAMILIES[family](l, r, how=how, strategy=strategy).take_all()
    assert sorted(row["a"] for row in rows) == ([] if how == "inner" else ["p", "q"])
