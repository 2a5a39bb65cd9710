"""The row pipeline: block norms, the block sampler and the batch forms of
the catalog maps, each against its scalar definition."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from holderlab.catalog import build_map, catalog_names, retraction_names
from holderlab.domains import (
    ball,
    c_interval,
    coefficient_box,
    positive_ball,
    sigma_band,
    simplex,
    sub_simplex,
)
from holderlab.seqvec import (
    NORM_VARIANTS,
    NormKind,
    Rows,
    coordinate,
    distance,
    fsum_rows,
    norm,
    pow_each,
    row_distance,
    row_norm,
    rows_distance,
    rows_norm,
)
from holderlab.verify import pair_ratios

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)
MPN = NormKind.max_pos_neg_l1()
KINDS = [SUP, L1, L2, NormKind.lp(3.0), NormKind.lp(1.5), MPN]
assert {k.variant for k in KINDS} == set(NORM_VARIANTS)

BATCHED = {"prus", "norming", "baseline_c", "shift_simplex", "affine_mixing",
           "goebel_kirk", "hyperconvex", "c0_family", "affine_cube",
           "renormed_l1", "radial", "abs", "positive_part", "clamp",
           "l1_sphere"}
SCALAR_ONLY = {"deficiency", "l1_ball_composite"}


def _random_rows(rng, count, width, tails):
    vals = rng.normal(size=(count, width)) * rng.choice([1e-3, 1.0, 50.0],
                                                       size=(count, 1))
    vals[rng.random((count, width)) < 0.3] = 0.0
    tail = (rng.uniform(-2.0, 2.0, count) * (rng.random(count) < 0.5)
            if tails else np.zeros(count))
    return Rows(np.where(vals == 0.0, tail[:, None], vals), tail)


def _outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def _same_number(a, b):
    return a == b or (a != a and b != b)


def _points(x):
    return [x.vec(i) for i in range(len(x.tail))]


def test_pow_each_and_fsum_rows_round_as_the_scalar_code():
    """Vectorised power rounds differently from one CPU to another; these
    two must give Python's `**` and math.fsum bit for bit."""
    rng = np.random.default_rng(4)
    base = np.concatenate([rng.random(20000) * 2.0,
                           [0.0, math.inf, math.nan, 1e-300, 1e300]])
    def power(v, e):
        try:
            return v ** e
        except OverflowError:
            return math.inf

    for e in (0.5, 0.9, 1.0 / 3.0, 1.5, 2.0):
        got = pow_each(base, e).tolist()
        assert all(_same_number(g, power(v, e))
                   for g, v in zip(got, base.tolist())), e
    spread = rng.random(base.shape) * 3.0
    got = pow_each(base, spread).tolist()
    assert all(_same_number(g, power(v, e))
               for g, v, e in zip(got, base.tolist(), spread.tolist()))
    rows = rng.normal(size=(50, 30)) * 10.0 ** rng.integers(-8, 8, (50, 30))
    rows[rng.random((50, 30)) < 0.4] = 0.0
    assert fsum_rows(rows).tolist() == [math.fsum(r) for r in rows.tolist()]


def test_vec_gives_canonical_rows():
    rng = np.random.default_rng(2)
    x = _random_rows(rng, 100, 12, True)
    x.vals[0, :2] = [-0.0, x.tail[0]]
    x.tail[1] = -0.0
    points = _points(x)
    assert all(p.is_canonical() for p in points)
    assert math.copysign(1.0, points[1].tail) == 1.0
    for p, row, tail in zip(points, x.vals.tolist(), x.tail.tolist()):
        assert [coordinate(p, i) for i in range(1, 14)] == row + [tail]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_rows_norm_matches_the_scalar_norm(kind):
    rng = np.random.default_rng(7)
    x = _random_rows(rng, 300, 40, kind.allows_tail)
    y = _random_rows(rng, 300, 25, kind.allows_tail)
    got_n, got_d = rows_norm(x, kind), rows_distance(x, y, kind)
    for i, (xi, yi) in enumerate(zip(_points(x), _points(y))):
        assert got_n[i] == pytest.approx(norm(xi, kind), rel=1e-12, abs=0)
        assert got_d[i] == pytest.approx(distance(xi, yi, kind), rel=1e-12,
                                         abs=1e-300)


SPECIAL_ROWS = [
    ([1.0, math.nan, 2.0], 0.0),
    ([1.0, math.inf], 0.0),
    ([-math.inf, 1.0], 0.0),
    ([math.inf, -math.inf], 0.0),
    ([1e200, 1e200, -1e200], 0.0),  # power sums overflow, the norm does not
    ([1e308, 1e308], 0.0),
    ([1.7e308, -1.7e308], 0.0),
    ([0.5, 0.25], math.nan),
    ([0.5], math.inf),
    ([0.5, -0.25], 0.75),  # a tail the lp norms do not allow
    ([], 0.0),
]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_rows_norm_on_special_rows_is_the_scalar_norm(kind):
    width = 3
    outcomes = []
    for values, tail in SPECIAL_ROWS:
        vals = np.full((1, width), tail)
        vals[0, :len(values)] = values
        row = Rows(vals, np.array([tail]))
        want = _outcome(norm, row.vec(0), kind)
        got = _outcome(lambda: float(rows_norm(row, kind)[0]))
        assert (_same_number(got, want) if isinstance(want, float)
                else got == want), (values, tail)
        outcomes.append(want)
    # a whole block raises what its first failing row raises
    block = Rows(np.array([[*v, *[t] * (width - len(v))]
                           for v, t in SPECIAL_ROWS]),
                 np.array([t for _, t in SPECIAL_ROWS]))
    errors = [o for o in outcomes if isinstance(o, tuple)]
    got = _outcome(rows_norm, block, kind)
    if errors:
        assert got == errors[0]
    else:
        for g, w in zip(got, outcomes):
            assert _same_number(float(g), w)


def test_one_row_blocks_round_trip_and_trim():
    rng = np.random.default_rng(5)
    for p in _points(_random_rows(rng, 50, 9, True)):
        row = Rows.of(p)
        assert row.vec(0) == p
        assert row.width == (p.support[-1][0] if p.support else 0)
        assert row.trimmed() is row  # the last stored value is no tail
        trimmed = row.widen(row.width + 4).trimmed()
        assert np.array_equal(trimmed.vals, row.vals)
        assert np.array_equal(trimmed.tail, row.tail)
    nan = Rows(np.array([[1.0, math.nan, math.nan]]), np.array([math.nan]))
    assert nan.trimmed() is nan  # NaN equals no tail


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_row_norm_and_row_distance_are_the_scalar_ones(kind):
    """The one-row measures feed the scalar kernel, so they agree with norm
    and distance bit for bit, NaN, overflow and errors included."""
    rng = np.random.default_rng(9)
    x = _random_rows(rng, 200, 30, kind.allows_tail)
    y = _random_rows(rng, 200, 18, kind.allows_tail)
    specials = [Rows(np.array([values + [tail] * (3 - len(values))]),
                     np.array([tail])) for values, tail in SPECIAL_ROWS]
    rows = [x.take([i]) for i in range(200)] + specials
    others = [y.take([i]) for i in range(200)] + specials[::-1]
    for a, b in zip(rows, others):
        for got, want in (
                (_outcome(row_norm, a, kind), _outcome(norm, a.vec(0), kind)),
                (_outcome(row_distance, a, b, kind),
                 _outcome(distance, a.vec(0), b.vec(0), kind))):
            assert (_same_number(got, want) if isinstance(want, float)
                    else got == want)


def test_rows_distance_of_a_column_shift_is_exact():
    """Sums run left to right, so leading zero columns change nothing: the
    per-n ratios of an isometric shift are exactly equal."""
    rng = np.random.default_rng(3)
    x, y = (_random_rows(rng, 50, 30, False) for _ in range(2))
    shifted = [Rows(np.concatenate([np.zeros((50, s)), r.vals], axis=1),
                    r.tail) for s in (1, 7) for r in (x, y)]
    for kind in (L1, L2, NormKind.lp(3.0), MPN):
        base = rows_distance(x, y, kind)
        assert (rows_distance(shifted[0], shifted[1], kind) == base).all()
        assert (rows_distance(shifted[2], shifted[3], kind) == base).all()


def _maps():
    return [build_map(name) for name in catalog_names() + retraction_names()]


def test_batch_forms_cover_the_intended_maps():
    have = {T.name for T in _maps() if hasattr(T.apply, "rows")}
    assert have == BATCHED
    assert not have & SCALAR_ONLY


def _check_block(T, x):
    """apply.rows on x equals apply on each row to 1e-12 in the sup norm,
    or raises what apply raises on the first row it fails on."""
    want = [_outcome(T.apply, v) for v in _points(x)]
    errors = [w for w in want if isinstance(w, tuple)]
    got = _outcome(T.apply.rows, x)
    if errors:
        assert got == errors[0], T.name
        return len(errors)
    for g, w in zip(_points(got), want):
        assert distance(g, w, SUP) <= 1e-12, (T.name, str(w), str(g))
    return 0


@pytest.mark.parametrize("T", [T for T in _maps() if T.name in BATCHED],
                         ids=lambda T: T.name)
def test_batch_form_matches_apply(T):
    rng = np.random.default_rng(11)
    # rows of the map's own domain, and their images
    x = T.domain.sample_rows(rng, 300)
    assert _check_block(T, x) == 0
    assert _check_block(T, T.apply.rows(x)) == 0
    # sup-ball rows: tails, negative coordinates, and the rows some maps
    # reject, one at a time and as one block
    wild = ball(1.0, SUP).sample_rows(rng, 200, breadth=T.domain.breadth)
    failures = sum(_check_block(T, wild.take([i])) for i in range(200))
    assert _check_block(T, wild) == failures
    if T.name in ("goebel_kirk", "hyperconvex", "c0_family", "affine_cube",
                  "renormed_l1", "clamp", "radial", "l1_sphere"):
        assert failures > 0, T.name


def test_replacing_apply_drops_the_batch_form():
    T = build_map("prus")
    U = dataclasses.replace(T, apply=lambda x: x)
    assert hasattr(T.apply, "rows") and not hasattr(U.apply, "rows")


# ---------------------------------------------------------------------------
# the block sampler


def _domains():
    return [ball(1.0, SUP), ball(1.0, L1), ball(0.7, L2), ball(1.0, MPN),
            positive_ball(0.9, L1), positive_ball(0.9, SUP),
            simplex(1.0, 0.125), simplex(2.0, 0.5), sub_simplex(0.5),
            coefficient_box(1.0), sigma_band(0.125, 0.5), c_interval(0.25)]


@pytest.mark.parametrize("K", _domains(), ids=lambda K: K.describe())
def test_sample_rows_law(K):
    K8 = K.with_breadth(8)
    x = K8.sample_rows(np.random.default_rng(8), 2000)
    assert x.vals.shape == (2000, 8)
    points = _points(x)
    assert all(K8.contains(p) for p in points)
    sizes = {len(p.support) for p in points}
    if K.kind == "sigma_band":
        assert sizes == {8}
    else:
        assert {1, 8} <= sizes
    if K.carries_tail:
        tails = np.count_nonzero(x.tail) / 2000
        assert 0.45 <= tails <= 0.55


@pytest.mark.parametrize("K", _domains(), ids=lambda K: K.describe())
def test_sample_rows_do_not_depend_on_block_sizes(K):
    one = K.sample_rows(np.random.default_rng(5), 7)
    rng = np.random.default_rng(5)
    parts = [K.sample_rows(rng, k) for k in (1, 2, 4)]
    assert (np.concatenate([p.vals for p in parts]) == one.vals).all()
    assert (np.concatenate([p.tail for p in parts]) == one.tail).all()
    assert K.sample(5) == one.vec(0)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_pair_ratios_memory_is_bounded_by_the_block():
    prus = build_map("prus")
    assert _peak_mb(lambda: pair_ratios(prus, (1,), 100_000, seed=1)) < 16.0
    wide = build_map("prus", breadth=65_536)
    assert _peak_mb(lambda: pair_ratios(wide, (1,), 50, seed=1)) < 16.0
