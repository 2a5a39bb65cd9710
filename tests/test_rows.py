"""The row pipeline: block norms, the block sampler and the batch forms of
the catalog maps, each against its scalar definition."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from holderlab import seqvec
from holderlab.catalog import build_map, catalog_names, retraction_names
from holderlab.domains import (
    DOMAIN_KINDS,
    as_rng,
    ball,
    c_interval,
    coefficient_box,
    positive_ball,
    sigma_band,
    simplex,
    sub_simplex,
)
from holderlab.seqvec import (
    FEW_ROWS,
    NORM_VARIANTS,
    NormKind,
    Rows,
    SeqVec,
    coordinate,
    distance,
    exact_sum,
    fsum_rows,
    norm,
    pow_each,
    rows_distance,
    rows_norm,
    shift_right,
    shift_rows,
    shifted,
    _row_sums,
)
from holderlab.verify import (BLOCK_ELEMENTS, CheckRequest,
                              estimate_displacement, pair_ratios, run_check)

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)
MPN = NormKind.max_pos_neg_l1()
KINDS = [SUP, L1, L2, NormKind.lp(3.0), NormKind.lp(1.5), MPN]
assert {k.variant for k in KINDS} == set(NORM_VARIANTS)

BATCHED = {"prus", "norming", "baseline_c", "shift_simplex", "affine_mixing",
           "deficiency", "goebel_kirk", "hyperconvex", "c0_family",
           "affine_cube", "renormed_l1", "radial", "abs", "positive_part",
           "clamp", "l1_sphere", "l1_ball_composite"}


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


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _fsum_each(rows):
    return _bits([math.fsum(r) for r in rows.tolist()])


def test_fsum_rows_is_fsum_bit_for_bit():
    """Row by row, on blocks on both sides of FEW_ROWS: random values
    spread over many binades, and rows that only exact rounding settles."""
    rng = np.random.default_rng(19)
    fixed = [[1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -105],
             [1.0, -2.0 ** -54], [3.0, 2.0 ** -52], [1e16, 1.0, -1e16],
             [1e-16, 1.0, 1e16], [5e-324, 5e-324, 2.0 ** -1022, -5e-324],
             [2.0 ** -1070, 3 * 2.0 ** -1074], [0.0, -0.0], [-0.0, -0.0],
             [1.0, -1.0], [2.0 ** 1000, 2.0 ** 1000, -2.0 ** 1000]]
    for rows in (1, FEW_ROWS - 1, FEW_ROWS, 3 * FEW_ROWS + 5):
        for width in (0, 1, 2, 4, 7, 63, 64, 65, 257):
            vals = (rng.normal(size=(rows, width))
                    * 2.0 ** rng.integers(-60, 60, (rows, width)))
            vals[rng.random((rows, width)) < 0.3] = 0.0
            if width >= 4:
                for i, row in enumerate(fixed[:rows]):
                    vals[i * rows // len(fixed)] = 0.0
                    vals[i * rows // len(fixed), :len(row)] = row
            assert _bits(fsum_rows(vals)) == _fsum_each(vals), (rows, width)
    # multiples of 2^-53, whose sums often fall on a tie
    ties = rng.integers(0, 2 ** 53, (4 * FEW_ROWS, 8)) * 2.0 ** -53
    assert _bits(fsum_rows(ties)) == _fsum_each(ties)
    # large values that cancel only high up the tree, leaving errors the
    # side sum cannot add exactly
    big = rng.normal(size=(2 * FEW_ROWS, 8)) * 2.0 ** 60
    vals = np.hstack([big, -big, rng.normal(size=(2 * FEW_ROWS, 8))])
    vals = np.take_along_axis(vals, rng.random(vals.shape).argsort(axis=1),
                              axis=1)
    assert _bits(fsum_rows(vals)) == _fsum_each(vals)


def test_fsum_rows_is_exact_sum_on_rows_fsum_rejects():
    """Rows that math.fsum raises on (infinities of both signs, a partial
    sum past the float range) take exact_sum's value, in the block code and
    in the row code, and the block raises nothing."""
    rng = np.random.default_rng(7)
    clean = rng.random((FEW_ROWS + 3, 64))
    bad = {"inf": [math.inf], "both infs": [math.inf, 1.0, -math.inf],
           "overflow": [1e308, 1e308, -1e308], "nan": [math.nan, 1.0],
           "past the range": [1e308, 1e308]}
    for first in bad:
        for second in bad:
            vals = np.vstack([clean, clean[:2], clean])
            vals[FEW_ROWS + 3, :3] = 0.0
            vals[FEW_ROWS + 4, :3] = 0.0
            vals[FEW_ROWS + 3, :len(bad[first])] = bad[first]
            vals[FEW_ROWS + 4, :len(bad[second])] = bad[second]
            for block in (vals, vals[FEW_ROWS:]):
                assert _bits(fsum_rows(block)) == _bits(
                    [exact_sum(r) for r in block.tolist()]), (first, second)


def test_row_sums_add_left_to_right(monkeypatch):
    """The block code reduces a transposed copy; each row must still be
    added left to right, which these spreads tell from a pairwise sum.
    The small shapes run again with FEW_ROWS at 2, its least value, so
    that the block code sees them too."""
    rng = np.random.default_rng(3)
    small = [(rows, width) for rows in range(1, 41)
             for width in (0, 1, 2, 9, 64, 300)]
    shapes = small + [(int(rng.integers(FEW_ROWS - 2, 3 * FEW_ROWS)),
                       int(rng.integers(0, 301))) for _ in range(300)]
    pairwise_differs = False
    for few_rows, each in [(FEW_ROWS, shapes), (2, small)]:
        monkeypatch.setattr(seqvec, "FEW_ROWS", few_rows)
        for rows, width in each:
            a = (rng.normal(size=(rows, width))
                 * 2.0 ** rng.integers(-60, 60, (rows, width)))
            want = (np.add.accumulate(a, axis=1)[:, -1] if width
                    else np.zeros(rows))
            assert _row_sums(a).tobytes() == want.tobytes(), (rows, width,
                                                              few_rows)
            pairwise_differs |= (a.sum(axis=1) != want).any()
    assert pairwise_differs


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
        assert got_n[i] == norm(xi, kind)
        assert got_d[i] == distance(xi, yi, kind)


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


def test_rows_of_is_the_explicit_block():
    """Rows.of(*points) is as wide as the furthest stored coordinate, and
    each row holds its point's coordinates, read off its tail past its own
    support: mixed widths, nonzero tails, an empty support, no points."""
    points = [SeqVec(((2, 0.5), (4, -1.0)), 0.25), SeqVec((), -2.0),
              SeqVec(((1, 3.0),)), SeqVec(((1, 1.0), (6, 7.0)), 1.5), SeqVec()]
    block = Rows.of(*points)
    assert np.array_equal(block.vals, np.array([
        [0.25, 0.5, 0.25, -1.0, 0.25, 0.25],
        [-2.0, -2.0, -2.0, -2.0, -2.0, -2.0],
        [3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 1.5, 1.5, 1.5, 1.5, 7.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]))
    assert np.array_equal(block.tail, [0.25, -2.0, 0.0, 1.5, 0.0])
    assert [block.vec(j) for j in range(len(points))] == points
    for empty in (Rows.of(), Rows.of(SeqVec()), Rows.of(SeqVec((), 0.5))):
        assert empty.vals.shape == (len(empty.tail), 0)
    assert Rows.of().tail.shape == (0,)


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
    """On one-row blocks rows_norm and rows_distance agree with norm and
    distance bit for bit, NaN, overflow and errors included."""
    rng = np.random.default_rng(9)
    x = _random_rows(rng, 200, 30, kind.allows_tail)
    y = _random_rows(rng, 200, 18, kind.allows_tail)
    specials = [Rows(np.array([values + [tail] * (3 - len(values))]),
                     np.array([tail])) for values, tail in SPECIAL_ROWS]
    rows = [x.take([i]) for i in range(200)] + specials
    others = [y.take([i]) for i in range(200)] + specials[::-1]
    for a, b in zip(rows, others):
        for got, want in (
                (_outcome(lambda: float(rows_norm(a, kind)[0])),
                 _outcome(norm, a.vec(0), kind)),
                (_outcome(lambda: float(rows_distance(a, b, kind)[0])),
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


# Rules that work on a float and on an array alike: the identity, one that
# gives -0.0 on negative coordinates (and tails), and two that move every
# value.
SHIFT_RULES = [None, lambda v: v * (v > 0.0), abs, lambda v: 2.0 * v - 0.5]


@pytest.mark.parametrize("breadth", [8, 64])
def test_shift_rows_is_shifted_row_by_row(breadth):
    x = ball(1.0, SUP).with_breadth(breadth).sample_rows(breadth, 60)
    assert x.tail.any() and not x.tail.all()
    for rule in SHIFT_RULES:
        f = (lambda v: v) if rule is None else rule
        tail = f(x.tail)
        # heads of length 0 to 2; a head equal to the tail is dropped
        for head in ([], [0.5], [tail], [-0.0, tail], [0.25, 0.0]):
            block = shift_rows(head, f(x.vals), tail)
            for i in range(len(tail)):
                row_head = [float(h[i]) if isinstance(h, np.ndarray) else h
                            for h in head]
                want = shifted(row_head, x.vec(i), float(tail[i]), rule)
                assert block.vec(i) == want
                assert repr(block.vec(i)) == repr(want)  # signs of zeros
    for i in range(len(x.tail)):
        v = x.vec(i)
        assert shift_right(v) == shifted([0.0], v, v.tail)


def _maps():
    return [build_map(name) for name in catalog_names() + retraction_names()]


def test_batch_forms_cover_the_intended_maps():
    have = {T.name for T in _maps() if hasattr(T.apply, "rows")}
    assert have == BATCHED


def _check_block(T, x):
    """apply.rows on x equals apply on each row bit for bit when apply
    accepts every row, and raises a ValueError or ArithmeticError when
    apply rejects one of them.  Returns the count of rejected rows."""
    want = [_outcome(T.apply, v) for v in _points(x)]
    errors = [w for w in want if isinstance(w, tuple)]
    got = _outcome(T.apply.rows, x)
    if errors:
        assert isinstance(got, tuple), T.name
        assert issubclass(got[0], (ValueError, ArithmeticError)), (T.name, got)
        return len(errors)
    for g, w in zip(_points(got), want):
        assert g == w, (T.name, str(w), str(g))
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
    wild = ball(1.0, SUP).with_breadth(T.domain.breadth).sample_rows(rng, 200)
    failures = sum(_check_block(T, wild.take([i])) for i in range(200))
    assert _check_block(T, wild) == failures
    if T.name in ("goebel_kirk", "hyperconvex", "c0_family", "affine_cube",
                  "renormed_l1", "clamp", "radial", "l1_sphere"):
        assert failures > 0, T.name


@pytest.mark.parametrize("T", [T for T in _maps() if T.name in BATCHED],
                         ids=lambda T: T.name)
def test_a_row_holding_inf_maps_as_apply_maps_it(T):
    """A row holding +inf (a poisoned image fed back as the next iterate)
    through the batch form: apply's image row by row, NaN included, or,
    where apply rejects a row, a ValueError or ArithmeticError."""
    x = T.domain.sample_rows(np.random.default_rng(6), 4)
    x.vals[1, 0] = math.inf
    x.vals[2, :2] = [math.inf, 0.0]  # t2 * t1^alpha is 0 * inf
    x.vals[3] = math.inf
    for rows in ([0, 1], [0, 2], [0, 3], [0, 1, 2, 3]):
        block = x.take(rows)
        want = [_outcome(T.apply, v) for v in _points(block)]
        got = _outcome(T.apply.rows, block)
        if any(isinstance(w, tuple) for w in want):
            assert issubclass(got[0], (ValueError, ArithmeticError)), got
        else:
            assert [repr(g) for g in _points(got)] == list(map(repr, want))


def test_replacing_apply_drops_the_batch_form():
    T = build_map("prus")
    U = dataclasses.replace(T, apply=lambda x: x)
    assert hasattr(T.apply, "rows") and not hasattr(U.apply, "rows")


# ---------------------------------------------------------------------------
# the block sampler


def _domains():
    return [ball(1.0, SUP), ball(1.0, L1), ball(0.7, L2), ball(1.0, MPN),
            positive_ball(0.9, L1), positive_ball(0.9, SUP),
            simplex(0.125), simplex(0.5), sub_simplex(0.5),
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


def _deterministic_points():
    """The canonical points of every domain kind and every catalog witness
    family at budget 600, as (label, points) pairs."""
    assert {K.kind for K in _domains()} == set(DOMAIN_KINDS)
    for K in _domains():
        yield K.describe(), list(K.canonical_points())
    for T in _maps():
        if T.witness_family is not None:
            yield T.name, list(T.witness_family(600))


@pytest.mark.parametrize("label, points", list(_deterministic_points()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_rows_of_round_trips_the_deterministic_points(label, points):
    """The block a sampled check takes its deterministic points in gives
    each point back as it was."""
    block = Rows.of(*points)
    assert [block.vec(j) for j in range(len(points))] == points, label


def _pinned_domains():
    return [ball(1.0, SUP), ball(1.0, L1), ball(0.7, L2),
            ball(2.0, NormKind.lp(1.5)), ball(1.0, MPN),
            positive_ball(0.9, L1), positive_ball(0.9, SUP), simplex(0.5),
            sub_simplex(0.5), coefficient_box(1.0), sigma_band(0.125, 0.5),
            c_interval(0.25)]


def _sample_digest(make_rng):
    digest = hashlib.sha256()
    for K in _pinned_domains():
        rng = make_rng()
        for breadth in (1, 2, 8, 64, 384):
            for count in (1, 3, 17, 256):
                x = K.with_breadth(breadth).sample_rows(rng, count)
                digest.update(x.vals.tobytes())
                digest.update(x.tail.tobytes())
    return digest.hexdigest()


class _TiedKeys(np.random.Generator):
    """A Generator whose support keys take three values, so most rows of
    a block tie at their support cut."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size)
        if isinstance(size, tuple) and size[1] >= 5:
            b = (size[1] - 3) // 2
            u[:, 1:b + 1] = np.floor(u[:, 1:b + 1] * 3.0) / 3.0
        return u


def test_sample_rows_blocks_are_pinned():
    """Every bit of the drawn blocks, for every kind, as first recorded;
    a faster sampler must draw the same blocks."""
    assert {K.kind for K in _pinned_domains()} == set(DOMAIN_KINDS)
    assert _sample_digest(lambda: np.random.default_rng(19)) == (
        "79f6a3eaf98c043d0b4f7cf76e6c13a5db58d066c77a7a860397e869f46332f0")


def test_a_tie_at_the_support_cut_keeps_the_key_order_support():
    u = _TiedKeys(np.random.PCG64(19)).random((256, 19))
    size = np.minimum((u[:, 0] * 8).astype(np.int64), 7) + 1
    keys = np.sort(u[:, 1:9], axis=1)
    at_cut = keys[np.arange(256), size - 1]
    assert (at_cut[size < 8] == keys[size < 8, size[size < 8]]).any()
    assert _sample_digest(lambda: _TiedKeys(np.random.PCG64(19))) == (
        "58f64c095bf8e147f51224380173fb124057ab74927a38b16f595087ec49d62f")


class _FlatValues(np.random.Generator):
    """A Generator whose value uniforms are all 0.5, so every value a ball
    draws, -1 + 2 * 0.5, is zero."""

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size)
        b = (size[1] - 3) // 2
        u[:, b + 1:2 * b + 1] = 0.5
        return u


def test_a_ball_draw_with_no_direction_lands_on_axis_1():
    K = ball(0.75, NormKind.lp(2.0)).with_breadth(8)
    x = K.sample_rows(_FlatValues(np.random.PCG64(5)), 17)
    extra = _FlatValues(np.random.PCG64(5)).random((17, 19))[:, 17]
    assert np.array_equal(x.vals[:, 0], 0.75 * extra)
    assert not np.count_nonzero(x.vals[:, 1:])
    assert not np.count_nonzero(x.tail)
    assert K.contains_rows(x).all()


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


def test_blocks_that_double_in_width_stay_bounded():
    """deficiency doubles a row's width each step: its pair blocks break the
    growth rule at step 2 and go by points, and approx_fixed_set, whose
    second image is four times as wide as a draw, sizes its blocks at half
    of it.  The batch form fails the test on a block wider than that
    before it allocates an image, so a broken rule cannot run away with
    memory."""
    T = build_map("deficiency")
    limit = 2 * T.domain.breadth

    def apply(x):
        return T.apply(x)

    def rows(x):
        assert x.width <= limit, f"a {x.width}-column block"
        return T.apply.rows(x)

    apply.rows = rows
    guarded = dataclasses.replace(T, apply=apply)
    steps = tuple(range(1, 21))
    assert _peak_mb(lambda: pair_ratios(guarded, steps, 40, seed=1)) < 16.0
    req = CheckRequest("approx_fixed_set", samples=500)
    assert _peak_mb(lambda: run_check(guarded, req, 1)) < 16.0


@pytest.mark.parametrize("breadth", [64, 11])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_every_block_a_batch_form_is_handed_keeps_the_growth_rule(name,
                                                                  breadth):
    """Pair blocks, one-step and two-step images, and the deterministic
    points of sample_min: no block a batch form receives holds more than
    twice BLOCK_ELEMENTS values, whatever the map does to a row's width.
    Without the pair kernel's growth-rule check, deficiency's pair blocks
    would pass that bound at iterate 4."""
    T = build_map(name, breadth=breadth)
    sizes = [0]

    def apply(x):
        return T.apply(x)

    def rows(x):
        sizes.append(x.vals.size)
        return T.apply.rows(x)

    apply.rows = rows
    recorded = dataclasses.replace(T, apply=apply)
    draws = 300
    reqs = [CheckRequest("holder_ratio", pairs=draws, iterate=n)
            for n in (1, 2, 4)]
    reqs += [CheckRequest("invariance", samples=draws),
             CheckRequest("approx_fixed_set", samples=draws),
             CheckRequest("displacement", strategy="sample_min", budget=64)]
    if T.claims.uniform:
        reqs.append(CheckRequest("uniform_profile", pairs=draws))
    if T.claims.asymptotic_profile is not None:
        reqs.append(CheckRequest("asymptotic_profile", pairs=draws))
    for req in reqs:
        run_check(recorded, req, 1)
    assert max(sizes) <= 2 * BLOCK_ELEMENTS, max(sizes)


def _record(T, req, seed=3):
    """The record of one check, or what it raised; the runtime is not part
    of it."""
    rec = _outcome(run_check, T, req, seed)
    return rec if isinstance(rec, tuple) else dataclasses.replace(
        rec, runtime_ms=0.0)


def _stripped(T):
    """T with its batch form dropped: every check walks it point by point."""
    return dataclasses.replace(T, apply=lambda x: T.apply(x))


@pytest.mark.parametrize("T", [T for T in _maps() if T.name in BATCHED],
                         ids=lambda T: T.name)
def test_records_do_not_depend_on_the_batch_form(T):
    """Stripping the batch form leaves every sup, witness and record as it
    was: block and scalar code sum the same norms in the same order."""
    scalar = _stripped(T)
    assert not hasattr(scalar.apply, "rows")
    assert (_outcome(pair_ratios, T, (1, 2, 3), 1000, 3)
            == _outcome(pair_ratios, scalar, (1, 2, 3), 1000, 3))
    for req in [CheckRequest("holder_ratio"),
                CheckRequest("approx_fixed_set"), CheckRequest("invariance"),
                CheckRequest("displacement", strategy="sample_min",
                             budget=300)]:
        assert _record(T, req) == _record(scalar, req)


def _poisoned(T):
    """T, but T x is NaN wherever x_1 > 0.3, in both forms."""
    def apply(x):
        return (SeqVec.from_dict({1: math.nan}) if coordinate(x, 1) > 0.3
                else T.apply(x))

    def rows(x):
        y = T.apply.rows(x)
        return Rows(np.where(x.vals[:, :1] > 0.3, math.nan, y.vals), y.tail)

    apply.rows = rows
    return dataclasses.replace(T, apply=apply)


@pytest.mark.parametrize("T", [build_map("shift_simplex"), build_map("prus"),
                               _poisoned(build_map("prus")),
                               _stripped(build_map("deficiency"))],
                         ids=["shift_simplex", "prus", "poisoned", "scalar"])
def test_sample_min_is_the_first_least_point(T):
    """sample_min's block walk gives the value, witness and evaluation count
    of a point by point walk over the same points: the canonical points,
    the witness family, then the draws, a NaN counting as +inf."""
    budget, seed = 300, 4
    points = list(T.domain.canonical_points())
    if T.witness_family is not None:
        points += list(T.witness_family(budget))
    draws = T.domain.sample_rows(as_rng(seed), budget - len(points))
    points += [draws.vec(j) for j in range(len(draws.tail))]
    d = [T.displacement(x) for x in points]
    d = [math.inf if v != v else v for v in d]
    j = d.index(min(d))
    est = estimate_displacement(T, "sample_min", budget, seed)
    assert (est.value, est.witness, est.evaluations) == (d[j], points[j],
                                                         budget)


OUTSIDE = [ball(1.0, SUP), c_interval(0.5), coefficient_box(0.1),
           ball(2.0, L1)]
SAMPLED = [CheckRequest("holder_ratio", pairs=200),
           CheckRequest("invariance", samples=200),
           CheckRequest("approx_fixed_set", samples=200),
           CheckRequest("displacement", strategy="sample_min", budget=200)]


@pytest.mark.parametrize("name", ["c0_family", "l1_sphere", "renormed_l1",
                                  "goebel_kirk", "hyperconvex"])
def test_errors_reported_are_those_of_apply(name):
    """On domains whose draws leave the map's definition, a check gives the
    same record, or raises the same error class and message, with the batch
    form as without it: a block that raises is walked again point by
    point, so the error reported is apply's on the first rejected draw."""
    raised = 0
    for K in OUTSIDE:
        T = dataclasses.replace(build_map(name), domain=K)
        for req in SAMPLED:
            for seed in (1, 2, 3):
                got = _record(T, req, seed)
                assert got == _record(_stripped(T), req, seed), (K, req, seed)
                raised += isinstance(got, tuple)
    assert raised > 0
