"""Kernel tests: canonical form, coordinates, norms, linear ops, literals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderlab.errors import InvalidIndexError, NotInSpaceError
from holderlab.seqvec import (
    NORM_VARIANTS,
    ZERO,
    NormKind,
    SeqVec,
    axpy,
    basis_vector,
    c_basis_coefficients,
    coordinate,
    distance,
    exact_sum,
    format_vec,
    norm,
    parse_vec,
    reconstruct_from_c_basis,
    scale,
    shift_right,
    shifted,
    tail_limit,
)
from holderlab.seqvec import _measure

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)
MPN = NormKind.max_pos_neg_l1()


finite_values = st.floats(min_value=-4.0, max_value=4.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def vectors(draw, tail_zero=False, values=finite_values):
    entries = draw(st.dictionaries(st.integers(1, 50), values, max_size=8))
    tail = 0.0 if tail_zero else draw(values)
    return SeqVec.from_dict(entries, tail)


def random_vec(rng, max_index=40, tail_zero=True, spread=2.0):
    size = int(rng.integers(0, 9))
    idx = rng.integers(1, max_index + 1, size=size)
    vals = rng.uniform(-spread, spread, size=size)
    tail = 0.0 if tail_zero else float(rng.uniform(-spread, spread))
    return SeqVec.from_dict(
        {int(i): float(v) for i, v in zip(idx, vals)}, tail
    )


# ---------------------------------------------------------------------------
# canonical form


def test_from_dict_sorts_and_drops_tail_entries():
    x = SeqVec.from_dict({3: 1.0, 1: 0.25, 7: 0.25}, 0.25)
    assert x.support == ((3, 1.0),)
    assert x.tail == 0.25
    assert x.is_canonical()


def test_from_dict_normalizes_negative_zero():
    x = SeqVec.from_dict({1: -0.0, 2: 1.0}, -0.0)
    assert x == SeqVec.from_dict({2: 1.0}, 0.0)
    assert repr(x.tail) == "0.0"
    assert x.support == ((2, 1.0),)


def test_from_dict_rejects_bad_index():
    with pytest.raises(InvalidIndexError):
        SeqVec.from_dict({0: 1.0})
    with pytest.raises(InvalidIndexError):
        SeqVec.from_dict({-3: 1.0})


def test_from_dict_names_its_least_index_and_stores_floats():
    with pytest.raises(InvalidIndexError, match="index -3 is below 1"):
        SeqVec.from_dict({0: 1.0, 2: 1.0, -3: 1.0})
    assert repr(SeqVec.from_dict({1: 1}).support) == "((1, 1.0),)"


def test_every_builder_stores_plus_zero_on_a_nonzero_tail():
    x = SeqVec.from_dict({1: 0.0}, 1.0)
    assert [repr(v) for _, v in scale(-1.0, x).support] == ["0.0"]
    y = shifted([-0.0], x, 1.0, lambda v: -v)
    assert [repr(v) for _, v in y.support] == ["0.0", "0.0"]
    assert shifted([-0.0], x, 0.0, lambda v: -v) == ZERO


def test_is_canonical_rejects_unsorted_support_and_tail_values():
    assert not SeqVec(((2, 1.0), (1, 1.0))).is_canonical()
    assert not SeqVec(((1, 1.0), (1, 2.0))).is_canonical()
    assert not SeqVec(((1, 0.5),), 0.5).is_canonical()
    assert SeqVec(((1, 0.5),), 0.25).is_canonical()


def test_renormalizing_is_idempotent():
    x = SeqVec.from_dict({2: 0.5, 9: -1.0}, 0.125)
    again = SeqVec.from_dict(dict(x.support), x.tail)
    assert again == x


@given(vectors())
def test_from_dict_output_is_canonical(x):
    assert x.is_canonical()


@given(st.dictionaries(st.integers(1, 50), finite_values, max_size=8),
       finite_values)
def test_from_sorted_matches_from_dict(entries, tail):
    via_dict = SeqVec.from_dict(entries, tail)
    via_sorted = SeqVec.from_sorted(sorted(entries.items()), tail)
    assert via_dict == via_sorted


@given(vectors(), vectors())
def test_structural_equality_is_coordinatewise(x, y):
    same_coords = all(
        coordinate(x, i) == coordinate(y, i) for i in range(1, 60)
    ) and x.tail == y.tail
    assert (x == y) == same_coords


# ---------------------------------------------------------------------------
# coordinates and tails


def test_coordinate_rules():
    x = SeqVec.from_dict({1: 0.5}, 0.25)
    assert coordinate(x, 7) == 0.25
    y = SeqVec.from_dict({2: 1.0}, 0.0)
    assert coordinate(y, 1) == 0.0
    with pytest.raises(InvalidIndexError):
        coordinate(x, 0)


def test_tail_limit():
    ones_then_zero = SeqVec.from_dict({i: 1.0 for i in range(1, 6)}, 0.0)
    assert tail_limit(ones_then_zero) == 0.0
    assert tail_limit(SeqVec.from_dict({}, 1.0)) == 1.0
    assert tail_limit(SeqVec.from_dict({1: 0.3}, 0.25)) == 0.25


# ---------------------------------------------------------------------------
# norms


def test_norm_examples():
    assert norm(SeqVec.from_dict({1: 1.0, 2: -1.0}), MPN) == 1.0
    assert norm(SeqVec.from_dict({1: 0.6, 2: 0.3}), L1) == 0.6 + 0.3
    assert norm(SeqVec.from_dict({1: 0.9}, 0.25), SUP) == 0.9
    assert norm(SeqVec.from_dict({}, 0.25), SUP) == 0.25


def test_lp_and_mpn_need_zero_tail():
    x = SeqVec.from_dict({1: 1.0}, 0.5)
    for kind in (L1, L2, MPN):
        with pytest.raises(NotInSpaceError):
            norm(x, kind)


def test_norm_and_distance_overflow_to_inf():
    # Finite coordinates whose lp / mpn sums pass the float range: l1 and
    # mpn norms beyond the largest float are inf, lp norms for p > 1 that
    # fit in a float come out finite.
    big = SeqVec.from_dict({1: 1e308, 2: 1e308})
    half = SeqVec.from_dict({1: 1e154, 2: 1e154})
    for kind in (L1, MPN):
        assert norm(big, kind) == math.inf
        assert distance(big, ZERO, kind) == math.inf
    for kind, true in ((L2, math.sqrt(2.0) * 1e308),
                       (NormKind.lp(3.0), 2.0 ** (1.0 / 3.0) * 1e308)):
        assert math.isclose(norm(big, kind), true, rel_tol=1e-15)
        assert math.isclose(distance(big, ZERO, kind), true, rel_tol=1e-15)
    assert math.isclose(norm(half, L2), math.sqrt(2.0) * 1e154, rel_tol=1e-15)
    # past the float range even after scaling
    assert norm(SeqVec.from_dict({1: 1.7e308, 2: 1.7e308}), L2) == math.inf


@pytest.mark.parametrize("kind", [SUP, L1, L2, NormKind.lp(3.0), MPN],
                         ids=lambda k: k.label())
def test_nan_values_and_tails_give_nan(kind):
    nan = math.nan
    for x in (SeqVec.from_dict({1: 0.5, 2: nan, 3: -0.25}),
              SeqVec.from_dict({1: nan, 2: 2.0}),
              SeqVec.from_dict({1: -nan}),
              SeqVec.from_dict({1: 1e308, 2: 1e308, 3: nan}),
              SeqVec((), nan)):
        assert math.isnan(norm(x, kind)), x
        assert math.isnan(distance(x, ZERO, kind)), x
        assert math.isnan(distance(ZERO, x, kind)), x


def test_norm_variants_table_drives_norm_kind():
    assert {k: (v.takes_p, v.allows_tail)
            for k, v in NORM_VARIANTS.items()} == {
        "sup": (False, True), "lp": (True, False),
        "max_pos_neg_l1": (False, False)}
    assert [k.label() for k in (SUP, L1, NormKind.lp(2.5), MPN)] == [
        "sup", "l1", "l2.5", "max(pos,neg) l1"]
    assert [k.allows_tail for k in (SUP, L2, MPN)] == [True, False, False]
    with pytest.raises(ValueError):
        NormKind(["sup"])


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind.lp(0.5)
    with pytest.raises(ValueError):
        NormKind("sup", p=2.0)
    with pytest.raises(ValueError):
        NormKind("nonsense")


@pytest.mark.parametrize("kind,tail_zero,seed", [
    (SUP, False, 101),
    (L1, True, 102),
    (L2, True, 103),
    (MPN, True, 104),
], ids=["sup", "l1", "l2", "max_pos_neg_l1"])
def test_norm_axioms_on_sampled_pairs(kind, tail_zero, seed):
    """Nonnegativity/definiteness, absolute homogeneity to 1e-14 relative,
    and the triangle inequality to 1e-12 absolute, on 10^4 sampled pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        x = random_vec(rng, tail_zero=tail_zero)
        y = random_vec(rng, tail_zero=tail_zero)
        nx, ny = norm(x, kind), norm(y, kind)
        assert nx >= 0.0
        assert (nx == 0.0) == (x == ZERO)
        a = float(rng.uniform(-3.0, 3.0))
        na = norm(scale(a, x), kind)
        assert abs(na - abs(a) * nx) <= 1e-14 * max(1.0, abs(a) * nx)
        ns = norm(axpy(1.0, x, 1.0, y), kind)
        assert ns <= nx + ny + 1e-12


def test_mpn_sandwiched_by_l1():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x = random_vec(rng, tail_zero=True)
        m = norm(x, MPN)
        l1 = norm(x, L1)
        slack = 1e-15 * max(1.0, l1)
        assert m <= l1 + slack
        assert l1 <= 2.0 * m + slack


def test_distance_sup_sees_tail_difference():
    x = SeqVec.from_dict({}, 0.5)
    y = SeqVec.from_dict({1: 0.5}, 0.0)
    assert distance(x, y, SUP) == 0.5


def test_distance_lp_rejects_tail_mismatch():
    x = SeqVec.from_dict({}, 0.5)
    with pytest.raises(NotInSpaceError):
        distance(x, ZERO, L1)
    # equal nonzero tails cancel, so the difference is back in the space
    y = SeqVec.from_dict({1: 0.25}, 0.5)
    assert distance(x, y, L1) == 0.25


def _distance_by_dicts(x, y, kind):
    """distance as written before the support merge, with dict lookups;
    the differences in index order, the order the norms sum in."""
    dx, dy = dict(x.support), dict(y.support)
    diffs = [dx.get(i, x.tail) - dy.get(i, y.tail)
             for i in sorted(dx.keys() | dy.keys())]
    return _measure(diffs, x.tail - y.tail, kind,
                    "distance needs equal tails, got difference")


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))
    return "nan" if result != result else result


def _random_vec(rng, index, tails):
    special = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0]
    values = rng.normal(size=len(index)) * 10.0 ** rng.integers(-3, 4)
    values = [special[rng.integers(len(special))] if rng.random() < 0.05
              else v for v in values.tolist()]
    tail = 0.0
    if tails and rng.random() < 0.6:
        tail = ([math.nan, math.inf, 0.5][rng.integers(3)]
                if rng.random() < 0.1 else float(rng.normal()))
    return SeqVec.from_dict(dict(zip(index, values)), tail)


@pytest.mark.parametrize("kind", [SUP, L1, L2, NormKind.lp(3.0), MPN],
                         ids=lambda k: k.label())
def test_distance_merge_equals_the_dict_formulation(kind):
    """The merge over sorted supports gives the old dict formulation's
    result or exception bit for bit: overlapping, disjoint and nested
    supports, tails, NaN, +-inf and values whose sums overflow."""
    rng = np.random.default_rng(17)
    shapes = ["overlap", "disjoint", "nested", "beyond", "empty"]
    for trial in range(1500):
        shape = shapes[trial % len(shapes)]
        width = int(rng.integers(1, 60))
        xi = sorted(set(rng.integers(1, width + 1, width).tolist()))
        if shape == "overlap":
            yi = sorted(set(rng.integers(1, width + 1, width).tolist()))
        elif shape == "disjoint":
            xi, yi = xi[::2], xi[1::2]
        elif shape == "nested":
            yi = xi[::3]
        elif shape == "beyond":
            yi = [i + width for i in xi]
        else:
            yi = []
        tails = trial % 2 == 0
        x, y = _random_vec(rng, xi, tails), _random_vec(rng, yi, tails)
        for a, b in ((x, y), (y, x)):
            assert (_outcome(distance, a, b, kind)
                    == _outcome(_distance_by_dicts, a, b, kind)), (a, b)


@given(vectors(), vectors())
def test_distance_is_symmetric(x, y):
    assert distance(x, y, SUP) == distance(y, x, SUP)
    assert distance(x, x, SUP) == 0.0


# ---------------------------------------------------------------------------
# linear operations


def test_axpy_examples():
    e1 = basis_vector(1)
    assert axpy(1.0, e1, -1.0, e1) == ZERO
    half = axpy(0.5, e1, 0.5, basis_vector(2))
    assert half == SeqVec.from_dict({1: 0.5, 2: 0.5})
    ones = SeqVec.from_dict({}, 1.0)
    dip = SeqVec.from_dict({1: 0.0}, 1.0)
    diff = axpy(1.0, ones, -1.0, dip)
    assert diff == SeqVec.from_dict({1: 1.0}, 0.0)


@given(vectors(), vectors(),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_axpy_is_coordinatewise(x, y, a, b):
    z = axpy(a, x, b, y)
    assert z.tail == a * x.tail + b * y.tail
    for i in list(dict(x.support)) + list(dict(y.support)) + [59]:
        assert coordinate(z, i) == a * coordinate(x, i) + b * coordinate(y, i)


@given(vectors())
def test_scale_edge_cases(x):
    assert scale(1.0, x) == x
    assert scale(0.0, x) == ZERO


def test_shift_right_moves_support_and_keeps_tail():
    x = SeqVec.from_dict({1: 0.6, 2: 0.3}, 0.0)
    assert shift_right(x) == SeqVec.from_dict({2: 0.6, 3: 0.3}, 0.0)
    assert norm(shift_right(x), L1) == norm(x, L1)
    withtail = SeqVec.from_dict({1: 0.3}, 0.25)
    s = shift_right(withtail)
    assert coordinate(s, 1) == 0.0
    assert coordinate(s, 2) == 0.3
    assert s.tail == 0.25


# ---------------------------------------------------------------------------
# basis coefficients against the all-ones sequence


def test_c_basis_examples():
    t, coeffs = c_basis_coefficients(SeqVec.from_dict({}, 1.0))
    assert t == 1.0 and coeffs == ZERO
    t, coeffs = c_basis_coefficients(basis_vector(1))
    assert t == 0.0 and coeffs == basis_vector(1)
    t, coeffs = c_basis_coefficients(SeqVec.from_dict({1: 0.0}, 1.0))
    assert t == 1.0 and coeffs == SeqVec.from_dict({1: -1.0})


dyadic_values = st.integers(min_value=-(2 ** 22), max_value=2 ** 22).map(
    lambda k: k / 2 ** 20
)


@given(vectors(values=dyadic_values))
def test_c_basis_round_trip_exact_on_dyadics(x):
    """On a dyadic grid the subtraction v - tail is exact, so the round trip
    is bit-for-bit."""
    t, coeffs = c_basis_coefficients(x)
    assert t == x.tail
    assert coeffs.tail == 0.0
    assert reconstruct_from_c_basis(t, coeffs) == x


@given(vectors())
def test_c_basis_round_trip_close_in_general(x):
    t, coeffs = c_basis_coefficients(x)
    back = reconstruct_from_c_basis(t, coeffs)
    assert back.tail == x.tail
    for i in range(1, 55):
        v, w = coordinate(x, i), coordinate(back, i)
        assert abs(v - w) <= 4 * math.ulp(max(abs(v), abs(t)))


# ---------------------------------------------------------------------------
# exact_sum


def test_exact_sum_where_fsum_raises():
    # a partial sum overflows, the total does not
    assert exact_sum([1e308, 1e308, -1e308]) == 1e308
    assert exact_sum([1e308, 1e308]) == math.inf
    assert exact_sum([-1e308, -1e308, 1.0]) == -math.inf
    assert math.isnan(exact_sum([math.inf, -math.inf]))
    assert math.isnan(exact_sum([math.nan, math.inf, -math.inf]))
    assert math.isnan(exact_sum([1e308, 1e308, math.nan]))
    # the infinity fsum would give but for the overflow of the finite terms
    assert exact_sum([math.inf, 1e308, 1e308]) == math.inf
    assert exact_sum([-math.inf, -1e308, -1e308, 1.0]) == -math.inf


_SUM_TERMS = st.lists(st.one_of(
    st.floats(),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -0.0,
                     math.inf, -math.inf])), max_size=8)


@given(_SUM_TERMS)
def test_exact_sum_is_fsum_bit_for_bit_or_its_stated_value(values):
    """math.fsum's value bit for bit wherever fsum returns one; elsewhere
    NaN for a NaN term or infinities of both signs, the infinity every
    infinite term shares, or the exact sum of the terms rounded once."""
    got = exact_sum(values)
    try:
        want = math.fsum(values)
    except (OverflowError, ValueError):
        infinite = {v for v in values if math.isinf(v)}
        if any(v != v for v in values) or len(infinite) > 1:
            assert got != got
            return
        if infinite:
            assert got == infinite.pop()
            return
        total = sum(map(Fraction, values))
        try:
            want = float(total)
        except OverflowError:
            want = math.inf if total > 0 else -math.inf
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# literals


def test_format_examples():
    assert format_vec(SeqVec.from_dict({1: 0.5})) == "{1:0.5}"
    assert format_vec(SeqVec.from_dict({1: 0.5}, 0.25)) == "{1:0.5; tail:0.25}"
    assert format_vec(ZERO) == "{}"


@given(vectors())
def test_literal_round_trip(x):
    assert parse_vec(format_vec(x)) == x


@pytest.mark.parametrize("bad", [
    "1:2",
    "{1:0.5",
    "{2:1, 1:3}",
    "{1:1, 1:2}",
    "{1}",
    "{1:1; 0.5}",
])
def test_parse_rejects_malformed_literals(bad):
    with pytest.raises(ValueError):
        parse_vec(bad)


def test_parse_rejects_bad_index():
    with pytest.raises(InvalidIndexError):
        parse_vec("{0:1.0}")
