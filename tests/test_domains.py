"""Domain membership, sampling, and convexity checks."""

import math
import warnings

import numpy as np
import pytest

from holderlab.catalog import build_map, catalog_names, retraction_names
from holderlab.domains import (
    DOMAIN_KINDS,
    DomainSpec,
    ball,
    c_interval,
    coefficient_box,
    positive_ball,
    sigma_band,
    simplex,
    sub_simplex,
)
from holderlab.errors import InvalidBudgetError, InvalidParameterError
from holderlab.retractions import l1_sphere_rows, radial_rows
from holderlab.seqvec import (
    ZERO,
    NormKind,
    Rows,
    SeqVec,
    axpy,
    basis_vector,
    distance,
    norm,
    rows_norm,
)

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)
MPN = NormKind.max_pos_neg_l1()


def all_domains():
    """One representative per shape, plus each ball norm variant."""
    return [
        ball(1.0, SUP),
        ball(1.0, L1),
        ball(0.7, L2),
        ball(1.0, MPN),
        positive_ball(0.9, L1),
        simplex(0.125),
        sub_simplex(0.5),
        coefficient_box(1.0),
        sigma_band(0.125, 0.5),
        c_interval(0.25),
    ]


NATURAL_NORM = {
    "simplex": L1,
    "sub_simplex": L1,
    "coefficient_box": SUP,
    "sigma_band": SUP,
    "c_interval": SUP,
}


# ---------------------------------------------------------------------------
# membership examples


def test_simplex_contains_single_spike():
    K = simplex(0.125)
    assert K.contains(basis_vector(1, 0.125))
    assert K.contains(basis_vector(2, 0.125))
    assert not K.contains(basis_vector(1, 0.25))
    assert not K.contains(SeqVec.from_dict({1: 0.25, 2: -0.125}))
    assert not K.contains(SeqVec.from_dict({}, 0.125))


def test_c_interval_examples():
    K = c_interval(0.25)
    assert K.contains(ZERO)
    assert K.contains(SeqVec.from_dict({}, 0.25))
    assert K.contains(SeqVec.from_dict({1: 0.25}, 0.125))
    assert not K.contains(SeqVec.from_dict({1: 0.30}))
    assert not K.contains(SeqVec.from_dict({1: -0.1}))
    assert not K.contains(SeqVec.from_dict({}, -0.25))


def test_sup_ball_admits_nonzero_tail_but_lp_ball_does_not():
    assert ball(1.0, SUP).contains(SeqVec.from_dict({}, 0.5))
    assert not ball(1.0, L1).contains(SeqVec.from_dict({}, 0.5))


def test_positive_ball_rejects_negative_coordinates():
    K = positive_ball(0.9, L1)
    assert K.contains(basis_vector(1, 0.9))
    assert not K.contains(basis_vector(1, -0.5))


def test_sub_simplex_membership():
    K = sub_simplex(0.5)
    assert K.contains(ZERO)
    assert K.contains(SeqVec.from_dict({1: 0.25, 3: 0.25}))
    assert not K.contains(SeqVec.from_dict({1: 0.6}))
    assert not K.contains(SeqVec.from_dict({1: -0.1, 2: 0.2}))


def test_coefficient_box_membership():
    K = coefficient_box(1.0)
    assert K.contains(SeqVec.from_dict({1: 1.0, 5: 0.25}))
    assert not K.contains(SeqVec.from_dict({1: 1.1}))
    assert not K.contains(SeqVec.from_dict({1: 0.5}, 0.25))


def test_sigma_band_truncation_semantics():
    K = sigma_band(0.125, 0.5)
    top = 1.0 - 0.125
    # the geometric witness (1-delta)^i sits above the floor q^i everywhere
    geo = SeqVec.from_dict({i: top ** i for i in range(1, K.breadth + 1)})
    assert K.contains(geo)
    # first coordinate is pinned to 1 - delta
    assert not K.contains(SeqVec.from_dict({1: 0.5}))
    # dropping an early coordinate puts it below the band floor
    assert not K.contains(SeqVec.from_dict({1: top}))
    # the band lives among tail-0 vectors
    bad = SeqVec.from_dict(dict(geo.support), 0.25)
    assert not K.contains(bad)
    # exceeding the ceiling on any tracked coordinate fails
    over = dict(geo.support)
    over[3] = top + 1e-6
    assert not K.contains(SeqVec.from_dict(over))


# {10**15: v} on every kind: (domain, v, whether it is a member); only
# sigma_band reads an index, and its coordinate 1 is then 0
_FAR = [
    (ball(1.0, SUP), -1.0, True), (ball(1.0, SUP), 1.5, False),
    (ball(1.0, L1), 0.5, True), (ball(1.0, L1), -1.25, False),
    (ball(0.7, L2), 0.7, True), (ball(0.7, L2), 0.75, False),
    (ball(1.0, MPN), -0.5, True), (ball(1.0, MPN), 2.0, False),
    (positive_ball(0.9, L1), 0.9, True), (positive_ball(0.9, L1), -0.5, False),
    (simplex(0.125), 0.125, True), (simplex(0.125), 0.25, False),
    (sub_simplex(0.5), 0.5, True), (sub_simplex(0.5), 0.625, False),
    (coefficient_box(1.0), 1.0, True), (coefficient_box(1.0), -0.5, False),
    (sigma_band(0.125, 0.5), 0.875, False),
    (c_interval(0.25), 0.25, True), (c_interval(0.25), 0.5, False),
]


@pytest.mark.parametrize("K, v, member", _FAR, ids=lambda a: (
    a.describe() if isinstance(a, DomainSpec) else None))
def test_a_far_index_point_is_a_member_as_its_value_says(K, v, member):
    x = SeqVec(((10**15, v),))
    assert K.contains(x) is member
    # the block holds the one support value, or sigma_band's breadth
    assert K.pack([x]).width == (K.breadth if K.kind == "sigma_band" else 1)


def test_a_deficiency_iterate_past_two_to_the_700_is_a_member():
    """deficiency walks 0 to r e_1, r e_2, r e_4, ...: one coordinate whose
    index doubles each step."""
    T = build_map("deficiency")
    x = ZERO
    for _ in range(702):
        x = T.apply(x)
    assert len(x.support) == 1 and x.support[0][0] > 2**700
    assert T.domain.contains(x) is True
    assert T.domain.contains(axpy(2.0, x, 0.0, ZERO)) is False
    assert simplex(x.support[0][1]).contains(x) is True
    assert c_interval(0.03125).contains(x) is False
    # rows of one block padded to the widest support, each with its answer
    points = [x, ZERO, SeqVec.from_dict({1: 0.03, 5: 0.03}),
              axpy(0.5, x, 1.0, basis_vector(3, 0.06))]
    assert T.domain.pack(points).vals.shape == (4, 2)
    assert T.domain.contains_rows(T.domain.pack(points)).tolist() == [
        True, True, True, False]


def test_a_band_point_is_read_only_up_to_its_breadth():
    K = sigma_band(0.125, 0.5, breadth=8)
    band = {i: 0.875 ** i for i in range(1, 9)}
    assert K.contains(SeqVec.from_dict({**band, 9: 5.0, 10**15: -3.0})) is True
    assert K.contains(SeqVec.from_dict({**band, 8: 0.0, 9: 0.5})) is False
    assert K.pack([SeqVec.from_dict({**band, 10**15: 1.0}),
                   basis_vector(1, 0.875)]).vals.shape == (2, 8)


def test_sigma_chain_decays_geometrically():
    K = sigma_band(0.125, 0.5)
    top = 1.0 - 0.125
    for i in range(1, K.breadth):
        assert K.sigma(i + 1) <= top * K.sigma(i)


# ---------------------------------------------------------------------------
# factory validation


@pytest.mark.parametrize("build", [
    lambda: ball(0.0, L1),
    lambda: ball(-1.0, SUP),
    lambda: positive_ball(0.0, L1),
    lambda: simplex(float("nan")),
    lambda: simplex(0.0),
    lambda: sub_simplex(0.0),
    lambda: coefficient_box(0.0),
    lambda: sigma_band(0.0, 0.5),
    lambda: sigma_band(1.0, 0.5),
    lambda: sigma_band(0.5, 0.6),
    lambda: sigma_band(0.5, 0.0),
    lambda: c_interval(0.0),
    lambda: DomainSpec(kind="pentagon"),
    lambda: DomainSpec("ball", r=1.0),
    lambda: DomainSpec("ball", r=float("inf"), norm=L2),
    lambda: ball(True, L2),
    lambda: coefficient_box(1.0, tol=float("inf")),
    lambda: DomainSpec("simplex", mass=1.0, r=1.0),
])
def test_factories_reject_bad_parameters(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_breadth_below_one_is_rejected():
    with pytest.raises(InvalidBudgetError):
        ball(1.0, L1, breadth=0)
    with pytest.raises(InvalidBudgetError):
        ball(1.0, L1).with_breadth(0)


def test_with_breadth_returns_adjusted_copy():
    K = coefficient_box(1.0)
    K8 = K.with_breadth(8)
    assert K8.breadth == 8
    assert K.breadth == 64
    assert K8.kind == K.kind


# ---------------------------------------------------------------------------
# canonical points and sampling


@pytest.mark.parametrize("K", all_domains(), ids=lambda K: K.kind)
def test_canonical_points_are_members(K):
    pts = K.canonical_points()
    assert pts
    for x in pts:
        assert K.contains(x), f"{K.describe()} excludes {x}"


def test_sampling_is_deterministic_per_seed():
    for K in all_domains():
        assert K.sample(42) == K.sample(42)
        assert K.sample(42) != K.sample(43)


def test_sample_respects_breadth_override():
    K = coefficient_box(1.0)
    for s in range(50):
        x = K.with_breadth(5).sample(s)
        assert all(i <= 5 for i, _ in x.support)


def test_samples_land_in_domain():
    """sample-then-contains over 10^5 draws spread across every kind, drawn
    as blocks of rows; every row goes through Rows.vec and pack, and each
    kind's draws are checked in one contains_rows call."""
    domains = all_domains()
    per = 100_000 // len(domains)
    for K in domains:
        rng = np.random.default_rng(2024)
        block = K.sample_rows(rng, per)
        inside = K.contains_rows(K.pack([block.vec(i) for i in range(per)]))
        assert inside.all(), (K.describe(), np.flatnonzero(~inside)[:5])


def test_a_sub_simplex_draw_of_mass_zero_stays_zero():
    """A mass cap of 5e-324 makes mass_cap * u round to 0 for u < 1/2, so
    some rows have a zero total and are rescaled by none."""
    rng = np.random.default_rng(9)
    K = sub_simplex(5e-324)
    x = K.sample_rows(rng, 256)
    zero = ~x.vals.any(axis=1)
    assert 0 < zero.sum() < 256
    assert K.contains_rows(x).all()


@pytest.mark.parametrize("make", [ball, positive_ball],
                         ids=["ball", "positive_ball"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_ball_draws_at_the_largest_float_are_members(make, p):
    """At radius 1.797e308, rho / n passes the float range for rows whose
    direction norm n is below 1; those rows divide before they scale, and
    every row is a member, with no warning."""
    K = make(1.7976931348623157e308, NormKind.lp(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = K.sample_rows(np.random.default_rng(3), 2000)
        assert K.contains_rows(x).all()
    assert np.isfinite(x.vals).all()


def test_convex_combinations_stay_inside():
    """10^4 sampled (x, y, t) triples across every kind."""
    domains = all_domains()
    per = 10_000 // len(domains)
    for K in domains:
        rng = np.random.default_rng(77)
        block = K.sample_rows(rng, 2 * per)
        ts = rng.random(per).tolist()
        for i, t in enumerate(ts):
            x, y = block.vec(2 * i), block.vec(2 * i + 1)
            assert K.contains(axpy(t, x, 1.0 - t, y))


def test_sampled_pairs_respect_diameter_bound():
    for K in all_domains():
        kind = NATURAL_NORM.get(K.kind, K.norm)
        bound = K.diameter_bound()
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = distance(K.sample(rng), K.sample(rng), kind)
            assert d <= bound + 1e-9


def test_describe_mentions_the_shape():
    assert "radius" in ball(1.0, L2).describe()
    assert "simplex" in simplex(0.125).describe()
    assert "band" in sigma_band(0.125, 0.5).describe()


def test_a_mass_past_the_float_range_is_outside_the_simplices():
    """Two coordinates of 1e308 sum past the float range: math.fsum raises
    on them, the exact sum is +inf, and the point is outside."""
    huge = SeqVec(((1, 1e308), (2, 1e308)))
    for K in (simplex(0.125), sub_simplex(1.0)):
        assert not K.contains(huge), K.describe()
        assert not K.contains_rows(Rows.of(*[huge] * 70)).any(), K.describe()


def test_contains_rejects_nan():
    for K in all_domains():
        for x in K.canonical_points():
            for i in (1, 2):
                bad = SeqVec.from_dict({**dict(x.support), i: math.nan}, x.tail)
                assert not K.contains(bad), (K.describe(), str(bad))
        assert not K.contains(SeqVec((), math.nan)), K.describe()


# ---------------------------------------------------------------------------
# contains_rows on dense Rows blocks, and contains, its one-row case on
# each packed row, answer as a per-kind reference written in this file


def _row_domains():
    """Every kind, every ball norm variant, and domains whose tails,
    tolerances and band floors differ."""
    return all_domains() + [
        ball(0.8, NormKind.lp(3.0)),
        positive_ball(0.9, SUP),
        positive_ball(0.6, L2),
        simplex(0.5),
        sub_simplex(1.0, tol=0.0),
        sigma_band(0.125, 0.01, breadth=12),
        c_interval(1.0, breadth=8),
    ]


def _contains_ref(K, x):
    """Membership of one point, kind by kind, written apart from
    contains_rows as the reference the block answers are held to."""
    tol = K.tol
    k = K.kind
    if x.tail != 0.0 and not K.carries_tail:
        return False
    if k in ("ball", "positive_ball"):
        if not norm(x, K.norm) <= K.r + tol:  # NaN fails
            return False
        if k == "positive_ball":
            if x.tail < -tol:
                return False
            return all(v >= -tol for _, v in x.support)
        return True
    if k in ("simplex", "sub_simplex"):
        if any(v < -tol for _, v in x.support):
            return False
        total = math.fsum(v for _, v in x.support)
        if k == "simplex":
            return abs(total - K.mass) <= tol
        return total <= K.mass_cap + tol
    if k == "coefficient_box":
        return all(-tol <= v <= K.r + tol for _, v in x.support)
    if k == "sigma_band":
        top = 1.0 - K.delta
        d = x._dict
        if not abs(d.get(1, 0.0) - top) <= tol:
            return False
        for i in range(2, K.breadth + 1):
            if not K.sigma(i) - tol <= d.get(i, 0.0) <= top + tol:
                return False
        return True
    # c_interval
    if not (-tol <= x.tail <= K.cap + tol):
        return False
    return all(-tol <= v <= K.cap + tol for _, v in x.support)


def _same_answers(K, x):
    """contains_rows(x), and contains of each row, give the reference's
    answer row by row; returns those answers."""
    points = [x.vec(i) for i in range(len(x.tail))]
    want = [_contains_ref(K, p) for p in points]
    assert K.contains_rows(x).tolist() == want, K.describe()
    assert [K.contains(p) for p in points] == want, K.describe()
    return want


def _wild(rng, count, width):
    """Sup-ball rows with tails, negative coordinates, -0.0, NaN and +-inf
    entries, and NaN and +-inf tails."""
    x = ball(1.0, SUP).with_breadth(width).sample_rows(rng, count)
    vals, tail = x.vals.copy(), x.tail.copy()
    cells = rng.random(vals.shape)
    vals[cells < 0.01] = np.nan
    vals[(0.01 <= cells) & (cells < 0.02)] = np.inf
    vals[(0.02 <= cells) & (cells < 0.03)] = -np.inf
    vals[(0.03 <= cells) & (cells < 0.05)] = -0.0
    tail[: count // 20] = np.nan
    tail[count // 20: count // 10] = np.inf
    return Rows(vals, tail)


def test_row_domains_cover_every_kind():
    assert {K.kind for K in _row_domains()} == set(DOMAIN_KINDS)


@pytest.mark.parametrize("K", _row_domains(), ids=lambda K: K.describe())
def test_contains_rows_answers_as_contains(K):
    rng = np.random.default_rng(41)
    members = K.sample_rows(rng, 400)
    assert all(_same_answers(K, members))
    # members without their tails, members scaled past the boundary, and
    # rows that are neither
    _same_answers(K, Rows(members.vals, np.zeros(400)))
    for a in (1.0 + 1e-13, 1.0 + 1e-11, 1.5, -1.0):
        _same_answers(K, Rows(members.vals * a, members.tail * a))
    for width in (1, K.breadth, K.breadth + 3):
        assert not all(_same_answers(K, _wild(rng, 300, width)))
    # a nonzero tail on every row
    _same_answers(K, Rows(members.vals, np.full(400, 0.125)))
    _same_answers(K, Rows(np.zeros((3, 0)), np.array([0.0, 0.5, np.nan])))


def test_contains_rows_answers_as_contains_on_batch_images():
    rng = np.random.default_rng(42)
    for name in catalog_names() + retraction_names():
        T = build_map(name)
        if not hasattr(T.apply, "rows"):
            continue
        x = T.domain.sample_rows(rng, 300)
        _same_answers(T.domain, T.apply.rows(x))
        _same_answers(T.domain, T.apply.rows(T.apply.rows(x)))


@pytest.mark.parametrize("kind", [L1, L2, NormKind.lp(3.0), MPN, SUP],
                         ids=lambda k: k.label())
def test_contains_rows_decides_the_ball_boundary_as_contains(kind):
    """Rows pushed onto the sphere of radius r + tol, where the last bit of
    a norm decides membership."""
    rng = np.random.default_rng(43)
    for K in (ball(0.7, kind), positive_ball(0.7, kind)):
        x = ball(5.0, kind).sample_rows(rng, 2000)
        if K.kind == "positive_ball":
            x = Rows(np.abs(x.vals), np.abs(x.tail))
        edge = radial_rows(x, K.r + K.tol, kind)
        want = _same_answers(K, edge)
        assert 0 < sum(want) < len(want), K.describe()
        # the block norm and the scalar norm agree on every row
        n = rows_norm(edge, kind).tolist()
        assert all(a == norm(edge.vec(i), kind) for i, a in enumerate(n))
    if kind == L1:
        K = ball(0.7, L1)
        sphere = l1_sphere_rows(ball(0.7, L1).sample_rows(rng, 2000),
                                K.r + K.tol)
        _same_answers(K, sphere)
        _same_answers(positive_ball(0.7, L1),
                      Rows(np.abs(sphere.vals), sphere.tail))


def test_contains_rows_reads_a_band_row_only_up_to_the_breadth():
    rng = np.random.default_rng(44)
    for K in (sigma_band(0.125, 0.5, breadth=8),
              sigma_band(0.125, 0.01, breadth=12)):
        x = K.sample_rows(rng, 200)
        for width in range(0, K.breadth + 1):
            _same_answers(K, Rows(x.vals[:, :width], x.tail))
        noise = rng.normal(size=(200, 5)) * 10.0
        assert all(_same_answers(K, Rows(np.hstack([x.vals, noise]), x.tail)))
