"""Domain membership, sampling, and convexity checks."""

import math

import numpy as np
import pytest

from holderlab.domains import (
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
from holderlab.seqvec import (
    ZERO,
    NormKind,
    SeqVec,
    axpy,
    basis_vector,
    distance,
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
        simplex(1.0, 0.125),
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
    K = simplex(1.0, 0.125)
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
    lambda: simplex(0.5, 1.0),
    lambda: simplex(1.0, 0.0),
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
    lambda: DomainSpec("simplex", p=1.0, mass=1.0, r=1.0),
])
def test_factories_reject_bad_parameters(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_breadth_below_one_is_rejected():
    with pytest.raises(InvalidBudgetError):
        ball(1.0, L1, breadth=0)
    with pytest.raises(InvalidBudgetError):
        ball(1.0, L1).sample(0, breadth=0)


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
        x = K.sample(s, breadth=5)
        assert all(i <= 5 for i, _ in x.support)


def test_samples_land_in_domain():
    """sample-then-contains over 10^5 draws spread across every kind, drawn
    as blocks of rows."""
    domains = all_domains()
    per = 100_000 // len(domains)
    for K in domains:
        rng = np.random.default_rng(2024)
        block = K.sample_rows(rng, per)
        for i in range(per):
            assert K.contains(block.vec(i))


def test_convex_combinations_stay_inside():
    """10^4 sampled (x, y, t) triples across every kind."""
    domains = all_domains()
    per = 10_000 // len(domains)
    for K in domains:
        rng = np.random.default_rng(77)
        for _ in range(per):
            x = K.sample(rng)
            y = K.sample(rng)
            t = float(rng.random())
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
    assert "simplex" in simplex(1.0, 0.125).describe()
    assert "band" in sigma_band(0.125, 0.5).describe()


def test_contains_rejects_nan():
    for K in all_domains():
        for x in K.canonical_points():
            for i in (1, 2):
                bad = SeqVec.from_dict({**dict(x.support), i: math.nan}, x.tail)
                assert not K.contains(bad), (K.describe(), str(bad))
        assert not K.contains(SeqVec((), math.nan)), K.describe()
