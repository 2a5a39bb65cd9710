"""Retraction formulas: worked examples, idempotence, branch agreement."""

import dataclasses

import numpy as np
import pytest

from holderlab.catalog import RETRACTION_CATALOG
from holderlab.domains import ball, positive_ball
from holderlab.errors import DomainViolationError
from holderlab.retractions import (
    abs_retract,
    clamp_retract,
    excess_map,
    iota_mu_q,
    l1_sphere_retract,
    l1_sphere_rows,
    positive_part,
    radial_retract,
)
from holderlab.seqvec import (
    ZERO,
    NormKind,
    Rows,
    SeqVec,
    basis_vector,
    distance,
    format_vec,
    norm,
    scale,
)

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)


def annulus_sample(rng, r):
    """A random point with r/2 <= ||x||_1 < r."""
    K = ball(1.0, L1)
    while True:
        x = K.sample(rng)
        n = norm(x, L1)
        if n > 0.0:
            rho = r * (0.5001 + 0.4998 * float(rng.random()))
            return scale(rho / n, x)


# ---------------------------------------------------------------------------
# radial / abs / positive_part / clamp


def test_radial_examples():
    assert radial_retract(basis_vector(1), 0.5, L2) == basis_vector(1, 0.5)
    inside = SeqVec.from_dict({1: 0.1, 2: 0.2})
    assert radial_retract(inside, 0.5, L2) == inside
    assert norm(radial_retract(SeqVec.from_dict({1: 3.0, 2: -4.0}), 1.0, L2), L2) \
        == pytest.approx(1.0, abs=1e-12)


def test_abs_retract():
    assert abs_retract(SeqVec.from_dict({1: 1.0, 2: -1.0})) \
        == SeqVec.from_dict({1: 1.0, 2: 1.0})
    assert abs_retract(SeqVec.from_dict({2: 0.5}, 0.25)) \
        == SeqVec.from_dict({2: 0.5}, 0.25)
    assert abs_retract(SeqVec.from_dict({}, -0.5)) == SeqVec.from_dict({}, 0.5)


def test_positive_part():
    assert positive_part(SeqVec.from_dict({1: -1.0, 2: 2.0})) \
        == SeqVec.from_dict({2: 2.0})
    x = SeqVec.from_dict({1: 0.3, 4: 0.2})
    assert positive_part(x) == x
    assert positive_part(SeqVec.from_dict({}, -1.0)) == ZERO


def test_clamp_examples():
    r = 0.5
    assert clamp_retract(SeqVec.from_dict({1: 2 * r, 2: r / 2}), r) \
        == SeqVec.from_dict({1: r, 2: r / 2})
    box_member = SeqVec.from_dict({1: 0.25, 3: 0.5})
    assert clamp_retract(box_member, r) == box_member
    assert clamp_retract(SeqVec.from_dict({}, 0.75), r).tail == r
    with pytest.raises(DomainViolationError):
        clamp_retract(SeqVec.from_dict({1: -0.5}), r)


def test_an_int_radius_clamps_to_a_float():
    x = clamp_retract(SeqVec.from_dict({1: 2.0, 2: 0.5}), 1)
    assert format_vec(x) == "{1:1.0, 2:0.5}"


# ---------------------------------------------------------------------------
# the excess split


def test_iota_mu_q_worked_example():
    split = iota_mu_q(SeqVec.from_dict({1: 0.6, 2: 0.3}), 1.0)
    assert split.iota == 2
    assert split.mu == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert distance(split.q, basis_vector(2, 0.1), L1) <= 1e-12


def test_excess_mass_is_exactly_the_gap():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = annulus_sample(rng, 1.0)
        q = excess_map(x, 1.0)
        gap = 1.0 - norm(x, L1)
        assert abs(norm(q, L1) - gap) <= 1e-12


def test_iota_mu_q_rejects_points_outside_the_annulus():
    with pytest.raises(DomainViolationError):
        iota_mu_q(basis_vector(1, 0.1), 1.0)  # below r/2
    with pytest.raises(DomainViolationError):
        iota_mu_q(basis_vector(1, 1.0), 1.0)  # the sphere itself


# ---------------------------------------------------------------------------
# the sphere retraction


def test_sphere_retract_at_zero():
    assert l1_sphere_retract(ZERO, 1.0) == basis_vector(1)
    assert l1_sphere_retract(ZERO, 0.25) == basis_vector(1, 0.25)


def test_sphere_retract_fixes_the_sphere():
    x = SeqVec.from_dict({1: 0.5, 2: 0.5})
    assert l1_sphere_retract(x, 1.0) == x
    y = SeqVec.from_dict({2: -1.0})
    assert l1_sphere_retract(y, 1.0) == y


def test_sphere_retract_lands_on_the_sphere():
    rng = np.random.default_rng(30)
    K = ball(1.0, L1)
    for _ in range(500):
        out = l1_sphere_retract(K.sample(rng), 1.0)
        assert abs(norm(out, L1) - 1.0) <= 1e-12


def test_sphere_retract_rejects_outside_ball():
    with pytest.raises(DomainViolationError):
        l1_sphere_retract(basis_vector(1, 1.5), 1.0)


def test_sphere_branches_agree_near_the_split():
    from holderlab.retractions import _sphere_high, _sphere_low

    rng = np.random.default_rng(31)
    K = ball(1.0, L1)
    hits = 0
    for _ in range(200):
        x = K.sample(rng)
        n = norm(x, L1)
        if n == 0.0:
            continue
        for eps in (1e-12, 1e-10, 1e-9):
            y = scale(0.5 * (1.0 + eps) / n, x)
            ny = norm(y, L1)
            if not 0.5 <= ny <= 0.5 + 1e-9:
                continue
            assert distance(_sphere_low(y, 1.0, ny), _sphere_high(y, 1.0), L1) \
                <= 1e-8
            hits += 1
    assert hits > 300


@pytest.mark.parametrize("r", [1.0, 0.3, 2.5])
def test_sphere_rows_equal_the_scalar_retraction_bit_for_bit(r):
    rng = np.random.default_rng(31)
    x = ball(r, L1).sample_rows(rng, 3000)
    # both branches, the tie at r/2, the sphere itself and the zero row
    blocks = [x, Rows(x.vals * 0.4, x.tail), l1_sphere_rows(x, r),
              Rows(np.array([[r / 4, r / 4, 0.0], [0.0, r / 2, 0.0],
                             [r, 0.0, 0.0], [0.0, 0.0, 0.0],
                             [-r / 2, 0.0, r / 2]]), np.zeros(5))]
    for block in blocks:
        got = l1_sphere_rows(block, r)
        assert got.tail.tolist() == [0.0] * len(block.tail)
        for i in range(len(block.tail)):
            assert got.vec(i) == l1_sphere_retract(block.vec(i), r)


def test_sphere_rows_raise_on_a_block_with_a_rejected_row():
    rng = np.random.default_rng(32)
    x = ball(1.0, L1).sample_rows(rng, 20)
    l1_sphere_rows(x, 1.0)  # every row is accepted
    for row, tail, value in [(3, 0.5, 0.0), (5, 0.0, np.nan),
                             (7, 0.0, 2.0), (9, 0.0, np.inf),
                             (11, np.nan, 0.0)]:
        vals, tails = x.vals.copy(), x.tail.copy()
        vals[row, 2] += value
        tails[row] = tail
        bad = Rows(vals, tails)
        with pytest.raises(ValueError):
            l1_sphere_retract(bad.vec(row), 1.0)
        with pytest.raises(DomainViolationError):
            l1_sphere_rows(bad, 1.0)


def test_retractions_are_idempotent():
    rng = np.random.default_rng(32)
    ops = [
        (ball(1.0, L2), lambda x: radial_retract(x, 0.8, L2), L2),
        (ball(1.0, L1), abs_retract, L1),
        (ball(1.0, L2), positive_part, L2),
        (positive_ball(1.0, SUP), lambda x: clamp_retract(x, 0.5), SUP),
        (ball(1.0, L1), lambda x: l1_sphere_retract(x, 1.0), L1),
    ]
    for K, R, kind in ops:
        for _ in range(200):
            once = R(K.sample(rng))
            assert distance(R(once), once, kind) <= 1e-12


def test_lipschitz_ratios_small_sample():
    """A quick screen at 10^3 pairs; the full 10^4-pair measurement runs in
    the acceptance suite."""
    rng = np.random.default_rng(33)
    cases = [
        (ball(1.0, L2), lambda x: radial_retract(x, 0.7, L2), L2, 2.0),
        (ball(1.0, L1), abs_retract, L1, 1.0),
        (ball(1.0, L2), positive_part, L2, 1.0),
        (positive_ball(1.0, SUP), lambda x: clamp_retract(x, 0.5), SUP, 1.0),
        (ball(1.0, L1), lambda x: l1_sphere_retract(x, 1.0), L1, 8.0),
    ]
    for K, R, kind, bound in cases:
        worst = 0.0
        for _ in range(1000):
            x, y = K.sample(rng), K.sample(rng)
            d = distance(x, y, kind)
            if d < 1e-13:
                continue
            worst = max(worst, distance(R(x), R(y), kind) / d)
        assert worst <= bound * (1.0 + 1e-9), (K.kind, worst)


def test_excess_map_ratio_small_sample():
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(1000):
        x, y = annulus_sample(rng, 1.0), annulus_sample(rng, 1.0)
        d = distance(x, y, L1)
        if d < 1e-13:
            continue
        worst = max(worst, distance(excess_map(x, 1.0), excess_map(y, 1.0), L1) / d)
    assert worst <= 3.0 * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# the retraction table


def test_tags_cover_the_catalog_names():
    claimed = {name: entry.lipschitz
               for name, entry in RETRACTION_CATALOG.items()}
    assert claimed == {"radial": 2.0, "abs": 1.0, "positive_part": 1.0,
                       "clamp": 1.0, "l1_sphere": 8.0}
    for name, entry in RETRACTION_CATALOG.items():
        assert entry.factory().claims.holder_constant == claimed[name]


def test_tag_requires_sane_constant():
    entry = RETRACTION_CATALOG["abs"]
    with pytest.raises(ValueError):
        dataclasses.replace(entry, name="shrink", lipschitz=0.5)
