"""Catalog constructions: worked examples, constraints, and combinators."""

import dataclasses
import math

import numpy as np
import pytest

from holderlab.catalog import (
    CATALOG,
    RETRACTION_CATALOG,
    ClaimProfile,
    FixedPointSet,
    affine_cube_map,
    affine_mixing_map,
    banach_alpha_gt1_iterate,
    baseline_c_map,
    build_map,
    c0_family_map,
    catalog_names,
    constant_map,
    deficiency_map,
    goebel_kirk_map,
    holderize,
    hyperconvex_map,
    l1_ball_composite_map,
    lambda_scale,
    lift_to_ball,
    norming_map,
    prus_map,
    renormed_l1_map,
    retraction_map,
    retraction_names,
    shift_simplex_map,
    sup_t_alpha_log,
)
from holderlab.domains import ball
from holderlab.errors import (
    DomainViolationError,
    InvalidCompositionError,
    InvalidParameterError,
    UnknownNameError,
)
from holderlab.seqvec import (
    ZERO,
    NormKind,
    Rows,
    SeqVec,
    basis_vector,
    coordinate,
    distance,
    norm,
    scale,
)
from holderlab.verify import estimate_displacement

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)


def all_instances():
    return [CATALOG[name].factory() for name in catalog_names()]


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("build,parameter", [
    (lambda: prus_map(alpha=1.5), "alpha"),
    (lambda: prus_map(alpha=0.0), "alpha"),
    (lambda: norming_map(alpha=1.0), "alpha"),
    (lambda: shift_simplex_map(p=0.5), "p"),
    (lambda: shift_simplex_map(lam=1.0), "lambda"),
    (lambda: affine_mixing_map(L=1.0), "L"),
    (lambda: affine_mixing_map(L=2.0, lam=0.25), "lambda"),
    (lambda: deficiency_map(p=0.5), "p"),
    (lambda: goebel_kirk_map(alpha=2.0), "alpha"),
    (lambda: hyperconvex_map(N=2, alpha=0.5), "N"),
    (lambda: hyperconvex_map(N=0), "N"),
    (lambda: c0_family_map(delta=0.5, q=0.6), "q"),
    (lambda: c0_family_map(delta=1.5), "delta"),
    (lambda: affine_cube_map(r=0.5, alpha=0.5, lam=0.5), "r"),
    (lambda: constant_map(ZERO, ball(1.0, L2), L2, alpha=0.5), "alpha"),
    (lambda: constant_map(basis_vector(1, 5.0), ball(1.0, L2), L2), "value"),
])
def test_constructors_name_the_offending_parameter(build, parameter):
    with pytest.raises(InvalidParameterError) as err:
        build()
    assert err.value.parameter == parameter


# One violating case per parameter rule: the map name, its factory, JSON
# params, and the parameter and rule text the error must name.
ALPHA = "0 < alpha < 1"
LAMBDA = "0 < lambda < 1"
RULE_CASES = [
    ("prus", prus_map, {"alpha": 1.5}, "alpha", ALPHA),
    ("norming", norming_map, {"alpha": 0.0}, "alpha", ALPHA),
    ("shift_simplex", shift_simplex_map, {"p": 0.5}, "p", "p >= 1"),
    ("shift_simplex", shift_simplex_map, {"alpha": 1.0}, "alpha", ALPHA),
    ("shift_simplex", shift_simplex_map, {"lambda": 1.0}, "lambda", LAMBDA),
    ("affine_mixing", affine_mixing_map, {"L": 1.0}, "L", "L > 1"),
    ("affine_mixing", affine_mixing_map, {"L": 2.0, "lambda": 0.25}, "lambda",
     "1/L < lambda <= 1"),
    ("affine_mixing", affine_mixing_map, {"alpha": 1.0}, "alpha", ALPHA),
    ("deficiency", deficiency_map, {"p": 0.5}, "p", "p >= 1"),
    ("deficiency", deficiency_map, {"alpha": 0.0}, "alpha", ALPHA),
    ("goebel_kirk", goebel_kirk_map, {"alpha": 2.0}, "alpha", ALPHA),
    ("hyperconvex", hyperconvex_map, {"N": 0}, "N", "N >= 1"),
    ("hyperconvex", hyperconvex_map, {"N": 2}, "N", "N^alpha >= 2"),
    ("hyperconvex", hyperconvex_map, {"alpha": 1.0}, "alpha", ALPHA),
    ("c0_family", c0_family_map, {"delta": 1.5}, "delta", "0 < delta < 1"),
    ("c0_family", c0_family_map, {"q": 0.6}, "q", "0 < q <= 1 - delta"),
    ("c0_family", c0_family_map, {"alpha": 1.5}, "alpha", "0 < alpha <= 1"),
    ("affine_cube", affine_cube_map, {"r": 0.0}, "r", "r > 0"),
    ("affine_cube", affine_cube_map, {"r": 0.5}, "r",
     "(2r)^(1-alpha) <= lambda"),
    ("affine_cube", affine_cube_map, {"alpha": 1.0}, "alpha", ALPHA),
    ("affine_cube", affine_cube_map, {"lambda": 1.0}, "lambda", LAMBDA),
    ("l1_ball_composite", l1_ball_composite_map, {"alpha": 1.0}, "alpha",
     ALPHA),
    ("l1_ball_composite", l1_ball_composite_map, {"lambda": 1.0}, "lambda",
     LAMBDA),
] + [(name, RETRACTION_CATALOG[name].factory, {"r": 0.0}, "r", "r > 0")
     for name in retraction_names()]


@pytest.mark.parametrize("name, factory, params, parameter, rule", RULE_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in RULE_CASES])
def test_every_rule_has_a_violating_case(name, factory, params, parameter,
                                         rule):
    # the factory called directly and build_map with JSON names agree
    kwargs = {("lam" if k == "lambda" else k): v for k, v in params.items()}
    for build in (lambda: factory(**kwargs), lambda: build_map(name, params)):
        with pytest.raises(InvalidParameterError) as err:
            build()
        assert err.value.parameter == parameter
        assert err.value.constraint == f"requires {rule}"


def test_the_rule_cases_cover_every_described_constraint():
    described = {(name, p.name, rule)
                 for name, entry in {**CATALOG, **RETRACTION_CATALOG}.items()
                 for p in entry.params for rule in p.constraint.split(", ")}
    assert described == {(c[0], c[3], c[4]) for c in RULE_CASES}


# ---------------------------------------------------------------------------
# worked examples, one map at a time


def test_prus_orbit_of_zero_walks_along_ones():
    T = prus_map(0.5)
    x = ZERO
    for n in range(1, 6):
        x = T.apply(x)
        assert x == SeqVec.from_dict({i: 1.0 for i in range(1, n + 1)})
    assert T.apply(SeqVec.from_dict({}, 1.0)) == SeqVec.from_dict({1: 0.0}, 1.0)
    # the pair (0, e1) attains the claimed ratio 1 exactly
    d = distance(T.apply(ZERO), T.apply(basis_vector(1)), SUP)
    assert d == distance(ZERO, basis_vector(1), SUP) ** 0.5 == 1.0


def test_norming_map_values():
    T = norming_map(0.5)
    assert T.apply(ZERO) == SeqVec.from_dict({1: 2.0 ** -0.5})
    e1 = basis_vector(1)
    assert T.apply(e1) == e1
    assert T.claims.classical_lipschitz == pytest.approx(0.5 * 2.0 ** 0.5)
    # closed-form second iterate from 0: sqrt(1/2 + 1/4)
    two = T.iterate_oracle(ZERO, 2)
    assert coordinate(two, 1) == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert coordinate(two, 1) == pytest.approx(0.8660254037844386, abs=1e-15)


def test_norming_oracle_matches_iteration():
    T = norming_map(0.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = T.domain.sample(rng)
        for n in (1, 3, 10):
            assert distance(T.iterate(x, n), T.iterate_oracle(x, n), L2) <= 1e-12


def test_norming_oracle_sums_the_geometric_series_exactly():
    """The oracle's 1 - 2^-n is fsum(2^-i for i <= n) bit for bit, also
    past the smallest subnormal power, where both are 1."""
    T = norming_map(0.5)
    phi = -0.3
    x = SeqVec(((1, phi),), 0.0)
    for n in range(0, 1101):
        partial = math.fsum(2.0 ** -i for i in range(1, n + 1))
        assert 1.0 - 2.0 ** -n == partial, n
        if n:
            s = partial + phi * phi * 2.0 ** -n
            assert T.iterate_oracle(x, n) == SeqVec(((1, math.sqrt(s)),), 0.0)
    assert 1.0 - 2.0 ** -1100 == 1.0


@pytest.mark.parametrize("T", [norming_map(0.5), hyperconvex_map(),
                               l1_ball_composite_map()],
                         ids=lambda T: T.name)
def test_iterate_oracles_return_their_start_at_n_0(T):
    for x in T.domain.canonical_points():
        assert T.iterate_oracle(x, 0) is x


def test_claim_profiles_reject_a_nonpositive_exponent_and_a_uniform_profile():
    for alpha in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidParameterError) as err:
            ClaimProfile(alpha=alpha, holder_constant=1.0, uniform=True)
        assert err.value.parameter == "alpha"
    with pytest.raises(InvalidParameterError) as err:
        ClaimProfile(alpha=0.5, holder_constant=1.0, uniform=True,
                     asymptotic_profile=lambda n: 1.0)
    assert err.value.parameter == "uniform"
    ClaimProfile(alpha=0.5, holder_constant=1.0, uniform=False,
                 asymptotic_profile=lambda n: 1.0)


def test_baseline_c_values():
    F = baseline_c_map()
    assert F.apply(ZERO) == basis_vector(1)
    assert F.apply(basis_vector(1)) == SeqVec.from_dict({1: 1.0, 3: 1.0})
    assert coordinate(F.apply(basis_vector(1)), 2) == 0.0


def test_shift_simplex_mass_and_witnesses():
    T = shift_simplex_map(1.0, 0.5, 0.5)
    assert T.params["mass"] == 0.125
    assert T.domain.mass == 0.125
    # the shift is an l1 isometry on the slice
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = T.domain.sample(rng), T.domain.sample(rng)
        assert distance(T.apply(x), T.apply(y), L1) == distance(x, y, L1)
    # displacement of the equal-mass witness is exactly 2*mass/n
    for n in (1, 2, 4, 8, 50):
        xn = SeqVec.from_dict({i: 0.125 / n for i in range(1, n + 1)})
        assert T.displacement(xn) == 2.0 * 0.125 / n


def test_affine_mixing_preserves_mass_and_moves_spikes():
    T = affine_mixing_map()
    m = T.params["mass"]
    spike = basis_vector(1, m)
    out = T.apply(spike)
    g1 = 0.5
    assert out == SeqVec.from_dict({1: m * (1 - g1), 2: m * g1})
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = T.domain.sample(rng)
        y = T.apply(x)
        assert abs(math.fsum(v for _, v in y.support) - m) <= 1e-14
        assert T.domain.contains(y)


def test_affine_mixing_moves_a_spike_by_two_to_the_minus_n():
    """m e_n goes to (1 - 2^-n) m e_n + 2^-n m e_n+1, in both forms; at
    n = 1075, 2^-n rounds to 0 and the spike stays."""
    T = affine_mixing_map()
    m = T.params["mass"]
    for n in (1, 30, 1074, 1075):
        g = math.ldexp(1.0, -n)
        want = SeqVec.from_dict({n: (1.0 - g) * m, n + 1: g * m})
        spike = basis_vector(n, m)
        assert T.apply(spike) == want, n
        assert T.apply.rows(Rows.of(spike)).vec(0) == want, n
    assert want == spike


def test_deficiency_radius_and_spike_displacement():
    T = deficiency_map(2.0, 0.5)
    lam = T.params["radius"]
    assert lam == 0.0625
    assert T.claims.displacement_bound == 0.125
    spike = basis_vector(1, lam)
    assert T.apply(spike) == basis_vector(2, lam)
    assert T.displacement(spike) == pytest.approx(lam * math.sqrt(2.0), rel=1e-15)


def test_goebel_kirk_values_and_profile():
    T = goebel_kirk_map(0.5)
    assert T.apply(ZERO) == ZERO
    assert T.apply(basis_vector(1)) == basis_vector(2)
    # negative coordinates are projected away before the shift
    assert T.apply(basis_vector(1, -0.5)) == ZERO
    # kappa_n = 2 prod (1 - 1/i^2) telescopes to (n+1)/n
    prod = 1.0
    for n in range(2, 21):
        prod *= 1.0 - 1.0 / (n * n)
        kappa = 2.0 * prod
        assert abs(kappa - (n + 1) / n) <= 1e-12
        assert T.claims.asymptotic_profile(n) == (n + 1) / n * 2.0 ** 0.5
    assert T.claims.uniform is False


def test_hyperconvex_values_and_oracle():
    T = hyperconvex_map(4, 0.5)
    assert T.apply(ZERO) == basis_vector(1, 0.25)
    quarter_tail = SeqVec.from_dict({}, 0.25)
    out = T.apply(quarter_tail)
    assert coordinate(out, 1) == 0.25
    assert coordinate(out, 2) == 0.125
    assert out.tail == 0.25
    # oracle vs 3-fold application on the tail-carrying input
    assert distance(T.iterate(quarter_tail, 3),
                    T.iterate_oracle(quarter_tail, 3), SUP) <= 1e-14
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = T.domain.sample(rng)
        for n in (1, 2, 5, 10):
            assert distance(T.iterate(x, n), T.iterate_oracle(x, n), SUP) <= 1e-12


def test_hyperconvex_rejects_a_negative_first_coordinate():
    # t1^alpha of a negative t1 is complex, which no norm measures.
    T = hyperconvex_map(4, 0.5)
    for x in (SeqVec.from_dict({1: -0.25, 2: 0.125}), SeqVec((), -0.25)):
        with pytest.raises(DomainViolationError):
            T.apply(x)


def test_c0_family_witness_and_alpha_one_fixed_point():
    T = c0_family_map(0.5, 0.25, 0.9)
    star = T.witness_family(10)[0]
    assert T.domain.contains(star)
    d = T.displacement(star)
    assert d == pytest.approx(0.01858729437462936, abs=1e-15)
    assert d <= T.claims.displacement_bound
    assert T.claims.displacement_bound == pytest.approx(
        0.5 * 0.1 * sup_t_alpha_log(0.9), rel=1e-15)
    # at alpha = 1 the geometric point is fixed up to the truncation residual
    T1 = c0_family_map(0.5, 0.25, 1.0)
    fp = T1.claims.fixed_points
    assert fp.kind == "singleton"
    assert T1.displacement(fp.point) <= fp.residual + 1e-15
    assert T1.claims.displacement_bound == 0.0


def test_c0_family_is_continuous_in_the_exponent():
    """High exponents are ((1-delta)/2)-Lipschitz in alpha."""
    pairs = [(0.9, 0.85), (0.99, 0.75), (0.8, 1.0)]
    rng = np.random.default_rng(13)
    dom = c0_family_map(0.5, 0.25, 0.9).domain
    samples = [dom.sample(rng) for _ in range(50)]
    for a, b in pairs:
        Ta = c0_family_map(0.5, 0.25, a)
        Tb = c0_family_map(0.5, 0.25, b)
        bound = 0.25 * abs(a - b) + 1e-12
        for x in samples:
            assert distance(Ta.apply(x), Tb.apply(x), SUP) <= bound


def test_sup_t_alpha_log_against_grid():
    for alpha in (0.5, 0.9, 0.99):
        ts = np.linspace(1e-6, 1.0 - 1e-6, 1_000_000)
        grid = float(np.max(ts ** alpha * np.abs(np.log(ts))))
        assert grid <= sup_t_alpha_log(alpha) <= grid + 1e-5


def test_affine_cube_corner_witnesses_are_exact():
    T = affine_cube_map(0.125, 0.5, 0.5)
    r = 0.125
    for m in (1, 2, 5, 10):
        xm = SeqVec.from_dict({i: r for i in range(1, m + 1)})
        assert T.displacement(xm) == r / (m + 2)
    # witness_family produces the same corners
    fam = T.witness_family(3)
    assert fam[0] == SeqVec.from_dict({1: r})
    assert all(T.domain.contains(w) for w in fam)


@pytest.mark.parametrize("breadth", [8, 64])
def test_affine_cube_maps_zero_to_r_over_n_plus_one(breadth):
    r = 0.125
    T = affine_cube_map(r, 0.5, 0.5, breadth=breadth)
    want = SeqVec.from_dict({n: r / (n + 1) for n in range(1, breadth + 1)})
    assert T.apply(ZERO) == want
    assert T.apply.rows(Rows.of(ZERO)).vec(0) == want


def test_renormed_l1_is_an_isometry():
    T = renormed_l1_map()
    assert T.apply(ZERO) == basis_vector(1)
    assert T.apply(basis_vector(1)) == basis_vector(2)
    MPN = NormKind.max_pos_neg_l1()
    assert distance(T.apply(ZERO), T.apply(basis_vector(1)), MPN) == 1.0
    rng = np.random.default_rng(14)
    for _ in range(300):
        x, y = T.domain.sample(rng), T.domain.sample(rng)
        d = distance(x, y, MPN)
        if d < 1e-13:
            continue
        assert abs(distance(T.apply(x), T.apply(y), MPN) / d - 1.0) <= 1e-12


def test_l1_composite_lands_on_the_small_sphere():
    T = l1_ball_composite_map(0.5, 0.5)
    r = T.params["radius"]
    assert r == pytest.approx(0.00015484857751591534, rel=1e-12)
    assert T.apply(ZERO) == basis_vector(2, r)
    # inside K the composite reduces to the bare shift
    face_point = basis_vector(1, r)
    assert T.apply(face_point) == basis_vector(2, r)
    rng = np.random.default_rng(15)
    for _ in range(100):
        out = T.apply(T.domain.sample(rng))
        assert abs(norm(out, L1) - r) <= 1e-12
    # approximate fixed point family: displacement exactly 2r/n
    for n in (1, 4, 16):
        xn = SeqVec.from_dict({i: r / n for i in range(1, n + 1)})
        assert abs(T.displacement(xn) - 2.0 * r / n) <= 1e-14
    # iterate oracle agrees with repeated application
    x = T.domain.sample(rng)
    for n in (1, 2, 7):
        assert distance(T.iterate(x, n), T.iterate_oracle(x, n), L1) <= 1e-12


# ---------------------------------------------------------------------------
# combinators


def test_lambda_scale_needs_a_star_shaped_domain():
    with pytest.raises(InvalidCompositionError):
        lambda_scale(shift_simplex_map(), 0.5)
    with pytest.raises(InvalidParameterError):
        lambda_scale(hyperconvex_map(), 1.0)


def test_lambda_scale_displacements_decay():
    lam = 0.5
    F = lambda_scale(hyperconvex_map(4, 0.5), lam)
    x = ZERO
    prev = None
    for n in range(12):
        nxt = F.apply(x)
        d = distance(x, nxt, SUP)
        assert d <= lam ** n + 1e-12
        x = nxt
        prev = d
    assert prev < 1e-3


def test_holderize_stays_close_and_keeps_fixed_points():
    eps = 0.25
    T = norming_map(0.5)
    Te = holderize(T, eps)
    e1 = basis_vector(1)
    assert Te.apply(e1) == e1
    assert Te.apply(ZERO) == T.apply(ZERO)
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = T.domain.sample(rng)
        assert distance(Te.apply(x), T.apply(x), L2) <= eps
    with pytest.raises(InvalidCompositionError):
        holderize(goebel_kirk_map(), 0.25)  # no classical constant
    with pytest.raises(InvalidParameterError):
        holderize(T, 1.5)


def test_lift_to_ball_constraint_and_transport():
    F = baseline_c_map()
    with pytest.raises(InvalidParameterError):
        lift_to_ball(F, 0.1, 0.5, 0.5)  # 2*sqrt(0.1) > 0.5
    with pytest.raises(InvalidCompositionError):
        lift_to_ball(deficiency_map(), 0.01, 0.5, 0.5)  # not the unit ball
    with pytest.raises(InvalidCompositionError):
        lift_to_ball(prus_map(), 0.01, 0.5, 0.5)  # no classical constant
    r = 1.0 / 16.0
    T = lift_to_ball(F, r, 0.5, 0.5)
    assert T.apply(ZERO) == basis_vector(1, r)
    # pointwise displacement transport under conjugation
    for p in F.domain.canonical_points():
        lhs = T.displacement(scale(r, p))
        rhs = r * F.displacement(p)
        assert abs(lhs - rhs) <= 1e-12
    assert T.claims.displacement_bound is None
    assert T.claims.fixed_points.kind == "empty"


def test_lift_to_ball_witnesses_transport_exactly():
    """Each witness r p has displacement r ||p - F p||, exactly when r is
    a power of two, and sample_min sees the least of them."""
    F = baseline_c_map()
    r = 1.0 / 16.0
    T = lift_to_ball(F, r, 0.5, 0.5)
    inner = list(F.domain.canonical_points())
    if F.witness_family is not None:
        inner += F.witness_family(40)
    witnesses = T.witness_family(40)
    assert witnesses == [scale(r, p) for p in inner]
    displacements = [T.displacement(w) for w in witnesses]
    assert displacements == [r * F.displacement(p) for p in inner]
    est = estimate_displacement(T, "sample_min", 40, 0)
    assert est.value <= min(displacements)


def test_lift_to_ball_transports_an_inner_witness_family():
    family = [basis_vector(1, -0.5), basis_vector(2, 0.25)]
    F = dataclasses.replace(baseline_c_map(),
                            witness_family=lambda budget: family[:budget])
    r = 1.0 / 16.0
    T = lift_to_ball(F, r, 0.5, 0.5)
    inner = list(F.domain.canonical_points()) + family
    assert T.witness_family(2) == [scale(r, p) for p in inner]


def test_lift_to_ball_of_a_map_with_a_fixed_point_claims_none_known():
    F = norming_map()
    assert F.claims.fixed_points.kind != "empty"
    T = lift_to_ball(F, 0.01, 0.5, 0.5)
    assert T.claims.fixed_points.kind == "unknown"


def test_constant_map_probe():
    value = basis_vector(2, 0.5)
    T = constant_map(value, ball(1.0, L2), L2)
    outs = {T.apply(p) for p in T.domain.canonical_points()}
    assert outs == {value}
    assert T.claims.alpha > 1.0
    assert T.displacement(value) == 0.0


def test_alpha_gt1_scalar_orbit():
    orbit = banach_alpha_gt1_iterate(lambda t: t * t / 2.0, 1.0, 0.5, 2.0, 10)
    assert orbit.values == (
        1.0, 0.5, 0.125, 0.0078125, 3.0517578125e-05,
        4.656612873077393e-10, 1.0842021724855044e-19,
        5.877471754111438e-39,
    )
    assert orbit.converged
    # each value is exactly half the square of its predecessor
    for a, b in zip(orbit.values, orbit.values[1:]):
        assert b == a * a / 2.0
    # majorant trace follows the same recursion from the first displacement
    assert orbit.majorant[0] == 0.5
    for a, b in zip(orbit.majorant, orbit.majorant[1:]):
        assert b == 0.5 * a ** 2.0
    with pytest.raises(InvalidParameterError):
        banach_alpha_gt1_iterate(lambda t: t, 0.0, 0.5, 0.9, 5)
    with pytest.raises(InvalidParameterError):
        banach_alpha_gt1_iterate(lambda t: t, 0.0, 1.5, 2.0, 5)
    with pytest.raises(InvalidParameterError):
        banach_alpha_gt1_iterate(lambda t: t + 2.0, 0.0, 0.5, 2.0, 5)


# ---------------------------------------------------------------------------
# registry and invariance


def test_build_map_handles_names_params_and_breadth():
    T = build_map("shift_simplex", {"lambda": 0.9, "alpha": 0.5, "p": 1.0})
    assert T.params["lambda"] == 0.9
    H = build_map("hyperconvex", {"N": 9.0, "alpha": 0.5})
    assert H.params["N"] == 9
    with pytest.raises(InvalidParameterError, match="N"):
        build_map("hyperconvex", {"N": 4.5})
    R = build_map("radial", {"r": 2.0})
    assert R.params["r"] == 2.0
    wide = build_map("c0_family", breadth=16)
    assert wide.domain.breadth == 16
    clipped = build_map("prus", breadth=8)
    assert clipped.domain.breadth == 8
    with pytest.raises(InvalidParameterError):
        build_map("prus", {"beta": 1.0})
    with pytest.raises(UnknownNameError) as err:
        build_map("shift_simple")
    assert "shift_simplex" in err.value.suggestions


def test_registry_names_are_sorted_and_disjoint():
    assert list(catalog_names()) == sorted(catalog_names())
    assert set(catalog_names()) == {
        "affine_cube", "affine_mixing", "baseline_c", "c0_family",
        "deficiency", "goebel_kirk", "hyperconvex", "l1_ball_composite",
        "norming", "prus", "renormed_l1", "shift_simplex",
    }
    assert set(retraction_names()) == {
        "radial", "abs", "positive_part", "clamp", "l1_sphere",
    }
    assert not set(catalog_names()) & set(retraction_names())


def test_every_instance_maps_samples_into_its_domain():
    """A fast screen; the 10^4-sample version runs in the acceptance suite."""
    for T in all_instances():
        rng = np.random.default_rng(17)
        for _ in range(300):
            x = T.domain.sample(rng)
            assert T.domain.contains(T.apply(x)), T.name


def test_singleton_fixed_points_are_fixed():
    for T in all_instances():
        fp = T.claims.fixed_points
        if fp.kind == "singleton":
            assert T.displacement(fp.point) <= fp.residual + 1e-10, T.name


def test_retraction_map_wrappers():
    for name in retraction_names():
        R = retraction_map(name)
        assert R.claims.uniform and R.claims.hard
        rng = np.random.default_rng(18)
        for _ in range(100):
            x = R.domain.sample(rng)
            assert R.domain.contains(R.apply(x)), name
    with pytest.raises(InvalidParameterError):
        retraction_map("radial", r=0.0)
    with pytest.raises(UnknownNameError) as err:
        retraction_map("radail")
    assert "radial" in err.value.suggestions
