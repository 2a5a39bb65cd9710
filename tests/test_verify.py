"""Checker semantics: estimators, strategies, verdict rules, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from holderlab.catalog import (
    affine_mixing_map,
    baseline_c_map,
    build_map,
    c0_family_map,
    catalog_names,
    deficiency_map,
    goebel_kirk_map,
    hyperconvex_map,
    l1_ball_composite_map,
    norming_map,
    prus_map,
    renormed_l1_map,
    retraction_names,
    shift_simplex_map,
)
from holderlab.domains import ball, simplex
from holderlab.errors import (
    DomainViolationError,
    InsufficientSamplesError,
    InvalidBudgetError,
    InvalidCheckError,
    InvalidParameterError,
    InvalidStrategyError,
    NotInSpaceError,
)
from holderlab.seqvec import (
    ZERO,
    NormKind,
    SeqVec,
    basis_vector,
    distance,
    format_vec,
    norm,
    scale,
)
from holderlab.verify import (
    CHECKS,
    FIELDS,
    PAIR_CUTOFF,
    STRATEGIES,
    BLOCK_ELEMENTS,
    CheckRequest,
    _Outgrown,
    _require_fit,
    estimate_displacement,
    orbit,
    pair_ratios,
    run_check,
)


def _degenerate(T):
    """The same map over the one-point domain {e1}: every pair coincides."""
    return dataclasses.replace(T, domain=simplex(1.0, breadth=1))


# ---------------------------------------------------------------------------
# pair_ratios


def test_holder_estimate_is_deterministic():
    T = norming_map()
    a = pair_ratios(T, (1,), pairs=200, seed=11)
    b = pair_ratios(T, (1,), pairs=200, seed=11)
    assert a == b
    assert a.pairs_used <= 200


def test_holder_estimate_sees_an_isometry():
    T = renormed_l1_map()
    est = pair_ratios(T, (1,), pairs=200, seed=3, exponent=1.0)
    assert abs(est.sups[1] - 1.0) <= 1e-12


def test_holder_estimate_rejects_empty_budgets():
    T = norming_map()
    with pytest.raises(InvalidBudgetError):
        pair_ratios(T, (1,), pairs=0, seed=0)
    with pytest.raises(InvalidBudgetError):
        pair_ratios(T, (0,), pairs=10, seed=0)


def test_holder_estimate_needs_nondegenerate_pairs():
    with pytest.raises(InsufficientSamplesError):
        pair_ratios(_degenerate(norming_map()), (1,), pairs=20, seed=0)


@pytest.mark.parametrize("factory", [prus_map, norming_map, c0_family_map,
                                     renormed_l1_map, shift_simplex_map])
def test_a_nan_image_fails_holder_ratio_and_invariance(factory):
    # T(x) = {1: nan}: every distance between images is NaN, and no domain
    # holds the image.
    T = dataclasses.replace(factory(),
                            apply=lambda x: SeqVec.from_dict({1: math.nan}))
    rec = run_check(T, CheckRequest("holder_ratio", pairs=20), 1)
    assert rec.verdict == "fail"
    assert rec.measured == math.inf
    assert rec.witness.startswith("x = ")
    rec = run_check(T, CheckRequest("invariance", samples=20), 1)
    assert rec.verdict == "fail"
    assert rec.details["checked"] == 1
    # the replaced apply has no batch form, so this walks point by point
    rec = run_check(T, CheckRequest("approx_fixed_set", samples=20), 1)
    assert rec.verdict == "fail"
    assert rec.measured == math.inf
    assert rec.details["qualifying"] == 20
    assert rec.witness.startswith("{")


@pytest.mark.parametrize("factory", [hyperconvex_map, norming_map])
def test_a_nan_image_fails_oracle_compare(factory):
    T = dataclasses.replace(factory(),
                            apply=lambda x: SeqVec.from_dict({1: math.nan}))
    rec = run_check(T, CheckRequest("oracle_compare", n_max=3), 1)
    assert rec.verdict == "fail"
    assert rec.measured == math.inf
    assert rec.witness == format_vec(T.domain.canonical_points()[0])


# ---------------------------------------------------------------------------
# invariance / orbit


def test_invariance_counts_canonical_points_and_samples():
    T = norming_map()
    rec = run_check(T, CheckRequest("invariance", samples=100), 7)
    assert rec.measured == 0.0
    assert rec.witness is None
    assert rec.details["checked"] == 100 + len(T.domain.canonical_points())


def test_invariance_reports_the_first_violation():
    # Shrink the domain under the same formula: T(0) lands outside.
    T = norming_map()
    small = dataclasses.replace(T, domain=dataclasses.replace(T.domain, r=0.25))
    rec = run_check(small, CheckRequest("invariance", samples=10), 7)
    assert rec.measured == 1.0
    assert rec.witness == format_vec(ZERO)
    assert rec.details["checked"] == 1


def test_invariance_rejects_negative_budget():
    with pytest.raises(InvalidBudgetError):
        run_check(norming_map(), CheckRequest("invariance", samples=-1))


def test_orbit_walks_and_records_displacements():
    T = norming_map()
    res = orbit(T, ZERO, depth=5)
    points = [T.iterate(ZERO, i) for i in range(6)]
    assert res.final == points[5]
    assert len(res.displacements) == 5
    for i, d in enumerate(res.displacements):
        assert d == distance(points[i], points[i + 1], T.norm)
    assert res.max_norm == max(norm(p, T.norm) for p in points)


def _batched_maps():
    return [T for T in map(build_map, catalog_names() + retraction_names())
            if hasattr(T.apply, "rows")]


def _point_walk(T):
    """T with apply stripped of its batch form: every walk goes by points."""
    return dataclasses.replace(T, apply=lambda x: T.apply(x))


# Maps whose rows double in width each step: their walks break the growth
# rule within a few steps and go by points.
OUTGROWN = {"deficiency"}


def _row_walk(T, scalar_calls=None):
    """T whose scalar apply fails the test: every walk must go by rows.
    Given a list, the scalar apply appends to it and runs instead."""
    def apply(x):
        if scalar_calls is not None:
            scalar_calls.append(x)
            return T.apply(x)
        raise AssertionError(f"{T.name}: a walk went point by point")

    apply.rows = T.apply.rows
    return dataclasses.replace(T, apply=apply)


def _accepted_strategies(T):
    out = ["orbit_min"]
    if T.domain.star_shaped:
        out.append("lambda_scaling")
    if T.claims.affine:
        out.append("cesaro_affine")
    return out


@pytest.mark.parametrize("T", _batched_maps(), ids=lambda T: T.name)
def test_row_walks_equal_point_walks(T):
    """The orbit kernel walks one-row blocks when T has a batch form; the
    row walk and the point walk measure the same values bit for bit.  A
    walk that outgrows the growth rule falls back to points, with the same
    values."""
    fell_back = [] if T.name in OUTGROWN else None
    R, P = _row_walk(T, fell_back), _point_walk(T)
    for strategy in _accepted_strategies(T):
        budget = 300 if strategy == "lambda_scaling" else 120
        rows = estimate_displacement(R, strategy, budget=budget, seed=3)
        points = estimate_displacement(P, strategy, budget=budget, seed=3)
        assert rows == points, (T.name, strategy)
    for x0 in T.domain.canonical_points():
        assert orbit(R, x0, 40) == orbit(P, x0, 40), (T.name, str(x0))
    if T.iterate_oracle is not None:
        req = CheckRequest("oracle_compare", n_max=25)
        assert (_comparable(run_check(R, req, 1))
                == _comparable(run_check(P, req, 1)))
    assert fell_back is None or fell_back


def test_the_growth_rule_admits_linear_growth_at_any_depth():
    """Two columns a step never break the rule, from any start width and
    far past BLOCK_ELEMENTS steps; doubling breaks it within a few steps."""
    for breadth in (0, 1, 64, BLOCK_ELEMENTS):
        for steps in (1, 2, 3, 100, BLOCK_ELEMENTS + 1, 10 ** 9):
            _require_fit(breadth + 2 * steps, breadth, steps)
        width, steps = max(breadth, 1), 0
        with pytest.raises(_Outgrown):
            while steps < 40:
                width, steps = 2 * width, steps + 1
                _require_fit(width, breadth, steps)
        assert steps <= 5


def test_a_nan_norm_makes_the_orbit_unbounded():
    """A NaN iterate norm counts as +inf in max_norm, as a NaN counts in
    every other measurement."""
    T = prus_map()

    def apply(x):
        y = T.apply(x)
        return SeqVec.from_dict({1: math.nan}) if len(y.support) == 4 else y

    res = orbit(dataclasses.replace(T, apply=apply), ZERO, 6)
    assert math.isnan(res.displacements[3])
    assert res.max_norm == math.inf


def test_a_start_with_a_far_index_walks_by_points():
    # as a row, {10^15: t} would take 8 PB
    T = prus_map()
    x0 = SeqVec(((10 ** 15, 0.5),), 0.0)
    assert orbit(T, x0, 3) == orbit(_point_walk(T), x0, 3)
    rec = run_check(hyperconvex_map(),
                    CheckRequest("oracle_compare", n_max=3,
                                 x0=SeqVec(((10 ** 15, 0.25),), 0.0)), 1)
    assert rec.verdict == "pass"


def test_cesaro_rows_stay_narrow():
    # affine_mixing's supports underflow at their far end, so trimmed rows
    # stay about 45 columns wide; untrimmed they would widen by one column
    # a step, to the budget.
    T = affine_mixing_map()
    widths = []

    def apply(x):
        return T.apply(x)

    def rows(x):
        widths.append(x.width)
        return T.apply.rows(x)

    apply.rows = rows
    est = estimate_displacement(dataclasses.replace(T, apply=apply),
                                "cesaro_affine", budget=1500, seed=0)
    assert est == estimate_displacement(T, "cesaro_affine", budget=1500,
                                        seed=0)
    assert len(widths) == 2 * 1500 - 1
    assert max(widths) <= 64


def _invariance_by_rows_and_points(T, samples, seed):
    """The invariance record of T with its draws walked through the batch
    form, which must equal the record of the point by point walk."""
    blocks = []

    def apply(x):
        return T.apply(x)

    def rows(x):
        blocks.append(len(x.tail))
        return T.apply.rows(x)

    apply.rows = rows
    req = CheckRequest("invariance", samples=samples)
    by_rows = run_check(dataclasses.replace(T, apply=apply), req, seed)
    by_points = run_check(_point_walk(T), req, seed)
    assert _comparable(by_rows) == _comparable(by_points), T.name
    return by_rows, blocks


@pytest.mark.parametrize("T", _batched_maps(), ids=lambda T: T.name)
def test_block_invariance_equals_point_invariance(T):
    rec, blocks = _invariance_by_rows_and_points(T, 700, 13)
    assert rec.verdict == "pass"
    assert sum(blocks) == 700 and len(blocks) > 1


def test_block_invariance_reports_a_late_escape_as_the_points_do():
    # goebel_kirk's images leave the unit l1 ball rarely: the first escape
    # comes several blocks into the draws
    T = goebel_kirk_map()
    T = dataclasses.replace(T, domain=ball(1.0, NormKind.lp(1.0)))
    rec, blocks = _invariance_by_rows_and_points(T, 3000, 5)
    assert rec.verdict == "fail" and rec.measured == 1.0
    # the first escaping draw, found without the check's blocks
    draws = T.domain.sample_rows(np.random.default_rng(5), 3000)
    first = next(i for i in range(3000)
                 if not T.domain.contains(T.apply(draws.vec(i))))
    n = len(T.domain.canonical_points())
    assert rec.details["checked"] == n + first + 1
    assert rec.witness == format_vec(draws.vec(first))
    assert first > 2 * blocks[0] and len(blocks) > 2
    assert sum(blocks) < 3000  # the draws stop at the block that escapes


def test_block_invariance_walks_a_failing_block_by_points():
    T = norming_map()

    def apply(x):
        return T.apply(x)

    def rows(x):
        raise ArithmeticError("the batch form gives up")

    apply.rows = rows
    req = CheckRequest("invariance", samples=600)
    assert (_comparable(run_check(dataclasses.replace(T, apply=apply), req, 3))
            == _comparable(run_check(_point_walk(T), req, 3)))


def _raising(T, first, second):
    """T without a batch form whose apply raises DomainViolationError on the
    points of `first` and NotInSpaceError on the images of the points of
    `second`: errors at the first and at the second step."""
    images = {T.apply(x): x for x in second}

    def apply(x):
        if x in first:
            raise DomainViolationError(f"step 1 at {format_vec(x)}")
        if x in images:
            raise NotInSpaceError(f"step 2 from {format_vec(images[x])}")
        return T.apply(x)

    return dataclasses.replace(T, apply=apply)


def _first_error(walk):
    try:
        walk()
    except Exception as exc:  # noqa: BLE001 - the reference's own error
        return exc
    raise AssertionError("the reference raised nothing")


# Rows failing at step 1, rows failing at step 2, and the row whose error
# comes first in draw order.
FAILING_ROWS = [({10}, {7}, 7), ({2}, {7}, 2), ({7}, {7, 3}, 3)]


@pytest.mark.parametrize("first, second, winner", FAILING_ROWS)
def test_a_failing_pair_block_raises_the_first_error_in_draw_order(
        first, second, winner):
    """Replayed row by row, a block raises the error of its first failing
    pair, not the first error of a step-by-step walk of the whole block."""
    T, pairs, seed = baseline_c_map(), 40, 5
    draws = T.domain.sample_rows(np.random.default_rng(seed), 2 * pairs)
    S = _raising(T, {draws.vec(i) for i in first},
                 {draws.vec(i) for i in second})

    def reference():
        for j in range(pairs):
            x, y = draws.vec(2 * j), draws.vec(2 * j + 1)
            if distance(x, y, T.norm) < PAIR_CUTOFF:
                continue
            for _ in range(2):
                x, y = S.apply(x), S.apply(y)

    want = _first_error(reference)
    assert str(want).endswith(format_vec(draws.vec(winner)))
    with pytest.raises(type(want)) as got:
        run_check(S, CheckRequest("holder_ratio", pairs=pairs, iterate=2),
                  seed)
    assert str(got.value) == str(want)


@pytest.mark.parametrize("first, second, winner", FAILING_ROWS)
def test_a_failing_sample_block_raises_the_first_error_in_draw_order(
        first, second, winner):
    T, samples, seed, delta = baseline_c_map(), 40, 5, 10.0
    draws = T.domain.sample_rows(np.random.default_rng(seed), samples)
    S = _raising(T, {draws.vec(i) for i in first},
                 {draws.vec(i) for i in second})

    def reference():
        for j in range(samples):
            x = draws.vec(j)
            tx = S.apply(x)
            if not distance(x, tx, T.norm) > delta:
                S.apply(tx)

    want = _first_error(reference)
    assert str(want).endswith(format_vec(draws.vec(winner)))
    with pytest.raises(type(want)) as got:
        run_check(S, CheckRequest("approx_fixed_set", samples=samples,
                                  delta=delta), seed)
    assert str(got.value) == str(want)


@pytest.mark.parametrize("batched", [False, True])
def test_an_escape_ends_the_replay_before_a_failing_row(batched):
    """Row j leaves the domain and apply raises on row j + 1: the replay
    stops at the escape, with or without a batch form."""
    T, samples, seed, j = norming_map(), 40, 5, 6
    draws = T.domain.sample_rows(np.random.default_rng(seed), samples)
    escapes, fails = draws.vec(j), draws.vec(j + 1)

    def apply(x):
        if x == fails:
            raise DomainViolationError("apply rejects row j + 1")
        return basis_vector(1, 2.0) if x == escapes else T.apply(x)

    def rows(x):
        if any(x.vec(i) == fails for i in range(len(x.tail))):
            raise ArithmeticError("the batch form rejects the block")
        return T.apply.rows(x)

    if batched:
        apply.rows = rows
    rec = run_check(dataclasses.replace(T, apply=apply),
                    CheckRequest("invariance", samples=samples), seed)
    assert rec.verdict == "fail"
    assert rec.witness == format_vec(escapes)
    assert rec.details["checked"] == len(T.domain.canonical_points()) + j + 1


def test_orbit_rejects_bad_start_and_depth():
    T = norming_map()
    with pytest.raises(InvalidBudgetError):
        orbit(T, ZERO, depth=-1)
    with pytest.raises(DomainViolationError):
        orbit(T, scale(2.0, basis_vector(1)), depth=3)


# ---------------------------------------------------------------------------
# estimate_displacement


def test_displacement_rejects_bad_budget_and_strategy():
    T = norming_map()
    with pytest.raises(InvalidBudgetError):
        estimate_displacement(T, "sample_min", budget=0, seed=0)
    with pytest.raises(InvalidStrategyError):
        estimate_displacement(T, "bogus", budget=10, seed=0)


def test_lambda_scaling_needs_a_star_shaped_domain():
    with pytest.raises(InvalidStrategyError):
        estimate_displacement(shift_simplex_map(), "lambda_scaling",
                              budget=10, seed=0)


def test_lambda_scaling_validates_the_schedule():
    with pytest.raises(InvalidParameterError) as err:
        estimate_displacement(norming_map(), "lambda_scaling", budget=10,
                              seed=0, lambdas=(1.0,))
    assert err.value.parameter == "lambdas"
    with pytest.raises(InvalidParameterError) as err:
        estimate_displacement(norming_map(), "lambda_scaling", budget=10,
                              seed=0, target=0.0)
    assert err.value.parameter == "target"


def test_cesaro_needs_an_affine_map():
    with pytest.raises(InvalidStrategyError):
        estimate_displacement(norming_map(), "cesaro_affine",
                              budget=10, seed=0)


def test_sample_min_never_increases_with_budget():
    T = deficiency_map()
    d100 = estimate_displacement(T, "sample_min", budget=100, seed=9)
    d400 = estimate_displacement(T, "sample_min", budget=400, seed=9)
    assert d400.value <= d100.value
    assert d100.value <= T.claims.displacement_bound + 1e-12


def test_cesaro_average_tracks_the_equal_mass_family():
    # Averaging n shifted spikes gives the equal-mass vector, whose
    # displacement is 2 * mass / n; so the estimate decays like 1/budget.
    T = shift_simplex_map()
    for budget in (50, 200):
        est = estimate_displacement(T, "cesaro_affine", budget=budget, seed=0)
        assert est.value == pytest.approx(2.0 * 0.125 / budget, rel=1e-12)


def test_lambda_scaling_drives_the_estimate_to_target():
    T = norming_map()
    est = estimate_displacement(T, "lambda_scaling", budget=200, seed=0)
    assert 0.0 < est.value <= 1e-3
    assert T.domain.contains(est.witness)


@pytest.mark.parametrize("strategy", ["sample_min", "orbit_min"])
def test_a_nan_displacement_counts_as_unbounded(strategy):
    # T(x) = {1: nan}: every displacement is NaN, which bounds nothing, so
    # the estimate is +inf and its witness the first point evaluated.
    T = dataclasses.replace(norming_map(),
                            apply=lambda x: SeqVec.from_dict({1: math.nan}))
    est = estimate_displacement(T, strategy, budget=40, seed=2)
    assert est.value == math.inf
    assert est.witness == T.domain.canonical_points()[0]
    assert est.evaluations == 40
    rec = run_check(T, CheckRequest("displacement", strategy=strategy,
                                    budget=40), 2)
    assert rec.measured == math.inf and rec.verdict == "report_only"


def test_strategies_is_the_one_table_of_strategies():
    assert list(STRATEGIES) == ["sample_min", "orbit_min", "lambda_scaling",
                                "cesaro_affine"]
    with pytest.raises(InvalidStrategyError) as err:
        estimate_displacement(norming_map(), "orbit_mn", budget=10, seed=0)
    assert all(name in str(err.value) for name in STRATEGIES)


def test_orbit_min_is_deterministic():
    T = deficiency_map()
    a = estimate_displacement(T, "orbit_min", budget=60, seed=0)
    b = estimate_displacement(T, "orbit_min", budget=60, seed=1)
    assert a == b  # no randomness: orbits start at the canonical points
    assert a.value <= T.claims.displacement_bound


# ---------------------------------------------------------------------------
# run_check: verdict rules


def test_holder_ratio_checks_the_claimed_exponent():
    rec = run_check(norming_map(), CheckRequest("holder_ratio", pairs=300,
                                                seed=2))
    assert rec.claimed == 1.0
    assert rec.verdict == "pass"
    assert rec.details["exponent"] == 0.5


def test_holder_ratio_at_exponent_one_uses_the_classical_claim():
    T = norming_map()
    rec = run_check(T, CheckRequest("holder_ratio", pairs=300, exponent=1.0,
                                    seed=2))
    assert rec.claimed == T.claims.classical_lipschitz
    assert rec.verdict == "pass"


def test_holder_ratio_without_a_matching_claim_is_report_only():
    rec = run_check(norming_map(), CheckRequest("holder_ratio", pairs=200,
                                                exponent=0.73, seed=2))
    assert rec.claimed is None
    assert rec.verdict == "report_only"
    # No classical constant at all: same downgrade.
    rec = run_check(goebel_kirk_map(), CheckRequest("holder_ratio", pairs=200,
                                                    exponent=1.0, seed=2))
    assert rec.claimed is None
    assert rec.verdict == "report_only"
    # Exponents outside (0, 1] are not Holder exponents of these maps.
    for exponent in (0.0, -1.0, 30.0):
        with pytest.raises(InvalidParameterError):
            run_check(norming_map(), CheckRequest("holder_ratio", pairs=20,
                                                  exponent=exponent))


def test_holder_ratio_iterates_bind_only_uniform_claims():
    # A single constant covers T^3 only for uniform maps; norming claims
    # per-iterate behaviour, so the measurement is recorded without a verdict.
    rec = run_check(norming_map(), CheckRequest("holder_ratio", pairs=200,
                                                iterate=3, seed=2))
    assert rec.claimed == 1.0
    assert rec.verdict == "report_only"


def test_displacement_verdict_bound_absent():
    rec = run_check(prus_map(), CheckRequest("displacement", budget=60,
                                             seed=4))
    assert rec.claimed is None
    assert rec.verdict == "report_only"


def test_displacement_verdict_zero_bound_confirmed():
    rec = run_check(norming_map(), CheckRequest("displacement", budget=60,
                                                seed=4))
    assert rec.claimed == 0.0
    assert rec.measured == 0.0  # the fixed point e1 is a canonical point
    assert rec.verdict == "pass"


def test_displacement_verdict_zero_bound_unreached():
    # lambda scaling never lands on the fixed point, and an upper estimate
    # cannot refute d = 0, so the record is report-only rather than a fail.
    rec = run_check(norming_map(),
                    CheckRequest("displacement", strategy="lambda_scaling",
                                 budget=200))
    assert rec.measured > 1e-12
    assert rec.verdict == "report_only"
    # With an explicit coarser tolerance the same witness confirms the bound.
    rec = run_check(norming_map(),
                    CheckRequest("displacement", strategy="lambda_scaling",
                                 budget=200, tolerance=1e-2))
    assert rec.verdict == "pass"


def test_displacement_verdict_positive_bound():
    rec = run_check(deficiency_map(), CheckRequest("displacement", budget=100,
                                                   seed=4))
    assert rec.claimed == 0.125
    assert rec.verdict == "pass"
    # A bound the witness stream cannot beat fails conclusively.
    T = deficiency_map()
    overclaimed = dataclasses.replace(
        T, claims=dataclasses.replace(T.claims, displacement_bound=1e-9)
    )
    rec = run_check(overclaimed, CheckRequest("displacement", budget=100,
                                              seed=4))
    assert rec.verdict == "fail"


def test_uniform_profile_record():
    rec = run_check(shift_simplex_map(),
                    CheckRequest("uniform_profile", pairs=200, n_list=(1, 2),
                                 seed=4))
    assert rec.verdict == "pass"
    assert sorted(rec.details["per_n"]) == ["1", "2"]
    assert rec.details["pairs_used"] <= 200


def test_uniform_profile_requires_a_uniform_claim():
    with pytest.raises(InvalidCheckError):
        run_check(goebel_kirk_map(),
                  CheckRequest("uniform_profile", pairs=50, seed=4))


def test_soft_claims_downgrade_profile_verdicts():
    rec = run_check(l1_ball_composite_map(),
                    CheckRequest("uniform_profile", pairs=100, n_list=(1, 2),
                                 seed=4))
    assert rec.verdict == "report_only"


def test_asymptotic_profile_record():
    T = goebel_kirk_map()
    rec = run_check(T, CheckRequest("asymptotic_profile", n_max=3, pairs=200,
                                    seed=4))
    assert rec.verdict == "pass"
    assert rec.measured <= 1.0 + 1e-9
    assert rec.details["profile"]["1"] == 2.0 * 2.0 ** 0.5


def test_asymptotic_profile_requires_a_profile():
    with pytest.raises(InvalidCheckError):
        run_check(norming_map(), CheckRequest("asymptotic_profile", pairs=50,
                                              seed=4))
    with pytest.raises(InvalidBudgetError):
        run_check(goebel_kirk_map(),
                  CheckRequest("asymptotic_profile", n_max=0, pairs=50,
                               seed=4))


def test_approx_fixed_set_record():
    rec = run_check(norming_map(), CheckRequest("approx_fixed_set",
                                                samples=300, seed=7))
    assert rec.verdict == "pass"
    assert rec.details["qualifying"] >= 1


def test_approx_fixed_set_validates_delta_and_samples():
    with pytest.raises(InvalidParameterError) as err:
        run_check(norming_map(), CheckRequest("approx_fixed_set", delta=0.5,
                                              samples=10))
    assert err.value.parameter == "delta"
    with pytest.raises(InvalidBudgetError):
        run_check(norming_map(), CheckRequest("approx_fixed_set", delta=1.0,
                                              samples=0))


def test_oracle_compare_record():
    rec = run_check(norming_map(), CheckRequest("oracle_compare", n_max=5))
    assert rec.verdict == "pass"
    assert rec.measured <= 1e-12


def test_walks_reject_a_start_outside_the_domain():
    """orbit and oracle_compare share one membership check of x0."""
    outside = SeqVec.from_dict({1: 5.0})  # norming's domain is the unit ball
    for kind in ("orbit", "oracle_compare"):
        with pytest.raises(DomainViolationError,
                           match=rf"^{kind} start \{{1:5.0\}} is outside"):
            run_check(norming_map(), CheckRequest(kind, x0=outside))


def test_oracle_compare_needs_an_oracle():
    with pytest.raises(InvalidCheckError):
        run_check(goebel_kirk_map(), CheckRequest("oracle_compare"))


def test_invariance_and_orbit_records():
    rec = run_check(norming_map(), CheckRequest("invariance", samples=100,
                                                seed=4))
    assert rec.claimed == "T(K) inside K"
    assert rec.verdict == "pass"
    assert rec.details["checked"] == 105

    rec = run_check(norming_map(), CheckRequest("orbit", depth=6))
    assert rec.verdict == "report_only"
    assert len(rec.details["displacements"]) == 6
    assert rec.details["final_displacement"] == rec.details["displacements"][-1]


# ---------------------------------------------------------------------------
# request plumbing


def test_unknown_check_kind_is_rejected():
    with pytest.raises(InvalidCheckError):
        CheckRequest("bogus")
    assert len(CHECKS) == 8


def test_requests_reject_fields_their_kind_does_not_read():
    """The config reader's field rule holds for Python callers as well."""
    with pytest.raises(InvalidCheckError,
                       match=r"^strategy 'orbit_min' does not read "
                             r"\['lambdas', 'target'\]$"):
        CheckRequest("displacement", strategy="orbit_min", lambdas=(7.0,),
                     target=-1.0, budget=10)
    with pytest.raises(InvalidCheckError,
                       match=r"^check kind 'orbit' does not read "
                             r"\['seed'\]$"):
        CheckRequest("orbit", seed=4)
    with pytest.raises(InvalidCheckError, match=r"\['strategy'\]$"):
        CheckRequest("invariance", strategy="orbit_min")
    # defaults are not given fields, and lambda_scaling reads both
    CheckRequest("displacement", strategy="orbit_min",
                 lambdas=FIELDS["lambdas"].default)
    CheckRequest("displacement", strategy="lambda_scaling", lambdas=(0.5,),
                 target=0.1)


def _comparable(rec):
    return dataclasses.replace(rec, runtime_ms=0.0)


@pytest.mark.parametrize("kind, extra", [
    ("holder_ratio", {"pairs": 150}),
    ("invariance", {"samples": 80}),
    ("displacement", {"budget": 80}),
    ("uniform_profile", {"pairs": 100, "n_list": (1, 3)}),
])
def test_run_check_is_reproducible(kind, extra):
    T = shift_simplex_map()
    req = CheckRequest(kind, seed=13, **extra)
    a = run_check(T, req)
    b = run_check(T, req)
    assert _comparable(a) == _comparable(b)
    assert a.runtime_ms >= 0.0


def test_request_seed_overrides_the_default():
    T = norming_map()
    req = CheckRequest("holder_ratio", pairs=150, seed=5)
    a = run_check(T, req, default_seed=0)
    b = run_check(T, req, default_seed=9)
    assert _comparable(a) == _comparable(b)


def test_records_carry_direction_and_passed():
    rec = run_check(norming_map(), CheckRequest("holder_ratio", pairs=100,
                                                seed=1))
    assert rec.direction
    assert rec.passed == (rec.verdict == "pass")
    rec = run_check(norming_map(), CheckRequest("orbit", depth=3))
    assert rec.direction
    assert not rec.passed
