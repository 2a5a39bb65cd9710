"""Checker semantics: estimators, strategies, verdict rules, determinism."""

import dataclasses
import math
from operator import getitem

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holderlab.catalog import (
    ClaimProfile,
    affine_cube_map,
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
    HolderLabError,
    InsufficientSamplesError,
    InvalidBudgetError,
    InvalidCheckError,
    InvalidParameterError,
    InvalidStrategyError,
    NotInSpaceError,
)
from holderlab import verify
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
from holderlab.verify import (
    CHECKS,
    FIELDS,
    PAIR_CUTOFF,
    STRATEGIES,
    BLOCK_ELEMENTS,
    CheckRequest,
    OrbitResult,
    _Least,
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


def _poisoned(T, bad):
    """T with `bad` at coordinate 1 of every image, by points and by rows."""

    def apply(x):
        y = T.apply(x)
        return SeqVec.from_dict({**dict(y.support), 1: bad}, y.tail)

    def rows(x):
        # iterates feed the inner batch form infinite coordinates, which no
        # domain holds, so its arithmetic may meet inf * 0
        with np.errstate(invalid="ignore"):
            y = T.apply.rows(x).widen(1)
        vals = y.vals.copy()
        vals[:, 0] = bad
        return Rows(vals, y.tail)

    apply.rows = rows
    return dataclasses.replace(T, apply=apply)


EVERY_KIND = [
    CheckRequest("holder_ratio", pairs=40),
    CheckRequest("invariance", samples=40),
    CheckRequest("orbit", depth=8),
    *(CheckRequest("displacement", strategy=s, budget=40) for s in STRATEGIES),
    CheckRequest("uniform_profile", n_list=(1, 2), pairs=20),
    CheckRequest("asymptotic_profile", n_max=3, pairs=20),
    CheckRequest("approx_fixed_set", samples=40),
    CheckRequest("oracle_compare", n_max=4),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["prus", "shift_simplex", "goebel_kirk",
                                  "norming", "hyperconvex", "deficiency"])
def test_a_nan_or_inf_image_passes_no_check(name, bad):
    """Every check kind on a map whose images hold NaN or +inf either raises
    or does not pass, with one pinned exception: under +inf no sample lies
    within delta of its image, so approx_fixed_set passes on an empty set."""
    assert {req.kind for req in EVERY_KIND} == set(CHECKS)
    T = _poisoned(build_map(name), bad)
    for req in EVERY_KIND:
        try:
            rec = run_check(T, req, 3)
        except HolderLabError:
            continue
        if req.kind == "approx_fixed_set" and bad == math.inf:
            assert (rec.verdict, rec.details["qualifying"]) == ("pass", 0)
        else:
            assert rec.verdict != "pass", (req, rec.measured)


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


def test_invariance_meets_the_canonical_points_in_order():
    """The canonical images are tested as one block, but as point by point:
    an image that escapes before a point apply rejects is the witness, and
    the error is raised only when every image before it stays inside."""
    T = norming_map()
    small = dataclasses.replace(T.domain, r=0.25)  # T(0) lands outside
    last = {K.canonical_points()[-1] for K in (T.domain, small)}

    def apply(x):
        if x in last:
            raise DomainViolationError("apply rejects the last point")
        return T.apply(x)

    req = CheckRequest("invariance", samples=10)
    rec = run_check(dataclasses.replace(T, apply=apply, domain=small), req, 7)
    assert (rec.measured, rec.witness, rec.details["checked"]) == (
        1.0, format_vec(ZERO), 1)
    with pytest.raises(DomainViolationError, match="the last point"):
        run_check(dataclasses.replace(T, apply=apply), req, 7)


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


@pytest.mark.parametrize("T", _batched_maps(), ids=lambda T: T.name)
def test_row_walks_equal_point_walks_across_chunks(T, monkeypatch):
    """With blocks of 2^10 elements a walk crosses a chunk boundary every
    few iterates; the row walk still measures what the point walk
    measures, bit for bit: each value, the witness and the count, the
    largest norm and the last iterate."""
    monkeypatch.setattr(verify, "BLOCK_ELEMENTS", 2 ** 10)
    fell_back = [] if T.name in OUTGROWN else None
    R, P = _row_walk(T, fell_back), _point_walk(T)
    for strategy in _accepted_strategies(T):
        budget = 300 if strategy == "lambda_scaling" else 150
        rows = estimate_displacement(R, strategy, budget=budget, seed=3)
        points = estimate_displacement(P, strategy, budget=budget, seed=3)
        assert rows == points, (T.name, strategy)
    for x0 in T.domain.canonical_points():
        assert orbit(R, x0, 60) == orbit(P, x0, 60), (T.name, str(x0))
    if T.iterate_oracle is not None:
        req = CheckRequest("oracle_compare", n_max=60)
        assert (_comparable(run_check(R, req, 1))
                == _comparable(run_check(P, req, 1)))
    assert fell_back is None or fell_back


def _walked(w):
    return w.values, w.least.value, w.least.witness, w.least.evaluations, \
        w.max_norm, w.final


@pytest.mark.parametrize("stop_at", [40, 64, 128, 192])
def test_a_lambda_walk_takes_no_step_past_its_stop(monkeypatch, stop_at):
    """A walk with a stop ends its chunk at each checkpoint, so stopping at
    checkpoint k it makes the k steps to x_k and one measurement per
    checkpoint, and no more: a map that raises on any later call walks as
    the plain map does, by rows and by points."""
    monkeypatch.setattr(verify, "BLOCK_ELEMENTS", 2 ** 10)
    T = hyperconvex_map()
    x0, lam, n = T.domain.canonical_points()[0], 0.99, 1000
    at = verify._lambda_checkpoints(n)
    full = verify._walk(T, x0, n, at, lam=lam)
    checkpoints = [k for k in range(n + 1) if at(k)]
    j = checkpoints.index(stop_at)
    target = full.values[j]
    assert min(full.values[:j]) > target  # the walk stops at stop_at
    calls = stop_at + j + 1  # the steps, then a measurement per checkpoint
    made = []

    def apply(x):
        if len(made) == calls:
            raise RuntimeError("a call past the stop")
        made.append(x)
        return T.apply(x)

    def rows(x):
        if len(made) == calls:
            raise RuntimeError("a call past the stop")
        made.append(x)
        return T.apply.rows(x)

    apply.rows = rows
    want = verify._walk(T, x0, n, at, lam=lam, stop=target)
    assert want.values == full.values[:j + 1]
    assert want.final == verify._walk(T, x0, stop_at, at, lam=lam).final
    for walker in (dataclasses.replace(T, apply=apply),
                   _point_walk(dataclasses.replace(T, apply=apply))):
        made.clear()
        got = verify._walk(walker, x0, n, at, lam=lam, stop=target)
        assert _walked(got) == _walked(want)
        assert len(made) == calls


def test_walks_measure_both_ends_of_their_loop():
    """By rows and by points, a walk measures its first iterate and its
    last: an orbit of depth 0, oracle_compare to n_max 0, a Cesaro walk of
    its start alone and lambda walks of one step each."""
    A = affine_cube_map()
    x0 = A.domain.canonical_points()[0]
    for by in (_row_walk, _point_walk):
        assert orbit(by(prus_map()), ZERO, 0) == OrbitResult(ZERO, (), 0.0)
        rec = run_check(by(hyperconvex_map()),
                        CheckRequest("oracle_compare", n_max=0), 1)
        assert (rec.measured, rec.verdict) == (0.0, "pass")
        est = estimate_displacement(by(A), "cesaro_affine", budget=1, seed=0)
        assert (est.value, est.witness, est.evaluations) == (
            A.displacement(x0), x0, 1)
        est = estimate_displacement(by(hyperconvex_map()), "lambda_scaling",
                                    budget=1, seed=0, target=2.0)
        assert (est.value, est.evaluations) == (0.25, 4)


def test_a_walk_raises_its_first_error_in_walk_order():
    """hyperconvex's oracle raises at k = 2 and its step to x_4 raises:
    the point walk, and the row walk that the failing step sends to
    points, both raise the oracle's error, as a walk that measured each
    iterate as it came would."""
    T = hyperconvex_map()
    x3 = T.iterate(T.domain.canonical_points()[0], 3)

    def oracle(x, k):
        if k == 2:
            raise NotInSpaceError("the oracle at k = 2")
        return T.iterate_oracle(x, k)

    def apply(x):
        if x == x3:
            raise NotInSpaceError("the step to x_4")
        return T.apply(x)

    def rows(x):
        if x.vec(0) == x3:
            raise NotInSpaceError("the step to x_4")
        return T.apply.rows(x)

    apply.rows = rows
    req = CheckRequest("oracle_compare", n_max=6)
    for S in (dataclasses.replace(T, apply=apply),
              _point_walk(dataclasses.replace(T, apply=apply))):
        with pytest.raises(NotInSpaceError, match="^the step to x_4$"):
            run_check(S, req, 1)
        with pytest.raises(NotInSpaceError, match="^the oracle at k = 2$"):
            run_check(dataclasses.replace(S, iterate_oracle=oracle), req, 1)


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5,
                            1.0, 2.0])
_DISPLACEMENTS = st.lists(st.one_of(_SPECIAL, st.floats()), max_size=12)


def _least_in_turn(stream):
    """The reference fold, one value at a time: the least value, NaN
    counting as +inf, the first point that reached it (the first point
    when every value is +inf), and the number of values."""
    value, witness = math.inf, None
    for d, x in stream:
        if witness is None or d < value:
            value, witness = (math.inf if d != d else d), x
    return value, witness, len(stream)


@given(_DISPLACEMENTS, _DISPLACEMENTS.filter(bool))
def test_consider_rows_is_consider_in_turn(before, d):
    """_Least.consider_rows(d, x) folds in d[j] and x[j] for each j in
    turn, after any stream before it (here a list of values and points),
    on NaN, infinities and ties."""
    x = Rows(np.arange(1.0, len(d) + 1)[:, None], np.zeros(len(d)))
    a = _Least()
    a.consider_rows(before, [ZERO] * len(before), getitem)
    a.consider_rows(np.array(d), x)
    want = _least_in_turn([(v, ZERO) for v in before]
                          + [(v, x.vec(j)) for j, v in enumerate(d)])
    assert (a.value, a.witness, a.evaluations) == want


def test_a_walk_measures_every_iterate_at_picks():
    """A lambda walk measures ||x_k - T x_k|| at each k that `at` picks,
    and at every k when it is given none, by rows and by points."""
    T, lam = hyperconvex_map(), 0.5
    xs = [T.domain.canonical_points()[0]]
    for _ in range(6):
        xs.append(T.apply(scale(lam, xs[-1])))
    want = [T.displacement(x) for x in xs]
    for S in (_row_walk(T), _point_walk(T)):
        assert verify._walk(S, xs[0], 6, lam=lam).values == want
        assert (verify._walk(S, xs[0], 6, lambda k: k % 3 == 1,
                             lam=lam).values == want[1::3])
    # a mean's sums need every iterate: a pick would leave some out
    with pytest.raises(TypeError):
        verify._walk(T, xs[0], 6, lambda k: True, mean=True)


def test_an_image_width_probe_that_raises_gives_the_input_width():
    """A batch form that raises on the zero-row probe (here at its second
    step, after widening the block) leaves the width as it was given."""
    T = prus_map()

    def rows(x):
        if x.width != 7:
            raise ValueError("the second step")
        return Rows(np.empty((0, 9)), np.empty(0))

    apply = _point_walk(T).apply
    apply.rows = rows
    S = dataclasses.replace(T, apply=apply)
    assert verify._image_width(S, 7, 1) == 9
    assert verify._image_width(S, 7, 2) == 7


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
    # one call a step, and one per chunk of Cesaro means, a chunk holding
    # as many rows as half a block takes at the widest row
    assert len(widths) == (1500 - 1) + math.ceil(
        1500 / (BLOCK_ELEMENTS // (2 * (max(widths) + verify._ROW_COST))))
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
    n = len(T.domain.canonical_points())  # the first block
    assert sum(blocks) == 700 + n and len(blocks) > 1


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


def test_lambda_scaling_without_lambdas_evaluates_no_witness():
    with pytest.raises(InsufficientSamplesError):
        estimate_displacement(norming_map(), "lambda_scaling", budget=10,
                              seed=0, lambdas=())


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


def test_approx_fixed_set_claims_the_holder_bound_at_delta():
    """||Tx - T^2x|| <= L ||x - Tx||^alpha <= L delta^alpha: the iterate-1
    claim on the pair (x, Tx)."""
    T = goebel_kirk_map()
    rec = run_check(T, CheckRequest("approx_fixed_set", samples=200,
                                    delta=2.0, seed=7))
    assert rec.claimed == 2.0 * 2.0 ** T.claims.alpha
    assert rec.verdict == "pass"
    assert rec.witness is None


def test_soft_claims_are_report_only_and_structural_claims_are_not():
    """hard = False makes every check of a ClaimProfile field report_only;
    invariance and oracle_compare test no field and keep their verdicts."""
    T = norming_map()
    soft = dataclasses.replace(T, claims=dataclasses.replace(T.claims,
                                                             hard=False))
    for req in (CheckRequest("holder_ratio", pairs=100),
                CheckRequest("displacement", budget=60),
                CheckRequest("approx_fixed_set", samples=100)):
        assert run_check(T, req, 4).verdict == "pass"
        assert run_check(soft, req, 4).verdict == "report_only"
    for req in (CheckRequest("invariance", samples=100),
                CheckRequest("oracle_compare", n_max=5)):
        assert run_check(soft, req, 4).verdict == "pass"


# ClaimProfile fields that qualify a claim (its exponent, its reach over
# iterates, whether it is hard, affinity for cesaro_affine) rather than
# state a bound.
QUALIFIERS = {"alpha", "uniform", "hard", "affine"}


def test_every_check_names_the_claim_fields_it_tests():
    """Each CHECKS entry tests ClaimProfile fields, or none for a structural
    claim.  lower_bound and fixed_points have no check yet (ROADMAP item
    4): that item shrinks this set or deletes the fields."""
    fields = {f.name for f in dataclasses.fields(ClaimProfile)}
    tested = set()
    for kind, check in CHECKS.items():
        assert set(check.tests) <= fields - QUALIFIERS, kind
        tested |= set(check.tests)
    structural = {kind for kind, check in CHECKS.items() if not check.tests}
    assert structural == {"invariance", "oracle_compare", "orbit"}
    assert fields - QUALIFIERS - tested == {"lower_bound", "fixed_points"}


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


def test_oracle_compare_rejects_a_negative_n_max():
    with pytest.raises(InvalidBudgetError, match="n_max -1"):
        run_check(norming_map(), CheckRequest("oracle_compare", n_max=-1))


def test_asymptotic_profile_rejects_an_n_max_past_the_block():
    req = CheckRequest("asymptotic_profile", n_max=BLOCK_ELEMENTS + 1, pairs=2)
    with pytest.raises(InvalidBudgetError, match="n_max 16385 is above 16384"):
        run_check(goebel_kirk_map(), req)


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
