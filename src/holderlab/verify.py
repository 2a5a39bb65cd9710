"""Empirical checks of the claims a MapInstance carries.

Measured suprema are lower bounds for true constants, so a claimed upper
bound can fail (measured above the claim, conclusive) or pass (evidence,
not proof).  Displacement estimates point the other way: they are upper
bounds for the minimal displacement, so a positive claimed bound passes
once some witness beats it, a zero bound can only be confirmed exactly
(otherwise the estimate is recorded report-only), and an absent bound is
always report-only.

CHECKS is the one table of check kinds.  Each entry names the request
fields it reads (FIELDS declares their types and defaults) and the function
that turns a map, a request and a seed into a CheckRecord, so a new check
kind is one such function and one CHECKS entry.  STRATEGIES is the one
table of displacement strategies.  Every orbit-style walk (the orbit check,
oracle_compare and the orbit strategies) is one call of the orbit kernel.

Every check is deterministic given its seed; identical requests produce
identical results bit for bit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, make_dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .catalog import MapInstance
from .domains import DomainSpec, as_rng
from .errors import (
    InvalidBudgetError,
    InvalidCheckError,
    InvalidParameterError,
    InvalidStrategyError,
    InsufficientSamplesError,
    DomainViolationError,
)
from .seqvec import (SeqVec, Rows, axpy, distance, format_vec, norm,
                     pow_each, row_distance, row_norm, rows_distance, scale)

__all__ = [
    "PAIR_CUTOFF",
    "BLOCK_ELEMENTS",
    "RATIO_SLACK",
    "ORACLE_TOL",
    "PairRatios",
    "OrbitResult",
    "DisplacementEstimate",
    "Field",
    "FIELDS",
    "COMMON_FIELDS",
    "Check",
    "CHECKS",
    "STRATEGIES",
    "CheckRequest",
    "CheckRecord",
    "pair_ratios",
    "orbit",
    "estimate_displacement",
    "run_check",
]

PAIR_CUTOFF = 1e-13  # pairs closer than this are degenerate for ratios
RATIO_SLACK = 1e-9   # multiplicative slack on claimed constants
ORACLE_TOL = 1e-12
DISPLACEMENT_TOL = 1e-12
# Array elements in one block of sampled rows, which bounds a check's memory
# for any sample count and breadth.  A batch form widens a row by at most two
# columns per step, so sizing blocks by max(breadth, 2 * steps) keeps every
# iterate block under twice this.
BLOCK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class PairRatios:
    sups: dict[int, float]  # iterate n -> sup ratio over the sampled pairs
    witness: tuple[SeqVec, SeqVec]  # the pair with the largest ratio
    pairs_used: int


@dataclass(frozen=True)
class OrbitResult:
    final: SeqVec  # the last iterate
    displacements: tuple[float, ...]
    max_norm: float


@dataclass(frozen=True)
class DisplacementEstimate:
    value: float
    witness: SeqVec
    evaluations: int


@dataclass
class CheckRecord:
    kind: str
    claimed: object
    measured: float | None
    verdict: str  # "pass" | "fail" | "report_only"
    witness: str | None
    direction: str
    runtime_ms: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _block_sizes(count: int, width: int) -> Iterator[int]:
    """Split `count` items of `width` array elements each into blocks."""
    step = max(1, BLOCK_ELEMENTS // width)
    for start in range(0, count, step):
        yield min(step, count - start)


def _sampled_points(K: DomainSpec, rng, count: int) -> Iterator[SeqVec]:
    """`count` members of K drawn block by block, one at a time."""
    for k in _block_sizes(count, K.breadth):
        block = K.sample_rows(rng, k)
        for i in range(k):
            yield block.vec(i)


def _by_rows(T: MapInstance, on_rows: Callable, on_points: Callable, *args,
             **kwargs):
    """on_rows(T, ...) when T.apply has a batch form, else on_points.

    A batch form can meet a failing row at another stage than the point by
    point walk does, so a block that fails is walked again point by point:
    the error raised is then the one of the first failure in draw order."""
    if getattr(T.apply, "rows", None) is not None:
        try:
            return on_rows(T, *args, **kwargs)
        except (ValueError, ArithmeticError):
            pass
    return on_points(T, *args, **kwargs)


# The pair kernel: for x[j], y[j] the distance d[j], the indices `kept` of
# the pairs with d >= PAIR_CUTOFF (or NaN), and for those the distances
# ||T^n x - T^n y|| at each n in `ns` (ascending), one column per n.

def _iterate_rows(T: MapInstance, x: Rows, y: Rows, ns: list[int]):
    column = {n: c for c, n in enumerate(ns)}
    d = rows_distance(x, y, T.norm)
    kept = np.flatnonzero(~(d < PAIR_CUTOFF))
    dists = np.empty((len(kept), len(ns)))
    if len(kept):
        cx, cy = x.take(kept), y.take(kept)
        for n in range(1, ns[-1] + 1):
            cx, cy = T.apply.rows(cx), T.apply.rows(cy)
            if n in column:
                dists[:, column[n]] = rows_distance(cx, cy, T.norm)
    return d, kept, dists


def _iterate_points(T: MapInstance, x: Rows, y: Rows, ns: list[int]):
    d, kept, dists = [], [], []
    for j in range(len(x.tail)):
        cx, cy = x.vec(j), y.vec(j)
        d.append(distance(cx, cy, T.norm))
        if d[-1] < PAIR_CUTOFF:
            continue
        kept.append(j)
        for n in range(1, ns[-1] + 1):
            cx, cy = T.apply(cx), T.apply(cy)
            if n in ns:
                dists.append(distance(cx, cy, T.norm))
    return (np.array(d), np.array(kept, dtype=np.int64),
            np.array(dists).reshape(len(kept), len(ns)))


def pair_ratios(T: MapInstance, ns: tuple[int, ...], pairs: int, seed: int,
                exponent: float | None = None) -> PairRatios:
    """sup over sampled pairs of ||T^n x - T^n y|| / ||x - y||^exponent for
    every n in ns, walking each pair's orbit once: the sampled Lipschitz
    estimate of Wood & Zhang (1996), taken per iterate.

    The exponent defaults to the claimed one; pairs closer than PAIR_CUTOFF
    are skipped (the ratio is numerically meaningless there) and a NaN ratio
    counts as +inf.  Pairs travel as blocks of rows through the batch form of
    T.apply when it has one, and pair by pair otherwise; the witness is the
    first pair in draw order that reaches the largest ratio."""
    if pairs < 1:
        raise InvalidBudgetError(f"pairs {pairs} is below 1")
    if not ns or min(ns) < 1:
        raise InvalidBudgetError("iterates must be integers >= 1")
    a = T.claims.alpha if exponent is None else exponent
    rng = as_rng(seed)
    steps = sorted(set(ns))
    sups = dict.fromkeys(ns, -1.0)
    best = -1.0
    witness: tuple[Rows, Rows] | None = None  # made SeqVecs once, at the end
    used = 0
    # two rows per pair
    for k in _block_sizes(pairs, 2 * max(T.domain.breadth, 2 * steps[-1])):
        rows = T.domain.sample_rows(rng, 2 * k)
        x, y = rows.take(slice(0, None, 2)), rows.take(slice(1, None, 2))
        d, kept, dists = _by_rows(T, _iterate_rows, _iterate_points,
                                  x, y, steps)
        if not len(kept):
            continue
        used += len(kept)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = dists / pow_each(d[kept], a)[:, None]
        ratios[np.isnan(ratios)] = math.inf  # a NaN distance is unbounded
        for n, top in zip(steps, ratios.max(axis=0).tolist()):
            sups[n] = max(sups[n], top)
        per_pair = ratios.max(axis=1)
        j = int(np.argmax(per_pair))
        if per_pair[j] > best:
            best = float(per_pair[j])
            witness = (x.take([kept[j]]), y.take([kept[j]]))
    if witness is None:
        raise InsufficientSamplesError(
            f"all {pairs} sampled pairs were degenerate"
        )
    return PairRatios(sups, (witness[0].vec(0), witness[1].vec(0)), used)


class _Least:
    """The least of a stream of displacements, NaN counting as +inf, and
    the first point that reached it (the first point considered when every
    displacement is +inf)."""

    def __init__(self) -> None:
        self.value = math.inf
        self.witness = None
        self.evaluations = 0

    def consider(self, d: float, x) -> None:
        self.evaluations += 1
        if self.witness is None or d < self.value:
            self.value, self.witness = (math.inf if d != d else d), x

    def merge(self, other: "_Least") -> None:
        """Fold in a stream considered after this one."""
        self.evaluations += other.evaluations
        if other.witness is not None and (self.witness is None
                                          or other.value < self.value):
            self.value, self.witness = other.value, other.witness


class _Ops(NamedTuple):
    """How an orbit walk holds its points."""

    point: Callable   # SeqVec -> a point
    vec: Callable     # a point -> SeqVec
    apply: Callable   # (T, a point) -> T of it
    scale: Callable   # (a, x) -> a x
    add: Callable     # (x, y) -> x + y
    distance: Callable
    norm: Callable


def _row_sum(x: Rows, y: Rows) -> Rows:
    width = max(x.width, y.width)
    x, y = x.widen(width), y.widen(width)
    with np.errstate(over="ignore", invalid="ignore"):
        return Rows(x.vals + y.vals, x.tail + y.tail).trimmed()


# SeqVecs.  The seqvec functions are looked up when called, so a wrapper
# set on this module's names (the benchmark's tracer) sees point walks.
_POINTS = _Ops(lambda x: x, lambda x: x, lambda T, x: T.apply(x),
               lambda a, x: scale(a, x), lambda x, y: axpy(1.0, x, 1.0, y),
               lambda x, y, kind: distance(x, y, kind),
               lambda x, kind: norm(x, kind))
# One-row blocks through the batch form, trimmed after every step so that a
# support that underflows at its far end keeps the row narrow.  The one-row
# norm and distance are the scalar ones bit for bit, and scale and add round
# as `scale` and `axpy` do.
_ROWS = _Ops(Rows.of, lambda x: x.vec(0),
             lambda T, x: T.apply.rows(x).trimmed(),
             lambda a, x: Rows(a * x.vals, a * x.tail), _row_sum,
             row_distance, row_norm)


class _Walked(NamedTuple):
    values: list[float]  # the measurement at each checkpoint, in order
    least: _Least        # their least, with a SeqVec witness
    max_norm: float | None
    final: SeqVec        # the last iterate


def _orbit_kernel(ops: _Ops, T: MapInstance, x0: SeqVec, steps: int,
                  at: Callable[[int], bool], lam: float | None = None,
                  mean: bool = False, oracle: Callable | None = None,
                  stop: float | None = None, norms: bool = False) -> _Walked:
    """Walk x_0 = x0, x_k+1 = T(lam x_k) (T x_k without lam) up to x_steps,
    and at each k with at(k) measure one point p_k, which is x_k or, with
    mean, the Cesaro mean of x_0..x_k: ||p_k - T p_k||, or with an oracle
    ||p_k - oracle(x0, k)||.  The walk ends early after a measurement
    <= stop; with norms it tracks the largest norm of an iterate."""
    x = total = ops.point(x0)
    max_norm = ops.norm(x, T.norm) if norms else None
    least, values = _Least(), []
    for k in range(steps + 1):
        nxt = None
        if at(k):
            p = ops.scale(1.0 / (k + 1), total) if mean else x
            if oracle is not None:
                q = ops.point(oracle(x0, k))
            else:
                q = ops.apply(T, p)
                if not mean and lam is None:
                    nxt = q  # T x_k is the next iterate
            d = ops.distance(p, q, T.norm)
            values.append(d)
            least.consider(d, p)
            if stop is not None and d <= stop:
                break
        if k == steps:
            break
        if nxt is None:
            nxt = ops.apply(T, x if lam is None else ops.scale(lam, x))
        x = nxt
        if mean:
            total = ops.add(total, x)
        if norms:
            n = ops.norm(x, T.norm)
            if n > max_norm:
                max_norm = n
    if least.witness is not None:
        least.witness = ops.vec(least.witness)
    return _Walked(values, least, max_norm, ops.vec(x))


def _walk(T: MapInstance, x0: SeqVec, steps: int, at: Callable[[int], bool],
          **how) -> _Walked:
    """The orbit kernel, on one-row blocks when T.apply has a batch form and
    x0's row fits in one block.  A sparse start with a far index (x0 =
    {10^9: t}) would make a row of that width, so it walks by points."""
    if x0.support and x0.support[-1][0] > BLOCK_ELEMENTS:
        return _orbit_kernel(_POINTS, T, x0, steps, at, **how)
    return _by_rows(T, functools.partial(_orbit_kernel, _ROWS),
                    functools.partial(_orbit_kernel, _POINTS),
                    x0, steps, at, **how)


def orbit(T: MapInstance, x0: SeqVec, depth: int) -> OrbitResult:
    """The orbit of x0 to depth: each step's displacement, the largest
    norm of an iterate and the last iterate."""
    if depth < 0:
        raise InvalidBudgetError(f"depth {depth} is below 0")
    if not T.domain.contains(x0):
        raise DomainViolationError(
            f"orbit start {format_vec(x0)} is outside the domain"
        )
    walk = _walk(T, x0, depth, lambda k: k < depth, norms=True)
    return OrbitResult(walk.final, tuple(walk.values), walk.max_norm)


# The displacement strategies, each (T, budget, seed, lambdas, target) ->
# the least displacement it evaluated.  All witness streams extend under a
# larger budget, so estimates never increase with it.

def _sample_min(T: MapInstance, budget: int, seed: int, lambdas, target):
    """The canonical points, the instance's witness family and random
    samples."""
    least = _Least()
    for x in T.domain.canonical_points():
        least.consider(T.displacement(x), x)
    if T.witness_family is not None:
        for x in T.witness_family(budget):
            least.consider(T.displacement(x), x)
    for x in _sampled_points(T.domain, as_rng(seed),
                             budget - least.evaluations):
        least.consider(T.displacement(x), x)
    return least


def _orbit_min(T: MapInstance, budget: int, seed: int, lambdas, target):
    """Orbits from the canonical points, the budget shared between them."""
    starts = T.domain.canonical_points()
    steps = max(1, budget // max(1, len(starts)))
    least = _Least()
    for x0 in starts:
        least.merge(_walk(T, x0, steps, lambda k: k < steps).least)
    return least


def _lambda_steps(lam: float, target: float, cap: int) -> int:
    n = math.ceil(math.log(target) / math.log(lam))
    return max(1, min(n, cap, 10_000))


def _lambda_checkpoints(n: int) -> Callable[[int], bool]:
    """Steps 1 to 64, then powers of two, multiples of 64 and step n."""
    return lambda k: 0 < k and (k <= 64 or k & (k - 1) == 0 or k % 64 == 0
                                or k == n)


def _lambda_scaling(T: MapInstance, budget: int, seed: int, lambdas, target):
    """Orbits of x -> T(lam x) for each lam, the displacement of T itself
    evaluated at checkpoints along each until one reaches the target."""
    if not T.domain.star_shaped:
        raise InvalidStrategyError(
            f"lambda_scaling needs a domain star-shaped about 0, "
            f"not {T.domain.kind}"
        )
    if not target > 0.0:
        raise InvalidParameterError("target", "requires target > 0")
    if not all(0.0 < lam < 1.0 for lam in lambdas):
        raise InvalidParameterError("lambdas", "requires 0 < lam < 1")
    least = _Least()
    for lam in lambdas:
        n = _lambda_steps(lam, target, budget)
        least.merge(_walk(T, T.domain.canonical_points()[0], n,
                          _lambda_checkpoints(n), lam=lam, stop=target).least)
    return least


def _cesaro_affine(T: MapInstance, budget: int, seed: int, lambdas, target):
    """The Cesaro means of one orbit (affine maps only)."""
    if not T.claims.affine:
        raise InvalidStrategyError(
            "cesaro_affine needs an affine map (claims.affine)"
        )
    return _walk(T, T.domain.canonical_points()[0], budget - 1,
                 lambda k: True, mean=True).least


STRATEGIES: dict[str, Callable[..., _Least]] = {
    "sample_min": _sample_min,
    "orbit_min": _orbit_min,
    "lambda_scaling": _lambda_scaling,
    "cesaro_affine": _cesaro_affine,
}


def estimate_displacement(T: MapInstance, strategy: str, budget: int,
                          seed: int,
                          lambdas: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999),
                          target: float = 1e-3) -> DisplacementEstimate:
    """Upper estimate of the minimal displacement inf ||x - Tx|| by one of
    the STRATEGIES; a NaN displacement counts as +inf."""
    if budget < 1:
        raise InvalidBudgetError(f"budget {budget} is below 1")
    if strategy not in STRATEGIES:
        raise InvalidStrategyError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGIES)}"
        )
    least = STRATEGIES[strategy](T, budget, seed, lambdas, target)
    if least.witness is None:
        raise InsufficientSamplesError("no displacement witness was evaluated")
    return DisplacementEstimate(least.value, least.witness, least.evaluations)


# ---------------------------------------------------------------------------
# Check kinds, each run(T, req, seed) -> CheckRecord


def _pair_witness(pair: tuple[SeqVec, SeqVec]) -> str:
    return f"x = {format_vec(pair[0])}, y = {format_vec(pair[1])}"


def _hard_verdict(measured: float, claimed: float | None, hard: bool) -> str:
    if claimed is None or not hard:
        return "report_only"
    return "pass" if measured <= claimed * (1.0 + RATIO_SLACK) else "fail"


def _tolerance(req: CheckRequest, default: float) -> float:
    return req.tolerance if req.tolerance is not None else default


def _start(T: MapInstance, req: CheckRequest) -> SeqVec:
    return req.x0 if req.x0 is not None else T.domain.canonical_points()[0]


def _holder_ratio(T: MapInstance, req: CheckRequest, seed: int) -> CheckRecord:
    """Iterate ratios at the claimed exponent bind the claimed constant;
    at exponent 1 they bind the classical one."""
    claims = T.claims
    if req.exponent is not None and not 0.0 < req.exponent <= 1.0:
        raise InvalidParameterError("exponent", "requires 0 < exponent <= 1")
    a = claims.alpha if req.exponent is None else req.exponent
    est = pair_ratios(T, (req.iterate,), req.pairs, seed, a)
    sup = est.sups[req.iterate]
    if a == claims.alpha:
        claimed = claims.holder_constant
    elif a == 1.0:
        claimed = claims.classical_lipschitz
    else:
        claimed = None
    covered = claims.uniform or req.iterate == 1
    return CheckRecord(
        "holder_ratio", claimed, sup,
        _hard_verdict(sup, claimed if covered else None, claims.hard),
        _pair_witness(est.witness),
        direction=("measured sup ratio is a lower bound for the true "
                   "constant; the claim is an upper bound"),
        details={"exponent": a, "iterate": req.iterate,
                 "pairs_used": est.pairs_used},
    )


# The escape kernel: the index of the first row x[j] with T x[j] outside
# T's domain, or None.

def _escape_rows(T: MapInstance, x: Rows) -> int | None:
    outside = np.flatnonzero(~T.domain.contains_rows(T.apply.rows(x)))
    return int(outside[0]) if len(outside) else None


def _escape_points(T: MapInstance, x: Rows) -> int | None:
    for j in range(len(x.tail)):
        if not T.domain.contains(T.apply(x.vec(j))):
            return j
    return None


def _invariance(T: MapInstance, req: CheckRequest, seed: int) -> CheckRecord:
    """T(K) inside K, on the canonical points and `samples` random draws,
    up to the first violation; the draws go block by block."""
    if req.samples < 0:
        raise InvalidBudgetError(f"samples {req.samples} is below 0")
    K = T.domain
    witness = None
    checked = 0
    for x in K.canonical_points():
        checked += 1
        if not K.contains(T.apply(x)):
            witness = x
            break
    else:
        rng = as_rng(seed)
        for k in _block_sizes(req.samples, K.breadth):
            x = K.sample_rows(rng, k)
            j = _by_rows(T, _escape_rows, _escape_points, x)
            if j is not None:
                checked += j + 1
                witness = x.vec(j)
                break
            checked += k
    return CheckRecord(
        "invariance", "T(K) inside K", float(witness is not None),
        "pass" if witness is None else "fail",
        None if witness is None else format_vec(witness),
        direction="violations are conclusive; passes are sampled evidence",
        details={"checked": checked},
    )


def _orbit(T: MapInstance, req: CheckRequest, seed: int) -> CheckRecord:
    x0 = _start(T, req)
    res = orbit(T, x0, req.depth)
    return CheckRecord(
        "orbit", None, res.max_norm, "report_only", format_vec(x0),
        direction="boundedness summary; max norm along the orbit",
        details={
            "depth": req.depth,
            "displacements": list(res.displacements[:20]),
            "final_displacement": (res.displacements[-1]
                                   if res.displacements else None),
        },
    )


def _displacement(T: MapInstance, req: CheckRequest, seed: int) -> CheckRecord:
    est = estimate_displacement(T, req.strategy, req.budget, seed,
                                req.lambdas, req.target)
    bound = T.claims.displacement_bound
    tol = _tolerance(req, DISPLACEMENT_TOL)
    if bound is None:
        verdict = "report_only"
    elif bound == 0.0:
        # An upper estimate cannot refute d = 0; confirm it only when a
        # witness reaches it to tolerance.
        verdict = "pass" if est.value <= tol else "report_only"
    else:
        verdict = "pass" if est.value <= bound + tol else "fail"
    return CheckRecord(
        "displacement", bound, est.value, verdict, format_vec(est.witness),
        direction=("measured value is an upper bound for the minimal "
                   "displacement"),
        details={"strategy": req.strategy, "budget": req.budget,
                 "evaluations": est.evaluations},
    )


def _uniform_profile(T: MapInstance, req: CheckRequest,
                     seed: int) -> CheckRecord:
    """sup_x,y ||T^n x - T^n y|| / ||x - y||^alpha for each n, against the
    single claimed constant.  Only maps claiming uniformity accept this."""
    if not T.claims.uniform:
        raise InvalidCheckError(
            f"{T.name} makes no uniform claim; use holder_ratio or "
            f"asymptotic_profile"
        )
    est = pair_ratios(T, req.n_list, req.pairs, seed)
    worst = max(est.sups.values())
    return CheckRecord(
        "uniform_profile", T.claims.holder_constant, worst,
        _hard_verdict(worst, T.claims.holder_constant, T.claims.hard),
        _pair_witness(est.witness),
        direction=("per-iterate sup ratios are lower bounds for the "
                   "uniform constant"),
        details={"per_n": {str(n): est.sups[n] for n in req.n_list},
                 "pairs_used": est.pairs_used},
    )


def _asymptotic_profile(T: MapInstance, req: CheckRequest,
                        seed: int) -> CheckRecord:
    """Per-iterate sup ratios against the claimed n-dependent profile;
    measured as the worst margin measured/profile(n) over n <= n_max."""
    profile = T.claims.asymptotic_profile
    if profile is None:
        raise InvalidCheckError(f"{T.name} has no asymptotic profile")
    if req.n_max < 1:
        raise InvalidBudgetError(f"n_max {req.n_max} is below 1")
    ns = tuple(range(1, req.n_max + 1))
    est = pair_ratios(T, ns, req.pairs, seed)
    worst = max(est.sups[n] / profile(n) for n in ns)
    verdict = "pass" if worst <= 1.0 + RATIO_SLACK else "fail"
    return CheckRecord(
        "asymptotic_profile", "profile(n)", worst,
        verdict if T.claims.hard else "report_only",
        _pair_witness(est.witness),
        direction=("measured/profile margin per iterate; at most 1 when "
                   "the profile holds"),
        details={"per_n": {str(n): est.sups[n] for n in ns},
                 "profile": {str(n): profile(n) for n in ns},
                 "pairs_used": est.pairs_used},
    )


# The one-step kernel: for the samples x[j], the indices of those with
# ||x - Tx|| <= delta (or NaN), and for those ||Tx - T^2x||, +inf where
# either distance is NaN.

def _second_steps_rows(T: MapInstance, x: Rows, delta: float):
    tx = T.apply.rows(x)
    first = rows_distance(x, tx, T.norm)
    kept = np.flatnonzero(~(first > delta))
    tx = tx.take(kept)
    second = rows_distance(tx, T.apply.rows(tx), T.norm)
    second[np.isnan(first[kept]) | np.isnan(second)] = math.inf
    return kept, second


def _second_steps_points(T: MapInstance, x: Rows, delta: float):
    kept, second = [], []
    for j in range(len(x.tail)):
        cx = x.vec(j)
        tx = T.apply(cx)
        first = distance(cx, tx, T.norm)
        if first > delta:
            continue
        kept.append(j)
        d = distance(tx, T.apply(tx), T.norm)
        second.append(math.inf if first != first or d != d else d)
    return np.array(kept, dtype=np.int64), np.array(second)


def _approx_fixed_set(T: MapInstance, req: CheckRequest,
                      seed: int) -> CheckRecord:
    """Among sampled x with ||x - Tx|| <= delta, verify ||Tx - T^2x|| <= delta
    (the one-step stability that makes delta-approximate fixed point sets
    forward invariant for delta >= 1).  A NaN distance at either step counts
    as +inf; the witness of a failure is the first sample in draw order
    that reaches the largest second step."""
    if not req.delta >= 1.0:
        raise InvalidParameterError("delta", "requires delta >= 1")
    if req.samples < 1:
        raise InvalidBudgetError(f"samples {req.samples} is below 1")
    rng = as_rng(seed)
    qualifying = 0
    max_second = 0.0
    worst: Rows | None = None
    for k in _block_sizes(req.samples, max(T.domain.breadth, 4)):
        x = T.domain.sample_rows(rng, k)
        kept, second = _by_rows(T, _second_steps_rows, _second_steps_points,
                                x, req.delta)
        qualifying += len(kept)
        if len(kept) and second.max() > max_second:
            j = int(np.argmax(second))
            max_second, worst = float(second[j]), x.take([kept[j]])
    passed = max_second <= req.delta + _tolerance(req, DISPLACEMENT_TOL)
    return CheckRecord(
        "approx_fixed_set", req.delta, max_second,
        "pass" if passed else "fail",
        None if passed else format_vec(worst.vec(0)),
        direction=("max ||Tx - T^2x|| over sampled delta-approximate "
                   "fixed points"),
        details={"qualifying": qualifying, "samples": req.samples},
    )


def _oracle_compare(T: MapInstance, req: CheckRequest,
                    seed: int) -> CheckRecord:
    """Max deviation between iterated applications and the closed form."""
    if T.iterate_oracle is None:
        raise InvalidCheckError(f"{T.name} has no iterate oracle")
    if req.n_max < 0:
        raise InvalidBudgetError(f"n_max {req.n_max} is below 0")
    x0 = _start(T, req)
    walk = _walk(T, x0, req.n_max, lambda k: k > 0, oracle=T.iterate_oracle)
    # NaN is unbounded
    worst = max([0.0] + [math.inf if d != d else d for d in walk.values])
    tol = _tolerance(req, ORACLE_TOL)
    return CheckRecord(
        "oracle_compare", tol, worst, "pass" if worst <= tol else "fail",
        format_vec(x0),
        direction="max deviation between iteration and the closed form",
        details={"n_max": req.n_max},
    )


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class Field:
    """A request field: its JSON type ("int", "seed" (an int >= 0),
    "number", "int list", "number list", "string" or "vector"), its default
    and, for a string, the table whose keys it must name."""

    name: str
    type: str
    default: object = None
    choices: Mapping[str, object] | None = None


FIELDS: dict[str, Field] = {
    f.name: f
    for f in [
        Field("pairs", "int", 1000),
        Field("samples", "int", 1000),
        Field("iterate", "int", 1),
        Field("exponent", "number"),
        Field("n_list", "int list", (1, 2, 5, 10, 20)),
        Field("n_max", "int", 10),
        Field("depth", "int", 50),
        Field("budget", "int", 1000),
        Field("strategy", "string", "sample_min", STRATEGIES),
        Field("delta", "number", 1.0),
        Field("x0", "vector"),
        Field("seed", "seed"),
        Field("tolerance", "number"),
        Field("lambdas", "number list", (0.5, 0.9, 0.99, 0.999)),
        Field("target", "number", 1e-3),
    ]
}
COMMON_FIELDS = ("seed", "tolerance")  # every check kind accepts these


@dataclass(frozen=True)
class Check:
    fields: tuple[str, ...]  # FIELDS it reads besides COMMON_FIELDS
    run: Callable[[MapInstance, CheckRequest, int], CheckRecord]


CHECKS: dict[str, Check] = {
    "holder_ratio": Check(("pairs", "iterate", "exponent"), _holder_ratio),
    "invariance": Check(("samples",), _invariance),
    "orbit": Check(("x0", "depth"), _orbit),
    "displacement": Check(("strategy", "budget", "lambdas", "target"),
                          _displacement),
    "uniform_profile": Check(("n_list", "pairs"), _uniform_profile),
    "asymptotic_profile": Check(("n_max", "pairs"), _asymptotic_profile),
    "approx_fixed_set": Check(("delta", "samples"), _approx_fixed_set),
    "oracle_compare": Check(("x0", "n_max"), _oracle_compare),
}


def _known_kind(req: CheckRequest) -> None:
    if req.kind not in CHECKS:
        raise InvalidCheckError(
            f"unknown check kind {req.kind!r}; expected one of "
            f"{', '.join(CHECKS)}"
        )


# One frozen dataclass: the kind, then every FIELDS entry with its default.
CheckRequest = make_dataclass(
    "CheckRequest",
    [("kind", str)] + [(f.name, object, field(default=f.default))
                       for f in FIELDS.values()],
    frozen=True,
    namespace={"__module__": __name__, "__post_init__": _known_kind},
)


def run_check(T: MapInstance, req: CheckRequest,
              default_seed: int = 0) -> CheckRecord:
    """Run one CheckRequest against a map and time it."""
    seed = req.seed if req.seed is not None else default_seed
    start = time.perf_counter()
    rec = CHECKS[req.kind].run(T, req, seed)
    rec.runtime_ms = round((time.perf_counter() - start) * 1000.0, 3)
    return rec
