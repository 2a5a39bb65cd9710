"""Empirical checks of the claims a MapInstance carries.

Measured suprema are lower bounds for true constants, so a claimed upper
bound can fail (measured above the claim, conclusive) or pass (evidence,
not proof).  Displacement estimates point the other way: they are upper
bounds for the minimal displacement, so a positive claimed bound passes
once some witness beats it, a zero bound can only be confirmed exactly
(otherwise the estimate is recorded report-only), and an absent bound is
always report-only.

CHECKS is the one table of check kinds and the claims they test.  Each
entry names the request fields it reads (FIELDS declares their types and
defaults), the function that measures, the ClaimProfile fields it tests,
the function that reads its claim and the direction of its evidence;
run_check alone gives the verdict, by one rule.  A new check kind is one
measuring function and one CHECKS entry.  STRATEGIES is the one
table of displacement strategies; each entry names the fields its strategy
reads beyond the budget.  Every orbit-style walk (the orbit check,
oracle_compare and the orbit strategies) is one call of the orbit kernel.
Each kernel is written once over an _Ops table, which holds its points as
Rows or as SeqVecs; the sampled kernels (pairs, displacements, escapes,
one step) run under the one fallback rule of _sampled.  Every sampled
check walks one stream (_stream): its deterministic points, if any, as
one Rows.of block, then the draws, a pair as two rows and whole pairs to
a block.  The orbit kernel steps one iterate at a time.  A walk of x_k
against x_k+1 (orbit, orbit_min) measures every iterate; a walk with lam
measures the checkpoints its `at` picks, and an oracle walk or a mean
walk every iterate (a mean's sums need them all).  A chunk holds exactly
the iterates its measurement reads, and is stacked into one block and
measured whole.
One fold, _Least, picks every witness that is the first in draw order to
reach an extreme: the least displacement, the largest pair ratio and the
largest second step.

Every check is deterministic given its seed; identical requests produce
identical results bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, make_dataclass
from itertools import compress, repeat
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .catalog import ClaimProfile, MapInstance
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
                     pow_each, rows_distance, rows_norm, scale)

__all__ = [
    "PAIR_CUTOFF",
    "BLOCK_ELEMENTS",
    "RATIO_SLACK",
    "TOL",
    "PairRatios",
    "OrbitResult",
    "DisplacementEstimate",
    "Field",
    "FIELDS",
    "Check",
    "CHECKS",
    "Strategy",
    "STRATEGIES",
    "CheckRequest",
    "CheckRecord",
    "Measured",
    "unread_fields",
    "pair_ratios",
    "orbit",
    "estimate_displacement",
    "run_check",
]

PAIR_CUTOFF = 1e-13  # pairs closer than this are degenerate for ratios
RATIO_SLACK = 1e-9   # multiplicative slack on claimed bounds
TOL = 1e-12  # the default tolerance of the check kinds that read one
# Array elements in one block of sampled rows, for rows as wide as
# _row_width assumes.  The growth rule (_require_fit) keeps every iterate block
# under twice this, so it bounds a check's memory for any sample count and
# breadth.
BLOCK_ELEMENTS = 2 ** 14
# What a row kept in a chunk of orbit iterates costs beyond its values (two
# array headers and a tuple, ~500 bytes), in array elements.
_ROW_COST = 64


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


def _row_width(breadth: int, steps: int) -> int:
    """The width of a row that blocks of rows `breadth` wide are sized for
    when they go `steps` steps."""
    return max(breadth, 2 * steps)


class _Outgrown(ArithmeticError):
    """A block of rows grew wider than the growth rule allows: an
    ArithmeticError, so the fallback rule of _sampled and _walk sends the
    block to points as it does after a batch form's own errors."""


def _require_fit(width: int, breadth: int, steps: int) -> int:
    """The growth rule: after `steps` steps a block that started `breadth`
    wide may be up to twice _row_width(breadth, steps) wide.  A batch form
    that widens a row by at most two columns a step stays within that at
    any depth; one that doubles a row's width fits a step or two.  A wider
    block raises _Outgrown, and the block goes again by points.  Returns
    the width allowed, which only grows with `steps`."""
    allowed = 2 * _row_width(breadth, steps)
    if width > allowed:
        raise _Outgrown(f"{width} columns after {steps} steps from {breadth}")
    return allowed


def _image_width(T: MapInstance, width: int, steps: int) -> int:
    """The width of a block `width` wide after `steps` applications of T's
    batch form, probed on a block of no rows, which a batch form widens as
    far as any block of that width: the widest image such a block can have.
    `width` if T has no batch form or the probe raises."""
    rows = getattr(T.apply, "rows", None)
    if rows is None:
        return width
    block = Rows(np.empty((0, width)), np.empty(0))
    try:
        for _ in range(steps):
            block = rows(block)
    except (ValueError, ArithmeticError):
        return width
    return block.width


class _Ops(NamedTuple):
    """How a kernel holds a block of points: as Rows through T's batch
    form (_ROWS) or as a list of SeqVecs through T.apply (_POINTS).  A
    measurement gives one entry per point."""

    points: Callable    # a list of SeqVecs -> one block of them
    vec: Callable       # (a block, j) -> its point j as a SeqVec
    take: Callable      # (a block, a mask or a slice) -> the points kept
    stack: Callable     # a list of blocks -> their points as one block
    apply: Callable     # (T, a block) -> T of each point
    scale: Callable     # (a, x) -> a x
    means: Callable     # (total, x, ks) -> (the last sum, the means)
    distance: Callable  # (x, y, kind) -> ||x - y|| per point
    norm: Callable      # (x, kind) -> ||x|| per point
    contains: Callable  # (domain, a block) -> membership per point
    width: Callable     # a block -> the columns it stores (0 for SeqVecs)
    stacks: bool        # an orbit's iterates are measured in stacked chunks


# all points but the last, and all but the first
_FRONT, _BACK = slice(0, -1), slice(1, None)


def _stack_rows(blocks: list[Rows]) -> Rows:
    """The rows of the blocks as one block, as wide as the widest: each
    row's stored values, then its tail.  One block is returned as it is."""
    if len(blocks) == 1:
        return blocks[0]
    width = max(b.width for b in blocks)
    blocks = [b.widen(width) for b in blocks]
    return Rows(np.concatenate([b.vals for b in blocks]),
                np.concatenate([b.tail for b in blocks]))


def _row_means(total: Rows | None, x: Rows, ks: list[int]):
    """The running sums total + x[0] + ... + x[j] (from x[0] when total is
    None) and the Cesaro means, sum j times 1/(ks[j] + 1); returns the last
    sum as a one-row block, and the means.  np.add.accumulate adds one row
    after another, the additions an orbit that summed its iterates one at
    a time would make."""
    if total is not None:
        x = _stack_rows([total, x])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.add.accumulate(x.vals, axis=0)
        tail = np.add.accumulate(x.tail)
    if total is not None:
        vals, tail = vals[1:], tail[1:]
    a = 1.0 / (np.array(ks) + 1)
    return (Rows(vals[-1:].copy(), tail[-1:].copy()),
            Rows(a[:, None] * vals, a * tail))


def _point_means(total: list | None, x: list, ks: list[int]):
    """_row_means on SeqVecs."""
    means = []
    for k, v in zip(ks, x):
        total = [v if total is None else axpy(1.0, total[0], 1.0, v)]
        means.append(scale(1.0 / (k + 1), total[0]))
    return total, means


def _apply_rows(T: MapInstance, x: Rows) -> Rows:
    """T's batch form on a block.  A one-row block (an orbit's) is trimmed
    after every step, so that a support that underflows at its far end
    keeps the row narrow; a larger block rarely ends in a column that
    every row shares with its tail, and checking would cost each step."""
    y = T.apply.rows(x)
    return y.trimmed() if len(y.tail) == 1 else y


# Rows through the batch form.  Block norms are the scalar ones bit for bit,
# and scale and means round as `scale` and `axpy` do.  The growth rule
# bounds the width of each iterate.
_ROWS = _Ops(lambda xs: Rows.of(*xs), Rows.vec, Rows.take, _stack_rows,
             _apply_rows, lambda a, x: Rows(a * x.vals, a * x.tail),
             _row_means, rows_distance, rows_norm,
             lambda K, x: K.contains_rows(x), lambda x: x.vals.shape[1], True)
# Lists of SeqVecs.  The seqvec functions are looked up when called, so a
# wrapper set on this module's names (the benchmark's tracer) sees them.
_POINTS = _Ops(list, lambda x, j: x[j],
               lambda x, keep: (x[keep] if isinstance(keep, slice)
                                else list(compress(x, keep))),
               lambda blocks: [p for b in blocks for p in b],
               lambda T, x: list(map(T.apply, x)),
               lambda a, x: list(map(scale, repeat(a), x)), _point_means,
               lambda x, y, kind: list(map(distance, x, y, repeat(kind))),
               lambda x, kind: list(map(norm, x, repeat(kind))),
               lambda K, x: K.contains_rows(K.pack(x)), lambda x: 0, False)


def _sampled(T: MapInstance, kernel: Callable, blocks: tuple[Rows, ...],
             *args, until: Callable | None = None):
    """kernel(ops, T, *blocks, *args), whose arrays have one entry per row
    of the sampled blocks, by the one fallback rule: (1) the whole blocks as
    Rows, when T.apply has a batch form; (2) when it has none or step 1
    raised a ValueError or an ArithmeticError (a batch form's answer to a
    row `apply` rejects, or _Outgrown past the growth rule), as SeqVecs one
    row at a time in draw order, so the error raised is `apply`'s first.
    Step 2 stops after the first row whose result meets `until`."""
    if getattr(T.apply, "rows", None) is not None:
        try:
            return kernel(_ROWS, T, *blocks, *args)
        except (ValueError, ArithmeticError):
            pass
    parts = []
    for j in range(len(blocks[0].tail)):
        parts.append(kernel(_POINTS, T, *([b.vec(j)] for b in blocks), *args))
        if until is not None and until(parts[-1]):
            break
    if isinstance(parts[0], tuple):
        return tuple(map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


def _stream(K: DomainSpec, seed: int, count: int, width: int, points=(),
            per: int = 1) -> Iterator[Rows]:
    """The stream of blocks a sampled check walks in order: the given
    points as one block when there are any, then `count` draws from K of
    `per` consecutive rows each (a pair is two), as many whole draws to a
    block as BLOCK_ELEMENTS holds at `width` elements a row, at least one."""
    if points:
        yield Rows.of(*points)
    rng = as_rng(seed)
    step = max(1, BLOCK_ELEMENTS // (per * width))
    for start in range(0, count, step):
        yield K.sample_rows(rng, per * min(step, count - start))


def _pair_kernel(ops: _Ops, T: MapInstance, x, y, ns: list[int]):
    """For the pairs x[j], y[j]: the distance d[j] and, where d[j] >=
    PAIR_CUTOFF (or NaN), the distances ||T^n x[j] - T^n y[j]|| at each n in
    `ns` (ascending), one column per n (NaN in the other rows)."""
    column = {n: c for c, n in enumerate(ns)}
    d = np.asarray(ops.distance(x, y, T.norm))
    kept = ~(d < PAIR_CUTOFF)
    dists = np.full((len(d), len(ns)), math.nan)
    if kept.any():
        cx, cy = ops.take(x, kept), ops.take(y, kept)
        for n in range(1, ns[-1] + 1):
            cx, cy = ops.apply(T, cx), ops.apply(T, cy)
            _require_fit(max(ops.width(cx), ops.width(cy)), ops.width(x), n)
            if n in column:
                dists[kept, column[n]] = ops.distance(cx, cy, T.norm)
    return d, dists


def pair_ratios(T: MapInstance, ns: tuple[int, ...], pairs: int, seed: int,
                exponent: float | None = None) -> PairRatios:
    """sup over sampled pairs of ||T^n x - T^n y|| / ||x - y||^exponent for
    every n in ns, walking each pair's orbit once: the sampled Lipschitz
    estimate of Wood & Zhang (1996), taken per iterate.

    The exponent defaults to the claimed one; pairs closer than PAIR_CUTOFF
    are skipped (the ratio is numerically meaningless there) and a NaN ratio
    counts as +inf.  Pairs travel in blocks under the fallback rule of
    _sampled; the witness is the first pair in draw order that reaches the
    largest ratio."""
    if pairs < 1:
        raise InvalidBudgetError(f"pairs {pairs} is below 1")
    if not ns or min(ns) < 1:
        raise InvalidBudgetError("iterates must be integers >= 1")
    a = T.claims.alpha if exponent is None else exponent
    steps = sorted(set(ns))
    sups = dict.fromkeys(ns, -1.0)
    best = _Least()  # of the negated largest ratio of each pair used
    for rows in _stream(T.domain, seed, pairs,
                        _row_width(T.domain.breadth, steps[-1]), per=2):
        x, y = rows.take(slice(0, None, 2)), rows.take(slice(1, None, 2))
        d, dists = _sampled(T, _pair_kernel, (x, y), steps)
        kept = np.flatnonzero(~(d < PAIR_CUTOFF))
        if not len(kept):
            continue
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = dists[kept] / pow_each(d[kept], a)[:, None]
        ratios[np.isnan(ratios)] = math.inf  # a NaN distance is unbounded
        for n, top in zip(steps, ratios.max(axis=0).tolist()):
            sups[n] = max(sups[n], top)
        best.consider_rows(-ratios.max(axis=1), kept,
                           lambda ks, j: (x.vec(ks[j]), y.vec(ks[j])))
    if best.witness is None:
        raise InsufficientSamplesError(
            f"all {pairs} sampled pairs were degenerate"
        )
    return PairRatios(sups, best.witness, best.evaluations)


def _floats(d) -> list[float]:
    """A measurement's entries as a list of floats."""
    return d.tolist() if isinstance(d, np.ndarray) else d


class _Least:
    """The least of a stream of values, NaN counting as +inf, and the first
    point that reached it (the first point considered when every value is
    +inf).  Fed negated values, it keeps the first point that reached the
    largest."""

    def __init__(self) -> None:
        self.value = math.inf
        self.witness = None
        self.evaluations = 0

    def consider_rows(self, d, x, vec: Callable = Rows.vec) -> None:
        """Fold in the values d[j] of the points vec(x, j), in turn; only
        the point kept as the witness is made a SeqVec."""
        kept, value = None, self.value
        for j, dj in enumerate(_floats(d)):
            if dj < value or (kept is None and self.witness is None):
                value, kept = (math.inf if dj != dj else dj), j
        self.evaluations += len(d)
        if kept is not None:
            self.value, self.witness = value, vec(x, kept)

    def merge(self, other: "_Least") -> None:
        """Fold in a stream considered after this one."""
        self.evaluations += other.evaluations
        if other.witness is not None and (self.witness is None
                                          or other.value < self.value):
            self.value, self.witness = other.value, other.witness


class _Walked(NamedTuple):
    values: list[float]  # the measurement at each checkpoint, in order
    least: _Least        # their least, with a SeqVec witness
    max_norm: float | None
    final: SeqVec        # the last iterate


def _orbit_kernel(ops: _Ops, T: MapInstance, x0: SeqVec, steps: int,
                  at: Callable[[int], bool] | None = None,
                  lam: float | None = None, mean: bool = False,
                  oracle: Callable | None = None, stop: float | None = None,
                  norms: bool = False) -> _Walked:
    """Walk x_0 = x0, x_k+1 = T(lam x_k) (T x_k without lam) up to x_steps,
    and measure points p_k.  Without lam, mean or oracle, T x_k is x_k+1:
    such a walk measures ||x_k - x_k+1|| at every k < steps, takes no stop
    and reads no `at`; with norms it also tracks the largest norm of an
    iterate, a NaN norm counting as +inf.  Otherwise the walk measures at
    each k that at(k) picks (every k when `at` is None) one point p_k,
    which is x_k or, with mean, the Cesaro mean of x_0..x_k (whose sums
    need every iterate, so a mean walk takes no `at`): ||p_k - T p_k||, or
    with an oracle ||p_k - oracle(x0, k)||.  It ends early after a
    measurement <= stop.

    Only the step runs one iterate at a time.  A chunk holds exactly the
    iterates its measurement reads, and each chunk is stacked into one
    block and measured whole.  A chunk ends where one more iterate would
    take it past half a block, at each point a walk with a stop measures
    (so it never steps past its stop), at x_steps and, for SeqVecs, after
    every iterate, so that a point walk raises its first error where a walk
    that measured each iterate as it came would."""
    follows = lam is None and not mean and oracle is None
    if mean and at is not None:
        raise TypeError("a mean walk measures every iterate")
    x = ops.points([x0])
    w = ops.width(x)  # of x_k
    breadth = max(w, T.domain.breadth)
    allowed = 0  # by the growth rule, as of the last step that checked it
    least, values = _Least(), []
    top = -math.inf if norms else None
    total = None  # the sum of the iterates of the chunks before

    # The chunk: the iterates x_k the next measurement reads, for k in ks.
    # Walking x_k against x_k+1, the last stays as the first of the next
    # chunk, so a measurement needs len(chunk) > follows.
    chunk, ks = [], []

    def fold_norms(block) -> None:
        nonlocal top
        top = max(top, *[math.inf if v != v else v
                         for v in _floats(ops.norm(block, T.norm))])

    if norms:
        fold_norms(x)  # the chunks norm the iterates after their first

    def measure() -> bool:
        """Fold in the chunk; True after a measurement <= stop."""
        nonlocal chunk, ks, total
        block = ops.stack(chunk)
        if follows:  # x_k against x_k+1
            p, q = ops.take(block, _FRONT), ops.take(block, _BACK)
            if norms:
                fold_norms(q)
        else:
            p = block
            if mean:
                total, p = ops.means(total, p, ks)
            q = (ops.apply(T, p) if oracle is None else
                 ops.points([oracle(x0, k) for k in ks]))
        d = _floats(ops.distance(p, q, T.norm))
        values.extend(d)
        # the witness is made a SeqVec once, when the walk ends
        least.consider_rows(d, p, lambda b, j: (b, j))
        chunk, ks = (chunk[-1:], ks[-1:]) if follows else ([], [])
        return stop is not None and any(v <= stop for v in d)

    for k in range(steps + 1):
        if k:  # the step to x_k
            x = ops.apply(T, x if lam is None else ops.scale(lam, x))
            w = ops.width(x)
            if w > allowed:
                allowed = _require_fit(w, breadth, k)
        if follows or at is None or at(k):
            if ops.stacks:  # width: of the widest iterate in the chunk
                width = max(width, w) if chunk else w
                # measuring holds a few arrays the chunk's size at once:
                # half a block each
                if (len(chunk) > follows and 2 * (len(chunk) + 1)
                        * (width + _ROW_COST) > BLOCK_ELEMENTS):
                    measure()  # holds no point a walk with a stop measures
                    width = max(ops.width(chunk[0]), w) if chunk else w
            chunk.append(x)
            ks.append(k)
        if len(chunk) > follows and (k == steps or not ops.stacks
                                     or (stop is not None and ks[-1] == k)):
            if measure():
                break
    if least.witness is not None:
        least.witness = ops.vec(*least.witness)
    return _Walked(values, least, top, ops.vec(x, 0))


def _walk(T: MapInstance, x0: SeqVec, steps: int,
          at: Callable[[int], bool] | None = None, **how) -> _Walked:
    """The orbit kernel on one-row blocks through T's batch form, and by
    points when T has none.  A sparse start with a far index (x0 = {10^9:
    t}) would make a row of that width, so it walks by points, as does a row
    walk that raises a ValueError or an ArithmeticError or breaks the growth
    rule (deficiency's row doubles its width each step)."""
    if (getattr(T.apply, "rows", None) is not None
            and not (x0.support and x0.support[-1][0] > BLOCK_ELEMENTS)):
        try:
            return _orbit_kernel(_ROWS, T, x0, steps, at, **how)
        except (ValueError, ArithmeticError):
            pass
    return _orbit_kernel(_POINTS, T, x0, steps, at, **how)


def _require_member(T: MapInstance, x0: SeqVec, walk: str) -> None:
    if not T.domain.contains(x0):
        raise DomainViolationError(
            f"{walk} start {format_vec(x0)} is outside the domain"
        )


def orbit(T: MapInstance, x0: SeqVec, depth: int) -> OrbitResult:
    """The orbit of x0 to depth: each step's displacement, the largest
    norm of an iterate and the last iterate."""
    if depth < 0:
        raise InvalidBudgetError(f"depth {depth} is below 0")
    _require_member(T, x0, "orbit")
    walk = _walk(T, x0, depth, norms=True)
    return OrbitResult(walk.final, tuple(walk.values), walk.max_norm)


# The displacement strategies, each (T, budget, seed, lambdas, target) ->
# the least displacement it evaluated.  All witness streams extend under a
# larger budget, so estimates never increase with it.

def _displacements(ops: _Ops, T: MapInstance, x) -> np.ndarray:
    """||x[j] - T x[j]|| for every point x[j]."""
    return np.asarray(ops.distance(x, ops.apply(T, x), T.norm))


def _sample_min(T: MapInstance, budget: int, seed: int, lambdas, target):
    """The canonical points, the instance's witness family and random
    samples, in that order: one stream of blocks."""
    points = list(T.domain.canonical_points())
    if T.witness_family is not None:
        points += T.witness_family(budget)
    least = _Least()
    for x in _stream(T.domain, seed, budget - len(points), T.domain.breadth,
                     points):
        least.consider_rows(_sampled(T, _displacements, (x,)), x)
    return least


def _orbit_min(T: MapInstance, budget: int, seed: int, lambdas, target):
    """Orbits from the canonical points, the budget shared between them."""
    starts = T.domain.canonical_points()
    steps = max(1, budget // max(1, len(starts)))
    least = _Least()
    for x0 in starts:
        least.merge(_walk(T, x0, steps).least)
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
                 mean=True).least


@dataclass(frozen=True)
class Strategy:
    fields: tuple[str, ...]  # the FIELDS entries its run reads beyond budget
    run: Callable[..., _Least]


STRATEGIES: dict[str, Strategy] = {
    "sample_min": Strategy(("seed",), _sample_min),
    "orbit_min": Strategy((), _orbit_min),
    "lambda_scaling": Strategy(("lambdas", "target"), _lambda_scaling),
    "cesaro_affine": Strategy((), _cesaro_affine),
}


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


def estimate_displacement(T: MapInstance, strategy: str, budget: int,
                          seed: int,
                          lambdas: tuple[float, ...] = FIELDS["lambdas"].default,
                          target: float = FIELDS["target"].default
                          ) -> DisplacementEstimate:
    """Upper estimate of the minimal displacement inf ||x - Tx|| by one of
    the STRATEGIES; a NaN displacement counts as +inf."""
    if budget < 1:
        raise InvalidBudgetError(f"budget {budget} is below 1")
    if strategy not in STRATEGIES:
        raise InvalidStrategyError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGIES)}"
        )
    least = STRATEGIES[strategy].run(T, budget, seed, lambdas, target)
    if least.witness is None:
        raise InsufficientSamplesError("no displacement witness was evaluated")
    return DisplacementEstimate(least.value, least.witness, least.evaluations)


# ---------------------------------------------------------------------------
# Check kinds, each run(T, req, seed) -> Measured and claim(claims, req) ->
# (claimed, bound)


class Measured(NamedTuple):
    value: float         # what the claim bounds
    witness: object      # a SeqVec, a pair of them or None
    details: dict


def _start(T: MapInstance, req: CheckRequest) -> SeqVec:
    return req.x0 if req.x0 is not None else T.domain.canonical_points()[0]


def _exponent(claims: ClaimProfile, req: CheckRequest) -> float:
    return claims.alpha if req.exponent is None else req.exponent


def _holder_ratio(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    if req.exponent is not None and not 0.0 < req.exponent <= 1.0:
        raise InvalidParameterError("exponent", "requires 0 < exponent <= 1")
    a = _exponent(T.claims, req)
    est = pair_ratios(T, (req.iterate,), req.pairs, seed, a)
    return Measured(est.sups[req.iterate], est.witness,
                    {"exponent": a, "iterate": req.iterate,
                     "pairs_used": est.pairs_used})


def _holder_claim(claims: ClaimProfile, req: CheckRequest):
    """Ratios at the claimed exponent bind the claimed constant, at exponent
    1 the classical one; past iterate 1 only a uniform constant binds."""
    a = _exponent(claims, req)
    claimed = (claims.holder_constant if a == claims.alpha else
               claims.classical_lipschitz if a == 1.0 else None)
    return claimed, (claimed if claims.uniform or req.iterate == 1 else None)


def _escapes(ops: _Ops, T: MapInstance, x) -> np.ndarray:
    """Whether T x[j] is outside T's domain, for every point x[j]."""
    return ~np.asarray(ops.contains(T.domain, ops.apply(T, x)), dtype=bool)


def _invariance(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    """T(K) inside K, on the canonical points and then `samples` random
    draws, one stream of blocks, up to the first violation."""
    if req.samples < 0:
        raise InvalidBudgetError(f"samples {req.samples} is below 0")
    checked, witness = 0, None
    for x in _stream(T.domain, seed, req.samples, T.domain.breadth,
                     T.domain.canonical_points()):
        outside = np.flatnonzero(_sampled(T, _escapes, (x,), until=np.any))
        if len(outside):
            checked += int(outside[0]) + 1
            witness = x.vec(int(outside[0]))
            break
        checked += len(x.tail)
    return Measured(float(witness is not None), witness, {"checked": checked})


def _orbit(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    x0 = _start(T, req)
    res = orbit(T, x0, req.depth)
    return Measured(res.max_norm, x0, {
        "depth": req.depth,
        "displacements": list(res.displacements[:20]),
        "final_displacement": (res.displacements[-1]
                               if res.displacements else None),
    })


def _displacement(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    est = estimate_displacement(T, req.strategy, req.budget, seed,
                                req.lambdas, req.target)
    return Measured(est.value, est.witness,
                    {"strategy": req.strategy, "budget": req.budget,
                     "evaluations": est.evaluations})


def _uniform_profile(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    """sup_x,y ||T^n x - T^n y|| / ||x - y||^alpha for each n, against the
    single claimed constant.  Only maps claiming uniformity accept this."""
    if not T.claims.uniform:
        raise InvalidCheckError(
            f"{T.name} makes no uniform claim; use holder_ratio or "
            f"asymptotic_profile"
        )
    est = pair_ratios(T, req.n_list, req.pairs, seed)
    return Measured(max(est.sups.values()), est.witness,
                    {"per_n": {str(n): est.sups[n] for n in req.n_list},
                     "pairs_used": est.pairs_used})


def _asymptotic_profile(T: MapInstance, req: CheckRequest,
                        seed: int) -> Measured:
    """Per-iterate sup ratios against the claimed n-dependent profile;
    measured as the worst margin measured/profile(n) over n <= n_max."""
    profile = T.claims.asymptotic_profile
    if profile is None:
        raise InvalidCheckError(f"{T.name} has no asymptotic profile")
    if req.n_max < 1:
        raise InvalidBudgetError(f"n_max {req.n_max} is below 1")
    if req.n_max > BLOCK_ELEMENTS:  # one sup per n, each in the report
        raise InvalidBudgetError(
            f"n_max {req.n_max} is above {BLOCK_ELEMENTS}")
    ns = tuple(range(1, req.n_max + 1))
    est = pair_ratios(T, ns, req.pairs, seed)
    return Measured(max(est.sups[n] / profile(n) for n in ns), est.witness,
                    {"per_n": {str(n): est.sups[n] for n in ns},
                     "profile": {str(n): profile(n) for n in ns},
                     "pairs_used": est.pairs_used})


def _second_steps(ops: _Ops, T: MapInstance, x, delta: float):
    """For the points x[j]: whether ||x - Tx|| <= delta (or NaN), and where
    it is, ||Tx - T^2x||, +inf where either distance is NaN (-inf in the
    other rows)."""
    tx = ops.apply(T, x)
    first = np.asarray(ops.distance(x, tx, T.norm))
    kept = ~(first > delta)
    tx = ops.take(tx, kept)
    second = np.full(len(first), -math.inf)
    second[kept] = ops.distance(tx, ops.apply(T, tx), T.norm)
    second[np.isnan(first) | np.isnan(second)] = math.inf
    return kept, second


def _approx_fixed_set(T: MapInstance, req: CheckRequest,
                      seed: int) -> Measured:
    """The largest ||Tx - T^2x|| among sampled x with ||x - Tx|| <= delta,
    0.0 when no sample qualifies.  The iterate-1 claim on the pair (x, Tx)
    bounds it by L delta^alpha.  A NaN distance at either step counts as
    +inf; the witness is the first sample in draw order that reaches the
    largest second step."""
    if not req.delta >= 1.0:
        raise InvalidParameterError("delta", "requires delta >= 1")
    if req.samples < 1:
        raise InvalidBudgetError(f"samples {req.samples} is below 1")
    qualifying = 0
    worst = _Least()  # of the negated second steps
    b = T.domain.breadth
    # sized so that the second images keep the growth rule
    width = max(_row_width(b, 2), (_image_width(T, b, 2) + 1) // 2)
    for x in _stream(T.domain, seed, req.samples, width):
        kept, second = _sampled(T, _second_steps, (x,), req.delta)
        qualifying += int(kept.sum())
        worst.consider_rows(-second, x)
    return Measured(max(0.0, -worst.value), worst.witness,
                    {"qualifying": qualifying, "samples": req.samples})


def _oracle_compare(T: MapInstance, req: CheckRequest, seed: int) -> Measured:
    """Max deviation between iterated applications and the closed form."""
    if T.iterate_oracle is None:
        raise InvalidCheckError(f"{T.name} has no iterate oracle")
    if req.n_max < 0:
        raise InvalidBudgetError(f"n_max {req.n_max} is below 0")
    x0 = _start(T, req)
    _require_member(T, x0, "oracle_compare")
    # every oracle returns its start at k = 0, a distance of 0
    walk = _walk(T, x0, req.n_max, oracle=T.iterate_oracle)
    # NaN is unbounded
    worst = max([0.0] + [math.inf if d != d else d for d in walk.values])
    return Measured(worst, x0, {"n_max": req.n_max})


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class Check:
    fields: tuple[str, ...]  # the FIELDS entries its run reads
    run: Callable[[MapInstance, CheckRequest, int], Measured]
    # the ClaimProfile fields whose claim it tests; () for a structural claim
    tests: tuple[str, ...]
    # (claims, req) -> (the record's claimed, the bound on measured or None)
    claim: Callable[[ClaimProfile, CheckRequest], tuple[object, float | None]]
    direction: str
    witness_on_fail: bool = False  # the witness is shown on a fail only


CHECKS: dict[str, Check] = {
    "holder_ratio": Check(
        ("pairs", "iterate", "exponent", "seed"), _holder_ratio,
        ("holder_constant", "classical_lipschitz"), _holder_claim,
        "measured sup ratio is a lower bound for the true constant; the "
        "claim is an upper bound"),
    "invariance": Check(
        ("samples", "seed"), _invariance, (),
        lambda claims, req: ("T(K) inside K", 0.0),
        "violations are conclusive; passes are sampled evidence"),
    "orbit": Check(
        ("x0", "depth"), _orbit, (), lambda claims, req: (None, None),
        "boundedness summary; max norm along the orbit"),
    "displacement": Check(
        ("strategy", "budget", "lambdas", "target", "seed", "tolerance"),
        _displacement, ("displacement_bound",),
        lambda claims, req: (claims.displacement_bound,) * 2,
        "measured value is an upper bound for the minimal displacement"),
    "uniform_profile": Check(
        ("n_list", "pairs", "seed"), _uniform_profile, ("holder_constant",),
        lambda claims, req: (claims.holder_constant,) * 2,
        "per-iterate sup ratios are lower bounds for the uniform constant"),
    "asymptotic_profile": Check(
        ("n_max", "pairs", "seed"), _asymptotic_profile,
        ("asymptotic_profile",), lambda claims, req: ("profile(n)", 1.0),
        "measured/profile margin per iterate; at most 1 when the profile "
        "holds"),
    "approx_fixed_set": Check(
        ("delta", "samples", "seed", "tolerance"), _approx_fixed_set,
        ("holder_constant",),
        lambda claims, req: (claims.holder_constant
                             * req.delta ** claims.alpha,) * 2,
        "max ||Tx - T^2x|| over sampled delta-approximate fixed points",
        witness_on_fail=True),
    "oracle_compare": Check(
        ("x0", "n_max", "tolerance"), _oracle_compare, (),
        lambda claims, req: (TOL if req.tolerance is None
                             else req.tolerance, 0.0),
        "max deviation between iteration and the closed form"),
}


def unread_fields(kind: str, keys, strategy: str | None = None) -> list[str]:
    """The keys a check of `kind` does not read, sorted: those naming no
    field of the kind and, for a displacement check with a strategy, the
    fields only other strategies read."""
    reads = set(CHECKS[kind].fields)
    if kind == "displacement" and strategy is not None:
        reads -= {key for s in STRATEGIES.values() for key in s.fields}
        reads |= set(STRATEGIES[strategy].fields)
    return sorted(set(keys) - reads)


def _validate(req: CheckRequest) -> None:
    """A known kind, and no field it does not read away from its default.
    An unknown strategy is left to estimate_displacement."""
    if req.kind not in CHECKS:
        raise InvalidCheckError(
            f"unknown check kind {req.kind!r}; expected one of "
            f"{', '.join(CHECKS)}"
        )
    given = [f.name for f in FIELDS.values()
             if getattr(req, f.name) != f.default]
    strategy = req.strategy if req.strategy in STRATEGIES else None
    unread = unread_fields(req.kind, given, strategy)
    if unread:
        what = (f"strategy {req.strategy!r}" if req.kind == "displacement"
                else f"check kind {req.kind!r}")
        raise InvalidCheckError(f"{what} does not read {unread}")


# One frozen dataclass: the kind, then every FIELDS entry with its default.
CheckRequest = make_dataclass(
    "CheckRequest",
    [("kind", str)] + [(f.name, object, field(default=f.default))
                       for f in FIELDS.values()],
    frozen=True,
    namespace={"__module__": __name__, "__post_init__": _validate},
)


def run_check(T: MapInstance, req: CheckRequest,
              default_seed: int = 0) -> CheckRecord:
    """Run one CheckRequest against a map, time it and give the verdict by
    the one rule: report_only when there is no bound or the claim is a
    map's whose claims are not hard; otherwise pass when
    measured <= bound (1 + RATIO_SLACK) + tol, with tol the request's
    tolerance (TOL by default on the kinds that read one, else 0).  Else
    fail, but for a zero displacement bound, which an upper estimate can
    only confirm: that is report_only."""
    check = CHECKS[req.kind]
    seed = req.seed if req.seed is not None else default_seed
    start = time.perf_counter()
    measured, witness, details = check.run(T, req, seed)
    claimed, bound = check.claim(T.claims, req)
    tol = (req.tolerance if req.tolerance is not None
           else TOL if "tolerance" in check.fields else 0.0)
    if bound is None or (check.tests and not T.claims.hard):
        verdict = "report_only"
    elif measured <= bound * (1.0 + RATIO_SLACK) + tol:
        verdict = "pass"
    elif req.kind == "displacement" and bound == 0.0:
        verdict = "report_only"
    else:
        verdict = "fail"
    if check.witness_on_fail and verdict != "fail":
        witness = None
    elif isinstance(witness, tuple):
        witness = f"x = {format_vec(witness[0])}, y = {format_vec(witness[1])}"
    elif witness is not None:
        witness = format_vec(witness)
    return CheckRecord(req.kind, claimed, measured, verdict, witness,
                       check.direction, details=details,
                       runtime_ms=round((time.perf_counter() - start)
                                        * 1000.0, 3))
