"""Catalog of Holder-continuous self-maps of sequence-space sets.

Each constructor returns a MapInstance bundling the map itself, its domain,
the norm its claims are stated in, and a ClaimProfile of constants to verify
empirically: Holder exponent and constant, uniformity over iterates or an
asymptotic profile, minimal-displacement bounds, and the fixed point set.

Most instances are fixed-point free with displacement 0, which is exactly
what makes them worth measuring: no approximate fixed point sequence
converges, yet arbitrarily good approximate fixed points exist.
"""

from __future__ import annotations

import difflib
import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np

from .domains import (
    DomainSpec,
    ball,
    c_interval,
    coefficient_box,
    sigma_band,
    simplex,
    sub_simplex,
)
from .errors import (
    InvalidCompositionError,
    InvalidParameterError,
    NotInSpaceError,
    DomainViolationError,
    UnknownNameError,
)
from .retractions import (
    abs_retract,
    clamp_retract,
    clamp_rows,
    l1_sphere_retract,
    l1_sphere_rows,
    positive_part,
    radial_retract,
    radial_rows,
)
from .seqvec import (
    SeqVec,
    NormKind,
    Rows,
    ZERO,
    axpy,
    basis_vector,
    coordinate,
    distance,
    fsum_rows,
    norm,
    pow_each,
    rows_norm,
    scale,
    shift_right,
    shift_rows,
    shifted,
)

__all__ = [
    "FixedPointSet",
    "ClaimProfile",
    "MapInstance",
    "CatalogEntry",
    "Retraction",
    "CATALOG",
    "RETRACTION_CATALOG",
    "build_map",
    "catalog_names",
    "retraction_names",
    "retraction_map",
    "prus_map",
    "norming_map",
    "baseline_c_map",
    "shift_simplex_map",
    "affine_mixing_map",
    "deficiency_map",
    "goebel_kirk_map",
    "hyperconvex_map",
    "c0_family_map",
    "affine_cube_map",
    "renormed_l1_map",
    "l1_ball_composite_map",
    "lambda_scale",
    "holderize",
    "lift_to_ball",
    "constant_map",
    "ScalarOrbit",
    "banach_alpha_gt1_iterate",
    "sup_t_alpha_log",
]

SUP = NormKind.sup()
L1 = NormKind.lp(1.0)
L2 = NormKind.lp(2.0)
MPN = NormKind.max_pos_neg_l1()


def sup_t_alpha_log(alpha: float) -> float:
    """sup over t in (0,1) of t^alpha * |ln t|, attained at t = e^(-1/alpha)."""
    return 1.0 / (math.e * alpha)


@dataclass(frozen=True)
class FixedPointSet:
    """What is claimed about the fixed point set: empty, a single known point
    (with a truncation residual when the exact point is not representable),
    or unknown."""

    kind: str  # "empty" | "singleton" | "unknown"
    point: SeqVec | None = None
    residual: float = 0.0

    @staticmethod
    def empty() -> "FixedPointSet":
        return FixedPointSet("empty")

    @staticmethod
    def singleton(point: SeqVec, residual: float = 0.0) -> "FixedPointSet":
        return FixedPointSet("singleton", point, residual)

    @staticmethod
    def unknown() -> "FixedPointSet":
        return FixedPointSet("unknown")


@dataclass(frozen=True)
class ClaimProfile:
    """Constants a MapInstance claims, in the instance's own norm.

    The single-step claim is ||Tx - Ty|| <= holder_constant * ||x - y||^alpha.
    uniform promises the same constant for every iterate T^n; an asymptotic
    profile instead bounds the iterate-n ratio by asymptotic_profile(n).
    hard claims fail verification when measurements exceed them; soft ones
    (hard False) are recorded report_only by every check that tests them.
    """

    alpha: float
    holder_constant: float
    uniform: bool
    hard: bool = True
    affine: bool = False
    classical_lipschitz: float | None = None
    asymptotic_profile: Callable[[int], float] | None = None
    displacement_bound: float | None = None
    lower_bound: float | None = None
    fixed_points: FixedPointSet = field(default_factory=FixedPointSet.unknown)

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise InvalidParameterError("alpha", "requires alpha > 0")
        if self.asymptotic_profile is not None and self.uniform:
            raise InvalidParameterError(
                "uniform", "an asymptotic profile requires uniform = False"
            )


@dataclass(frozen=True)
class MapInstance:
    """A map with its domain, norm and claims.  `apply` may carry one
    attribute `rows`, its batch form: a function from a block of rows to the
    block of their images, equal to `apply` row by row on rows `apply`
    accepts, and raising a ValueError or ArithmeticError on a block that
    holds a row `apply` rejects.  Which error it raises is not part of the
    contract: the verifier then goes through `apply`, the whole block and,
    if that raises, row by row in draw order, so the error reported is
    `apply`'s first in draw order.  Replacing `apply` drops the batch
    form."""

    name: str
    params: Mapping[str, object]
    domain: DomainSpec
    norm: NormKind
    apply: Callable[[SeqVec], SeqVec]
    claims: ClaimProfile
    formula: str
    iterate_oracle: Callable[[SeqVec, int], SeqVec] | None = None
    witness_family: Callable[[int], list[SeqVec]] | None = None
    notes: str = ""

    def iterate(self, x: SeqVec, n: int) -> SeqVec:
        for _ in range(n):
            x = self.apply(x)
        return x

    def displacement(self, x: SeqVec) -> float:
        return distance(x, self.apply(x), self.norm)


def _batched(apply: Callable[[SeqVec], SeqVec],
             rows: Callable[[Rows], Rows]) -> Callable[[SeqVec], SeqVec]:
    """`apply` with `rows` attached as its batch form."""
    apply.rows = rows
    return apply


def _support_values(x: Rows) -> np.ndarray:
    """Each row's values with 0 wherever a coordinate reads the tail: what a
    scalar form that reads only x.support and drops the tail sees."""
    if not np.count_nonzero(x.tail):
        return x.vals
    return np.where(x.vals == x.tail[:, None], 0.0, x.vals)


def _equal_mass_family(mass: float, budget: int) -> list[SeqVec]:
    """(mass/n)(e1 + ... + en) for n = 1 to 64, 128, 256, 512 and the budget,
    every n at most the budget and 512."""
    ns = dict.fromkeys([*range(1, 65), 128, 256, 512, budget])  # no repeats
    return [SeqVec.from_dict({i: mass / n for i in range(1, n + 1)})
            for n in ns if 0 < n <= min(budget, 512)]


# ---------------------------------------------------------------------------
# Parameter rules


# A factory parameter as `list` and `describe` print it: JSON name, default,
# its rules' texts joined by ", ", and the factory's keyword for it.
@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: object
    constraint: str
    arg: str


# A rule is (JSON parameter name, text, test); the test reads the factory's
# arguments as attributes by keyword (a.lam for lambda).  Rules run in the
# order listed, so a test may assume the rules before it.
_ALPHA = ("alpha", "0 < alpha < 1", lambda a: 0.0 < a.alpha < 1.0)
_LAMBDA = ("lambda", "0 < lambda < 1", lambda a: 0.0 < a.lam < 1.0)
_P = ("p", "p >= 1", lambda a: a.p >= 1.0)
_R = ("r", "r > 0", lambda a: a.r > 0.0)


def _check(rules, args: Mapping[str, object]) -> None:
    """Raise InvalidParameterError at the first rule `args` break."""
    a = SimpleNamespace(**args)
    for name, text, holds in rules:
        if not holds(a):
            raise InvalidParameterError(name, f"requires {text}")


def _requires(*rules):
    """Decorator: the factory checks `rules` before it builds anything.  It
    gains `params`, a ParamSpec per argument with a default but breadth, and
    `takes_breadth`."""

    def wrap(factory):
        sig = inspect.signature(factory).parameters
        defaults = {k: p.default for k, p in sig.items()
                    if p.default is not p.empty}

        @functools.wraps(factory)
        def checked(*args, **kwargs):
            _check(rules, {**defaults, **dict(zip(sig, args)), **kwargs})
            return factory(*args, **kwargs)

        json_name = {k: "lambda" if k == "lam" else k for k in defaults}
        checked.params = tuple(
            ParamSpec(json_name[k], d, ", ".join(
                t for n, t, _ in rules if n == json_name[k]), k)
            for k, d in defaults.items() if k != "breadth")
        checked.takes_breadth = "breadth" in sig
        return checked

    return wrap


# ---------------------------------------------------------------------------
# Individual constructions


@_requires(_ALPHA)
def prus_map(alpha: float = 0.5) -> MapInstance:
    """T(x) = (|1 - |L(x)|^a|, |t1|^a, |t2|^a, ...) on the sup-norm ball of c,
    where L(x) is the limit of x.  Holder nonexpansive with exponent a, fixed
    point free, and T^n(0) walks along (1,...,1,0,...) at displacement 1."""

    def apply(x: SeqVec) -> SeqVec:
        tail = abs(x.tail) ** alpha
        return shifted([abs(1.0 - tail)], x, tail, lambda v: abs(v) ** alpha)

    def apply_rows(x: Rows) -> Rows:
        tail = pow_each(np.abs(x.tail), alpha)
        return shift_rows([np.abs(1.0 - tail)],
                          pow_each(np.abs(x.vals), alpha), tail)

    return MapInstance(
        name="prus",
        params={"alpha": alpha},
        domain=ball(1.0, SUP),
        norm=SUP,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=1.0,
            uniform=False,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="T(x) = (|1 - |lim x|^a|, |t1|^a, |t2|^a, ...)",
        notes=("the orbit of 0 has every displacement equal to 1, so the "
               "minimal displacement is witnessed nowhere along it"),
    )


@_requires(_ALPHA)
def norming_map(alpha: float = 0.5) -> MapInstance:
    """T(x) = ((1 + t1^2)/2)^a * e1 on the l2 ball; t1 is the value of the
    norming functional of e1.  Fixed point e1; for a = 1/2 the iterates have
    the closed form (sum_{i<=n} 2^-i + t1^2/2^n)^(1/2) e1."""

    def apply(x: SeqVec) -> SeqVec:
        phi = coordinate(x, 1)
        c = ((1.0 + phi * phi) / 2.0) ** alpha
        return SeqVec(((1, c),), 0.0)

    def apply_rows(x: Rows) -> Rows:
        phi = x.column(1)
        with np.errstate(over="ignore"):  # inf, as the scalar square gives
            c = pow_each((1.0 + phi * phi) / 2.0, alpha)
        return Rows(c[:, None], np.zeros(len(c)))

    oracle = None
    if alpha == 0.5:

        def oracle(x: SeqVec, n: int) -> SeqVec:
            if n == 0:
                return x
            phi = coordinate(x, 1)
            # 1 - 2^-n is sum_{i<=n} 2^-i, correctly rounded
            s = (1.0 - 2.0 ** -n) + phi * phi * 2.0 ** -n
            return SeqVec(((1, math.sqrt(s)),), 0.0)

    return MapInstance(
        name="norming",
        params={"alpha": alpha},
        domain=ball(1.0, L2),
        norm=L2,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=1.0,
            uniform=False,
            classical_lipschitz=alpha * 2.0 ** (1.0 - alpha),
            displacement_bound=0.0,
            fixed_points=FixedPointSet.singleton(basis_vector(1, 1.0)),
        ),
        formula="T(x) = ((1 + t1^2)/2)^a e1",
        iterate_oracle=oracle,
        notes="also classically Lipschitz with constant a*2^(1-a)",
    )


@_requires()
def baseline_c_map() -> MapInstance:
    """F(x) = (1, 0, |t1|, |t2|, ...) on the sup-norm ball: nonexpansive,
    fixed point free, the inner map lifted into small balls elsewhere."""

    def apply(x: SeqVec) -> SeqVec:
        return shifted([1.0, 0.0], x, abs(x.tail), abs)

    def apply_rows(x: Rows) -> Rows:
        return shift_rows([1.0, 0.0], np.abs(x.vals), np.abs(x.tail))

    return MapInstance(
        name="baseline_c",
        params={},
        domain=ball(1.0, SUP),
        norm=SUP,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=1.0,
            holder_constant=1.0,
            uniform=True,
            classical_lipschitz=1.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="F(x) = (1, 0, |t1|, |t2|, ...)",
    )


@_requires(_P, _ALPHA, _LAMBDA)
def shift_simplex_map(p: float = 1.0, alpha: float = 0.5, lam: float = 0.5) -> MapInstance:
    """The forward shift on the lp simplex slice of mass lam^(p/(1-a))/2.
    Uniformly a-Holder lam-contractive (the mass is sized so the diameter
    absorbs the exponent gap), affine, fixed point free, displacement 0."""
    mass = lam ** (p / (1.0 - alpha)) / 2.0

    def apply(x: SeqVec) -> SeqVec:
        return shifted([0.0], x, 0.0)

    def apply_rows(x: Rows) -> Rows:
        return shift_rows([0.0], _support_values(x), np.zeros(len(x.tail)))

    return MapInstance(
        name="shift_simplex",
        params={"p": p, "alpha": alpha, "lambda": lam, "mass": mass},
        domain=simplex(mass),
        norm=NormKind.lp(p),
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=lam,
            uniform=True,
            affine=True,
            classical_lipschitz=1.0,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="F(t1, t2, ...) = (0, t1, t2, ...) on the mass slice",
        witness_family=lambda budget: _equal_mass_family(mass, budget),
        notes=("equal-mass averages x_n = (mass/n)(e1+...+en) displace by "
               "exactly 2*mass/n in l1"),
    )


@_requires(("L", "L > 1", lambda a: a.L > 1.0),
           ("lambda", "1/L < lambda <= 1", lambda a: 1.0 / a.L < a.lam <= 1.0),
           _ALPHA)
def affine_mixing_map(
    L: float = 2.0,
    lam: float = 0.75,
    alpha: float = 0.5,
) -> MapInstance:
    """Mass-preserving affine mixing on the l1 simplex slice: coordinate n
    keeps a (1 - gamma_n) share and passes gamma_n = 2^-n forward.  Fixed
    point free; two-sided bound (1/L)||x-y|| <= ||Tx-Ty|| <= lam*||x-y||^a
    claimed, the lower side recorded for measurement only."""
    mass = 0.5 * (lam / L) ** (1.0 / (1.0 - alpha))

    def apply(x: SeqVec) -> SeqVec:
        out: dict[int, float] = {}
        for i, v in x.support:
            g = 2.0 ** -i
            out[i] = out.get(i, 0.0) + (1.0 - g) * v
            out[i + 1] = out.get(i + 1, 0.0) + g * v
        return SeqVec.from_dict(out, 0.0)

    def apply_rows(x: Rows) -> Rows:
        v = _support_values(x)
        g = np.ldexp(1.0, -np.arange(1, x.width + 1))
        vals = np.zeros((len(x.tail), x.width + 1))
        vals[:, 1:] = g * v
        vals[:, :-1] += (1.0 - g) * v
        return Rows(vals, np.zeros(len(x.tail)))

    return MapInstance(
        name="affine_mixing",
        params={"L": L, "lambda": lam, "alpha": alpha, "mass": mass,
                "gamma": "2^-n"},
        domain=simplex(mass),
        norm=L1,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=lam,
            uniform=True,
            affine=True,
            classical_lipschitz=1.0,
            lower_bound=1.0 / L,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="T(x)_n = (1 - gamma_n) t_n + gamma_{n-1} t_{n-1}, gamma_n = 2^-n",
        notes=("the expansion floor ||Tx - Ty|| >= ||x - y||/L is recorded "
               "report-only; the mass slice is sized from (lam, L, a)"),
    )


@_requires(_P, _ALPHA)
def deficiency_map(p: float = 2.0, alpha: float = 0.5) -> MapInstance:
    """T(x) = (r - ||x||_p) e1 + sum_i t_i e_{2i} on the lp ball whose radius
    r solves (2r)^(1-a) 2^(2-a) = 1, which makes T a-Holder nonexpansive;
    fixed point free with minimal displacement at most 2r."""
    lam = 0.5 * 0.5 ** ((2.0 - alpha) / (1.0 - alpha))
    nk = NormKind.lp(p)
    dom = ball(lam, nk)

    def apply(x: SeqVec) -> SeqVec:
        head = [(1, lam - norm(x, nk))]
        return SeqVec.from_sorted(head + [(2 * i, v) for i, v in x.support])

    def apply_rows(x: Rows) -> Rows:
        # twice as wide: coordinate i moves to 2i (column 2i - 1)
        vals = np.zeros((len(x.tail), max(2 * x.width, 1)))
        vals[:, 0] = lam - rows_norm(x, nk)  # raises on a nonzero tail
        vals[:, 1::2] = x.vals
        return Rows(vals, np.zeros(len(x.tail)))

    return MapInstance(
        name="deficiency",
        params={"p": p, "alpha": alpha, "radius": lam},
        domain=dom,
        norm=nk,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=1.0,
            uniform=False,
            displacement_bound=2.0 * lam,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="T(x) = (r - ||x||_p) e1 + sum_i t_i e_{2i} on the radius-r ball",
        notes="the radius satisfies (2r)^(1-a) * 2^(2-a) = 1",
    )


def _gk_damping(i: int) -> float:
    return 1.0 - 1.0 / (i * i)


@_requires(_ALPHA)
def goebel_kirk_map(alpha: float = 0.5) -> MapInstance:
    """Asymptotically a-Holder nonexpansive map on the l2 ball:
    F(t) = (0, t1^a, A2 t2, A3 t3, ...) with A_i = 1 - 1/i^2, composed with
    the projection onto the cone in front and onto the ball behind.

    The trailing ball projection is needed because F alone can push points
    slightly outside the ball (first-coordinate mass gains under t1^a); the
    projection is nonexpansive in l2 and acts at most once along any orbit,
    since F outputs have first coordinate 0 and are then strictly shrunk."""

    def apply(x: SeqVec) -> SeqVec:
        if x.tail != 0.0:
            raise NotInSpaceError("goebel_kirk is defined on l2 (tail 0)")
        out: dict[int, float] = {}
        for i, v in x.support:
            if v <= 0.0:
                continue  # projection onto the cone
            if i == 1:
                out[2] = v ** alpha
            else:
                out[i + 1] = _gk_damping(i) * v
        y = SeqVec.from_dict(out, 0.0)
        return radial_retract(y, 1.0, L2)

    def apply_rows(x: Rows) -> Rows:
        if np.count_nonzero(x.tail):
            raise NotInSpaceError("goebel_kirk is defined on l2 (tail 0)")
        v = np.where(x.vals <= 0.0, 0.0, x.vals)  # projection onto the cone
        i = np.arange(2, x.width + 1)
        vals = np.zeros((len(x.tail), x.width + 1))
        vals[:, 1:2] = pow_each(v[:, :1], alpha)
        vals[:, 2:] = _gk_damping(i) * v[:, 1:]
        return radial_rows(Rows(vals, x.tail), 1.0, L2)

    def profile(n: int) -> float:
        return (n + 1) / n * 2.0 ** (1.0 - alpha)

    return MapInstance(
        name="goebel_kirk",
        params={"alpha": alpha},
        domain=ball(1.0, L2),
        norm=L2,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=2.0,
            uniform=False,
            asymptotic_profile=profile,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.singleton(ZERO),
        ),
        formula=("T = proj_ball . F . pos with "
                 "F(t) = (0, t1^a, A2 t2, A3 t3, ...), A_i = 1 - 1/i^2"),
        notes=("iterate-n ratios are bounded by the profile "
               "(n+1)/n * 2^(1-a); the map is not classically Lipschitz "
               "(recorded, not asserted)"),
    )


@_requires(("N", "N >= 1", lambda a: a.N >= 1), _ALPHA,
           ("N", "N^alpha >= 2", lambda a: 2.0 <= float(a.N) ** a.alpha))
def hyperconvex_map(N: int = 4, alpha: float = 0.5) -> MapInstance:
    """F(x) = (1/N, t2 t1^a, t1, t2, ...) on coords and tail in [0, 1/N].
    Uniformly a-Holder nonexpansive, fixed point free; iterates have a closed
    form used as the oracle."""
    cap = 1.0 / N
    dom = c_interval(cap)

    def apply(x: SeqVec) -> SeqVec:
        t1 = t2 = x.tail
        for i, v in x.support:  # sorted, so only the first entries matter
            if i == 1:
                t1 = v
            else:
                if i == 2:
                    t2 = v
                break
        if t1 < 0.0:  # t1 ** alpha would be complex
            raise DomainViolationError("hyperconvex needs t1 >= 0")
        return shifted([cap, t2 * t1 ** alpha], x, x.tail)

    def apply_rows(x: Rows) -> Rows:
        t1, t2 = x.column(1), x.column(2)
        if np.count_nonzero(t1 < 0.0):
            raise DomainViolationError("hyperconvex needs t1 >= 0")
        with np.errstate(invalid="ignore"):  # nan, as the scalar 0 * inf gives
            return shift_rows([cap, t2 * pow_each(t1, alpha)], x.vals, x.tail)

    def oracle(x: SeqVec, n: int) -> SeqVec:
        if n == 0:
            return x
        t1 = coordinate(x, 1)
        t2 = coordinate(x, 2)
        head = []
        for k in range(n - 1, -1, -1):
            try:
                s = t1 / float(N) ** k
            except OverflowError:  # N^k passes the float range
                s = t1 / math.inf
            head += (cap, t2 * s ** alpha)
        return shifted(head, x, x.tail)

    return MapInstance(
        name="hyperconvex",
        params={"N": N, "alpha": alpha},
        domain=dom,
        norm=SUP,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=1.0,
            uniform=True,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="F(x) = (1/N, t2 t1^a, t1, t2, ...) with coords in [0, 1/N]",
        iterate_oracle=oracle,
        notes=("scaling the argument by lam < 1 gives orbits whose "
               "displacements decay like lam^n"),
    )


@_requires(("delta", "0 < delta < 1", lambda a: 0.0 < a.delta < 1.0),
           ("q", "0 < q <= 1 - delta", lambda a: 0.0 < a.q <= 1.0 - a.delta),
           ("alpha", "0 < alpha <= 1", lambda a: 0.0 < a.alpha <= 1.0))
def c0_family_map(delta: float = 0.5, q: float = 0.25, alpha: float = 0.9,
                  breadth: int = 64) -> MapInstance:
    """T_a(x) = (1-delta) e1 + sum_i (1-delta) t_i^a e_{i+1} on the band
    q^i <= t_i <= t_1 = 1-delta.  For a < 1 fixed point free with minimal
    displacement at most (1-delta)(1-a) sup t^a|ln t| = (1-delta)(1-a)/(e a);
    for a = 1 the geometric point sum (1-delta)^i e_i is fixed."""
    top = 1.0 - delta
    dom = sigma_band(delta, q, breadth=breadth)
    star = SeqVec.from_dict({i: top ** i for i in range(1, breadth + 1)})

    def coordinate_rule(v: float) -> float:
        if v < 0.0:
            raise DomainViolationError("c0_family needs nonnegative coords")
        return top * v ** alpha

    def apply(x: SeqVec) -> SeqVec:
        if x.tail != 0.0:
            raise NotInSpaceError("c0_family is defined on c0 (tail 0)")
        return shifted([top], x, 0.0, coordinate_rule)

    def apply_rows(x: Rows) -> Rows:
        if np.count_nonzero(x.tail) or np.count_nonzero(x.vals < 0.0):
            raise DomainViolationError(
                "c0_family needs nonnegative coords and tail 0")
        return shift_rows([top], top * pow_each(x.vals, alpha), x.tail)

    if alpha == 1.0:
        fps = FixedPointSet.singleton(star, residual=top ** (breadth + 1))
        disp = 0.0
    else:
        fps = FixedPointSet.empty()
        disp = top * (1.0 - alpha) * sup_t_alpha_log(alpha)

    return MapInstance(
        name="c0_family",
        params={"delta": delta, "q": q, "alpha": alpha},
        domain=dom,
        norm=SUP,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=1.0,
            uniform=False,
            displacement_bound=disp,
            fixed_points=fps,
        ),
        formula="T_a(x) = ((1-d), (1-d) t1^a, (1-d) t2^a, ...) on the band",
        witness_family=lambda budget: [star],
        notes=("the family is continuous in the exponent: "
               "||T_a(x) - T_b(x)|| <= ((1-d)/2)|a-b| once a, b are large "
               "enough that t^a|ln t| <= 1/2 on (0, 1]"),
    )


@_requires(_R, _ALPHA, _LAMBDA,
           ("r", "(2r)^(1-alpha) <= lambda",
            lambda a: (2.0 * a.r) ** (1.0 - a.alpha) <= a.lam))
def affine_cube_map(r: float = 0.125, alpha: float = 0.5, lam: float = 0.5,
                    breadth: int = 64) -> MapInstance:
    """T(x)_n = (1 - beta_n) t_n + r beta_n on the c0 coefficient box [0, r],
    with beta_n = 1/(n+1).  Uniformly a-Holder lam-contractive
    when (2r)^(1-a) <= lam; the untruncated map is fixed point free, and the
    corner witnesses r(e1+...+em) displace by exactly r*beta_{m+1}."""
    dom = coefficient_box(r, breadth=breadth)

    def apply(x: SeqVec) -> SeqVec:
        if x.tail != 0.0:
            raise NotInSpaceError("affine_cube is defined on c0 (tail 0)")
        d = dict(x.support)
        out: dict[int, float] = {}
        for n in range(1, breadth + 1):
            bn = 1.0 / (n + 1)
            out[n] = (1.0 - bn) * d.pop(n, 0.0) + r * bn
        out.update(d)  # coordinates beyond the stored breadth are kept
        return SeqVec.from_dict(out, 0.0)

    beta_row = 1.0 / np.arange(2, breadth + 2)

    def apply_rows(x: Rows) -> Rows:
        if np.count_nonzero(x.tail):
            raise NotInSpaceError("affine_cube is defined on c0 (tail 0)")
        x = x.widen(breadth)
        head = (1.0 - beta_row) * x.vals[:, :breadth] + r * beta_row
        return Rows(np.concatenate([head, x.vals[:, breadth:]], axis=1), x.tail)

    def witnesses(budget: int) -> list[SeqVec]:
        top = min(budget, breadth - 1)
        return [
            SeqVec.from_dict({i: r for i in range(1, m + 1)})
            for m in range(1, top + 1)
        ]

    return MapInstance(
        name="affine_cube",
        params={"r": r, "alpha": alpha, "lambda": lam, "beta": "1/(n+1)"},
        domain=dom,
        norm=SUP,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=lam,
            uniform=True,
            affine=True,
            classical_lipschitz=1.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="T(x)_n = (1 - beta_n) t_n + r beta_n, beta_n = 1/(n+1)",
        witness_family=witnesses,
        notes=("the affine part is stored up to the domain breadth, so the "
               "full box corner is a truncation fixed point; the emptiness "
               "claim refers to the untruncated rule and the reported "
               "minimal displacement is never asserted to be zero"),
    )


@_requires()
def renormed_l1_map() -> MapInstance:
    """T(x) = (1 - sum_i t_i, t1, t2, ...) on the nonnegative mass-at-most-1
    set, measured in the max(positive part, negative part) renorming of l1.
    An affine fixed-point-free isometry in that norm."""

    def apply(x: SeqVec) -> SeqVec:
        s = math.fsum(v for _, v in x.support)
        if x.tail != 0.0:
            raise NotInSpaceError("renormed_l1 is defined on l1 (tail 0)")
        return shifted([1.0 - s], x, 0.0)

    def apply_rows(x: Rows) -> Rows:
        if np.count_nonzero(x.tail):
            raise NotInSpaceError("renormed_l1 is defined on l1 (tail 0)")
        return shift_rows([1.0 - fsum_rows(x.vals)], x.vals, x.tail)

    return MapInstance(
        name="renormed_l1",
        params={},
        domain=sub_simplex(1.0),
        norm=MPN,
        apply=_batched(apply, apply_rows),
        claims=ClaimProfile(
            alpha=0.5,
            holder_constant=1.0,
            uniform=True,
            affine=True,
            classical_lipschitz=1.0,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula="T(x) = (1 - sum t_i, t1, t2, ...), norm max(||x+||_1, ||x-||_1)",
        notes=("an isometry is uniformly a-Holder nonexpansive for every "
               "exponent on a diameter-1 set; alpha = 0.5 is the "
               "representative exponent used for ratio checks"),
    )


@_requires(_ALPHA, _LAMBDA)
def l1_ball_composite_map(alpha: float = 0.5, lam: float = 0.5) -> MapInstance:
    """The composite T = shift . abs . sphere-retract . ball-retract on the
    unit l1 ball, landing on the small positive sphere of radius
    r = (lam/8^th)^(1/(1-th))/4 with th = sqrt(a).  Claimed uniformly
    a-Holder lam-contractive; the claim is recorded report-only because the
    retraction constants are certified elsewhere, not here."""
    theta = math.sqrt(alpha)
    r = 0.25 * (lam / 8.0 ** theta) ** (1.0 / (1.0 - theta))

    def to_sphere(x: SeqVec) -> SeqVec:
        g = radial_retract(x, r, L1)
        s = l1_sphere_retract(g, r)
        return abs_retract(s)

    def apply(x: SeqVec) -> SeqVec:
        return shift_right(to_sphere(x))

    def oracle(x: SeqVec, n: int) -> SeqVec:
        # T^n = shift^n . abs . sphere . ball: the shift fixes the landed
        # sphere pointwise apart from moving it, and the retractions fix it.
        if n == 0:
            return x
        base = to_sphere(x)
        return SeqVec(tuple((i + n, v) for i, v in base.support), 0.0)

    return MapInstance(
        name="l1_ball_composite",
        params={"alpha": alpha, "lambda": lam, "radius": r},
        domain=ball(1.0, L1),
        norm=L1,
        apply=apply,
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=lam,
            uniform=True,
            hard=False,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.empty(),
        ),
        formula=("T = shift . abs . sphere_retract(r) . ball_retract(r), "
                 "r = (lam/8^sqrt(a))^(1/(1-sqrt(a)))/4"),
        iterate_oracle=oracle,
        witness_family=lambda budget: _equal_mass_family(r, budget),
        notes=("report-only Holder claim; the iterate identity "
               "T^n = shift^n . (abs . sphere . ball) holds because the "
               "shift maps the landed sphere into itself"),
    )


# ---------------------------------------------------------------------------
# Combinators


@_requires(_LAMBDA)
def lambda_scale(inner: MapInstance, lam: float) -> MapInstance:
    """x -> inner(lam * x).  Needs a domain star-shaped about 0."""
    if not inner.domain.star_shaped:
        raise InvalidCompositionError(
            f"lambda_scale needs a domain star-shaped about 0, "
            f"not {inner.domain.kind}"
        )

    def apply(x: SeqVec) -> SeqVec:
        return inner.apply(scale(lam, x))

    return MapInstance(
        name=f"lambda_scale({inner.name}, {lam})",
        params={"lambda": lam, "inner": inner.name},
        domain=inner.domain,
        norm=inner.norm,
        apply=apply,
        claims=replace(inner.claims, fixed_points=FixedPointSet.unknown(),
                       displacement_bound=None),
        formula=f"x -> inner(lam x) with inner: {inner.formula}",
        notes="orbit displacements of the scaled map decay geometrically",
    )


@_requires(("epsilon", "0 < epsilon < 1", lambda a: 0.0 < a.epsilon < 1.0), _ALPHA)
def holderize(T: MapInstance, epsilon: float, alpha: float = 0.5) -> MapInstance:
    """Blend a nonexpansive T with the identity through the radial weight
    c(x) = eps ||x||^a / (4 (1 + ||x||^a)), yielding an a-Holder map with
    constant eps + diam^(1-a) that stays eps-close to T and keeps its fixed
    points."""
    cl = T.claims.classical_lipschitz
    if cl is None or cl > 1.0:
        raise InvalidCompositionError(
            "holderize needs a classically nonexpansive inner map"
        )

    def weight(x: SeqVec) -> float:
        na = norm(x, T.norm) ** alpha
        return epsilon * na / (4.0 * (1.0 + na))

    def apply(x: SeqVec) -> SeqVec:
        c = weight(x)
        return axpy(c, x, 1.0 - c, T.apply(x))

    diam = T.domain.diameter_bound()
    return MapInstance(
        name=f"holderize({T.name}, {epsilon})",
        params={"epsilon": epsilon, "alpha": alpha, "inner": T.name},
        domain=T.domain,
        norm=T.norm,
        apply=apply,
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=epsilon + diam ** (1.0 - alpha),
            uniform=False,
            displacement_bound=T.claims.displacement_bound,
            fixed_points=T.claims.fixed_points,
        ),
        formula="T_eps(x) = c(x) x + (1 - c(x)) T(x), c = eps||x||^a/(4(1+||x||^a))",
        notes="||T_eps(x) - T(x)|| <= eps/4 * ||x - Tx|| <= eps on unit-ball domains",
    )


def lift_to_ball(F: MapInstance, r: float, alpha: float, lam: float) -> MapInstance:
    """Conjugate a nonexpansive F on the unit ball into the radius-r ball:
    T(x) = r F(R(x)/r) with R the radial retraction.  For 2 L r^(1-a) <= lam
    the lift is a-Holder lam-contractive, and displacements transport as
    d(T) <= r d(F)."""
    if F.domain.kind != "ball" or F.domain.r != 1.0:
        raise InvalidCompositionError("lift_to_ball needs an inner map on the unit ball")
    L = F.claims.classical_lipschitz
    if L is None:
        raise InvalidCompositionError(
            "lift_to_ball needs an inner map with a classical Lipschitz constant"
        )
    # the last rule reads L, so the rules run after the composition checks
    _check((_ALPHA, _R, ("r", "2 L r^(1-alpha) <= lambda",
                         lambda a: 2.0 * a.L * a.r ** (1.0 - a.alpha) <= a.lam)),
           {"L": L, "r": r, "alpha": alpha, "lam": lam})

    def apply(x: SeqVec) -> SeqVec:
        rx = radial_retract(x, r, F.norm)
        return scale(r, F.apply(scale(1.0 / r, rx)))

    inner_disp = F.claims.displacement_bound
    inner_family = F.witness_family

    def witnesses(budget: int) -> list[SeqVec]:
        pts = [scale(r, p) for p in F.domain.canonical_points()]
        if inner_family is not None:
            pts.extend(scale(r, p) for p in inner_family(budget))
        return pts

    return MapInstance(
        name=f"lift_to_ball({F.name}, {r})",
        params={"r": r, "alpha": alpha, "lambda": lam, "inner": F.name},
        domain=ball(1.0, F.norm),
        norm=F.norm,
        apply=apply,
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=lam,
            uniform=L <= 1.0,
            displacement_bound=None if inner_disp is None else r * inner_disp,
            fixed_points=(FixedPointSet.empty()
                          if F.claims.fixed_points.kind == "empty"
                          else FixedPointSet.unknown()),
        ),
        formula="T(x) = r F(R(x)/r), R the radial retraction onto the r-ball",
        witness_family=witnesses,
        notes="witnesses transport by scaling: ||rx - T(rx)|| = r ||x - F(x)|| inside the r-ball",
    )


@_requires(("alpha", "alpha > 1 for the probe", lambda a: a.alpha > 1.0))
def constant_map(value: SeqVec, domain: DomainSpec, kind: NormKind,
                 alpha: float = 2.0) -> MapInstance:
    """x -> value.  With alpha > 1 this is the only shape a Holder map with
    that exponent can take on a convex set, which is what the exponent probe
    checks."""
    if not domain.contains(value):
        raise InvalidParameterError("value", "must belong to the domain")

    return MapInstance(
        name="constant",
        params={"alpha": alpha},
        domain=domain,
        norm=kind,
        apply=lambda x: value,
        claims=ClaimProfile(
            alpha=alpha,
            holder_constant=0.5,
            uniform=True,
            displacement_bound=0.0,
            fixed_points=FixedPointSet.singleton(value),
        ),
        formula="T(x) = c",
        notes="exponents above 1 force constancy on convex domains",
    )


# ---------------------------------------------------------------------------
# Scalar orbit for exponents above 1


@dataclass(frozen=True)
class ScalarOrbit:
    """Orbit of a scalar map T with |T(s) - T(t)| <= L |s - t|^alpha, alpha
    above 1: values, the actual displacement trace, and the majorant trace
    rho_{k+1} = L rho_k^alpha seeded at the first displacement."""

    values: tuple[float, ...]
    displacements: tuple[float, ...]
    majorant: tuple[float, ...]
    converged: bool


@_requires(("alpha", "alpha > 1", lambda a: a.alpha > 1.0),
           ("L", "0 < L < 1", lambda a: 0.0 < a.L < 1.0),
           ("n", "n >= 0", lambda a: a.n >= 0),
           ("x0", "|T(x0) - x0| <= 1", lambda a: abs(a.T_rule(a.x0) - a.x0) <= 1.0))
def banach_alpha_gt1_iterate(T_rule: Callable[[float], float], x0: float,
                             L: float, alpha: float, n: int) -> ScalarOrbit:
    values = [x0]
    displacements: list[float] = []
    converged = False
    x = x0
    for _ in range(n):
        y = T_rule(x)
        rho = abs(y - x)
        values.append(y)
        displacements.append(rho)
        x = y
        if rho < 1e-15:
            converged = True
            break
    majorant: list[float] = []
    if displacements:
        rho = displacements[0]
        majorant.append(rho)
        for _ in range(len(displacements) - 1):
            rho = L * rho ** alpha
            majorant.append(rho)
    return ScalarOrbit(tuple(values), tuple(displacements), tuple(majorant),
                       converged)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    factory: Callable[..., MapInstance]
    summary: str

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        return self.factory.params


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry("prus", prus_map,
                     "fixed-point-free Holder nonexpansive map on the sup ball of c"),
        CatalogEntry("norming", norming_map,
                     "rank-one map on the l2 ball with fixed point e1 and closed-form "
                     "iterates at alpha = 1/2"),
        CatalogEntry("baseline_c", baseline_c_map,
                     "nonexpansive fixed-point-free base map lifted into small balls"),
        CatalogEntry("shift_simplex", shift_simplex_map,
                     "forward shift on a mass slice, uniformly Holder contractive"),
        CatalogEntry("affine_mixing", affine_mixing_map,
                     "mass-preserving affine mixing with a report-only expansion floor"),
        CatalogEntry("deficiency", deficiency_map,
                     "Holder nonexpansive map with small but positive displacement bound"),
        CatalogEntry("goebel_kirk", goebel_kirk_map,
                     "asymptotically Holder nonexpansive, profile (n+1)/n * 2^(1-a)"),
        CatalogEntry("hyperconvex", hyperconvex_map,
                     "uniformly Holder nonexpansive, fixed point free on [0, 1/N] coords"),
        CatalogEntry("c0_family", c0_family_map,
                     "exponent-continuous family on a band, fixed point free below a = 1"),
        CatalogEntry("affine_cube", affine_cube_map,
                     "affine box map with exact corner witnesses r*beta_{m+1}"),
        CatalogEntry("renormed_l1", renormed_l1_map,
                     "affine fixed-point-free isometry in the max(pos, neg) renorming"),
        CatalogEntry("l1_ball_composite", l1_ball_composite_map,
                     "retract-to-sphere composite on the unit l1 ball (report-only claim)"),
    ]
}


@dataclass(frozen=True)
class Retraction:
    """A named retraction: its claimed Lipschitz constant, the sets it
    connects, and setup(r) -> (domain, norm, map), the set it is sampled on
    at radius r (strictly larger than the target where that makes the
    measurement interesting) with the map itself."""

    name: str
    lipschitz: float
    source_set: str
    target_set: str
    formula: str
    setup: Callable[[float], tuple[DomainSpec, NormKind,
                                   Callable[[SeqVec], SeqVec]]]

    def __post_init__(self) -> None:
        if not self.lipschitz >= 1.0:
            raise ValueError("a retraction is at best 1-Lipschitz")

    @property
    def summary(self) -> str:
        return (f"retraction wrapper: {self.source_set} -> {self.target_set} "
                f"(Lipschitz {self.lipschitz:g})")

    @_requires(_R)
    def factory(self, r: float = 1.0) -> MapInstance:
        """The retraction as a self-map; the claimed constant holds for
        every iterate because retractions are idempotent."""
        domain, kind, apply = self.setup(r)
        return MapInstance(
            name=self.name,
            params={"r": r},
            domain=domain,
            norm=kind,
            apply=apply,
            claims=ClaimProfile(
                alpha=1.0,
                holder_constant=self.lipschitz,
                uniform=True,
                hard=True,
                classical_lipschitz=self.lipschitz,
                displacement_bound=0.0,
                fixed_points=FixedPointSet.unknown(),
            ),
            formula=self.formula,
            notes=f"retraction of {self.source_set} onto {self.target_set}; "
                  f"claimed Lipschitz constant {self.lipschitz:g}",
        )

    params = factory.params


# setup looks the retraction functions up in this module when it runs, so a
# map built after one of those names is rebound (say, wrapped by a profiler)
# calls the rebound function.
RETRACTION_CATALOG: dict[str, Retraction] = {
    e.name: e
    for e in [
        Retraction("radial", 2.0, "normed space", "ball(r)",
                   "R(x) = x if ||x|| <= r else r x / ||x||",
                   lambda r: (ball(2.0 * r, L2), L2,
                              _batched(lambda x: radial_retract(x, r, L2),
                                       lambda x: radial_rows(x, r, L2)))),
        Retraction("abs", 1.0, "l1", "nonnegative cone", "R((t_j)) = (|t_j|)",
                   lambda r: (ball(r, L1), L1, abs_retract)),
        Retraction("positive_part", 1.0, "l2", "nonnegative cone",
                   "R((t_j)) = (max(t_j, 0))",
                   lambda r: (ball(r, L2), L2, positive_part)),
        Retraction("clamp", 1.0, "nonnegative cone (sup norm)",
                   "coefficient_box(r)",
                   "R((t_j)) = (min(t_j, r)) on the nonnegative cone",
                   lambda r: (coefficient_box(2.0 * r), SUP,
                              _batched(lambda x: clamp_retract(x, r),
                                       lambda x: clamp_rows(x, r)))),
        Retraction("l1_sphere", 8.0, "l1 ball(r)", "l1 sphere(r)",
                   "R(x) = (r - 2||x||_1) e_1 + 2 S(x) below mass r/2, "
                   "else (x - Q(x)) + 2 S(Q(x)); identity on the sphere",
                   lambda r: (ball(r, L1), L1,
                              _batched(lambda x: l1_sphere_retract(x, r),
                                       lambda x: l1_sphere_rows(x, r)))),
    ]
}


def _lookup(table: Mapping[str, object], name: str):
    if name not in table:
        raise UnknownNameError(
            name, tuple(difflib.get_close_matches(name, table, n=3)))
    return table[name]


def retraction_map(name: str, r: float = 1.0) -> MapInstance:
    """Wrap a named retraction as a self-map so the verifier can sample it."""
    return _lookup(RETRACTION_CATALOG, name).factory(r)


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOG))


def retraction_names() -> tuple[str, ...]:
    return tuple(sorted(RETRACTION_CATALOG))


def build_map(name: str, params: Mapping[str, object] | None = None,
              breadth: int | None = None) -> MapInstance:
    """Construct a registered map or retraction wrapper by name.  JSON
    parameter names are used ('lambda' maps onto the factory's lam
    argument)."""
    entry = _lookup({**CATALOG, **RETRACTION_CATALOG}, name)
    specs = {p.name: p for p in entry.params}
    kwargs: dict[str, object] = {}
    for key, value in (params or {}).items():
        if key not in specs:
            raise InvalidParameterError(
                key, f"not a parameter of {name!r} "
                     f"(expected {', '.join(specs) or 'none'})"
            )
        if isinstance(specs[key].default, int):
            if not float(value).is_integer():
                raise InvalidParameterError(key, "must be an integer")
            value = int(value)
        kwargs[specs[key].arg] = value
    if breadth is None:
        return entry.factory(**kwargs)
    if entry.factory.takes_breadth:
        return entry.factory(**kwargs, breadth=breadth)
    inst = entry.factory(**kwargs)
    return replace(inst, domain=inst.domain.with_breadth(breadth))
