"""Bounded convex sets the catalog maps live on, with seeded samplers.

Each DomainSpec carries a membership test (tolerance-slackened inequalities,
default tol 1e-12), a deterministic sampler whose law has full support over
the breadth-truncated face of the set (default breadth 64), and a short list
of canonical points used as deterministic witnesses by the verifier.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidBudgetError, InvalidParameterError
from .seqvec import (SeqVec, NormKind, Rows, ZERO, basis_vector, fsum_rows,
                     pow_each, rows_norm)

__all__ = [
    "DOMAIN_KINDS",
    "MAX_BREADTH",
    "DomainSpec",
    "ball",
    "positive_ball",
    "simplex",
    "sub_simplex",
    "coefficient_box",
    "sigma_band",
    "c_interval",
    "as_rng",
]

DEFAULT_TOL = 1e-12
DEFAULT_BREADTH = 64
# Largest breadth a config or flag may ask for; some maps store one
# coordinate per unit of breadth before any check runs.
MAX_BREADTH = 65_536


# A kind's DomainSpec fields (also its config params), whether lam * x
# stays inside for every 0 < lam < 1, and whether members may have a nonzero
# tail (with a norm field: when that norm allows tails).
@dataclass(frozen=True)
class DomainKind:
    params: tuple[str, ...]
    star_shaped: bool
    tails: bool = False


DOMAIN_KINDS: dict[str, DomainKind] = {
    "ball": DomainKind(("r", "norm"), True, True),
    "positive_ball": DomainKind(("r", "norm"), True, True),
    "simplex": DomainKind(("mass",), False),            # sum == mass
    "sub_simplex": DomainKind(("mass_cap",), True),     # sum <= mass_cap
    "coefficient_box": DomainKind(("r",), True),        # coords in [0, r]
    "sigma_band": DomainKind(("delta", "q"), False),    # q^i <= t_i <= 1-delta
    "c_interval": DomainKind(("cap",), True, True),     # coords, tail <= cap
}

# The rule on each parameter field, whichever kind reads it; every field but
# norm must also be a finite number.
_CONSTRAINTS = {
    "r": ("r > 0", lambda d: d.r > 0.0),
    "norm": ("a NormKind", lambda d: isinstance(d.norm, NormKind)),
    "mass": ("mass > 0", lambda d: d.mass > 0.0),
    "mass_cap": ("mass_cap > 0", lambda d: d.mass_cap > 0.0),
    "delta": ("0 < delta < 1", lambda d: 0.0 < d.delta < 1.0),
    "q": ("0 < q <= 1 - delta", lambda d: 0.0 < d.q <= 1.0 - d.delta),
    "cap": ("cap > 0", lambda d: d.cap > 0.0),
}

SeedLike = Union[int, np.random.Generator]


def as_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class DomainSpec:
    """One bounded convex subset of the sequence model; DOMAIN_KINDS
    names the fields each kind reads."""

    kind: str
    r: float | None = None
    norm: NormKind | None = None
    mass: float | None = None
    mass_cap: float | None = None
    delta: float | None = None
    q: float | None = None
    cap: float | None = None
    tol: float = DEFAULT_TOL
    breadth: int = DEFAULT_BREADTH

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in DOMAIN_KINDS:
            raise InvalidParameterError(
                "kind", f"must be one of {', '.join(DOMAIN_KINDS)}")
        own = DOMAIN_KINDS[self.kind].params
        for name, (rule, holds) in _CONSTRAINTS.items():
            value = getattr(self, name)
            if name not in own:
                if value is not None:
                    raise InvalidParameterError(
                        name, f"is not a parameter of a {self.kind} domain")
                continue
            if name != "norm":
                if not _is_finite(value):
                    raise InvalidParameterError(name, "requires a finite number")
                object.__setattr__(self, name, float(value))
            if not holds(self):
                raise InvalidParameterError(name, f"requires {rule}")
        if not (_is_finite(self.tol) and self.tol >= 0.0):
            raise InvalidParameterError("tol", "requires a finite tol >= 0")
        if self.breadth < 1:
            raise InvalidBudgetError(f"breadth {self.breadth} is below 1")

    @property
    def star_shaped(self) -> bool:
        return DOMAIN_KINDS[self.kind].star_shaped

    @cached_property
    def carries_tail(self) -> bool:
        """Whether some member has a nonzero tail."""
        return DOMAIN_KINDS[self.kind].tails and (
            self.norm is None or self.norm.allows_tail)

    # -- membership ---------------------------------------------------------

    def sigma(self, i: int) -> float:
        """Band floor q^i (sigma_band only)."""
        return self.q ** i

    @cached_property
    def _sigma_floors(self) -> "np.ndarray":
        return np.array([self.sigma(i) for i in range(2, self.breadth + 1)])

    @cached_property
    def _sigma_spans(self) -> "np.ndarray":
        return (1.0 - self.delta) - self._sigma_floors

    def contains(self, x: SeqVec) -> bool:
        """Membership of x: the one row of :meth:`contains_rows`."""
        return bool(self.contains_rows(self.pack([x]))[0])

    def pack(self, points) -> Rows:
        """The block contains_rows reads for a sequence of points, one row
        each.  sigma_band reads coordinates 1..breadth, so its rows hold
        those, as far as the furthest stored index.  Every other kind reads
        no index, so a row holds the support values in index order, padded
        with the tail, and a far index costs nothing."""
        if self.kind == "sigma_band":
            ends = [min(x.support[-1][0], self.breadth) if x.support else 0
                    for x in points]
            rows = [[x._dict.get(i, x.tail) for i in range(1, end + 1)]
                    for x, end in zip(points, ends)]
        else:
            rows = [[v for _, v in x.support] for x in points]
        width = max(map(len, rows), default=0)
        flat = []
        for row, x in zip(rows, points):
            flat += row
            flat += [x.tail] * (width - len(row))
        return Rows(np.array(flat, dtype=float).reshape(len(rows), width),
                    np.array([x.tail for x in points], dtype=float))

    def contains_rows(self, x: Rows) -> np.ndarray:
        """Membership of every row of a block: a Rows block, or the block
        :meth:`pack` makes of points.  Element and bound tests are exact,
        simplex totals are fsum's, and ball norms are rows_norm's, which
        equal the scalar norms."""
        tol = self.tol
        k = self.kind
        vals, tail = x.vals, x.tail
        ok = np.full(len(tail), True) if self.carries_tail else tail == 0.0
        if k in ("ball", "positive_ball"):
            if k == "positive_ball":
                ok &= (tail >= -tol) & (vals >= -tol).all(axis=1)
            # rows already out are measured with tail 0, so that none raises
            in_ball = rows_norm(Rows(vals, np.where(ok, tail, 0.0)), self.norm)
            return ok & (in_ball <= self.r + tol)
        if k in ("simplex", "sub_simplex"):
            ok &= ~(vals < -tol).any(axis=1)
            # rows already out are summed as zeros, so that none raises
            total = fsum_rows(np.where(ok[:, None], vals, 0.0))
            with np.errstate(invalid="ignore"):
                return ok & (np.abs(total - self.mass) <= tol if k == "simplex"
                             else total <= self.mass_cap + tol)
        if k == "coefficient_box":
            return ok & ((vals >= -tol) & (vals <= self.r + tol)).all(axis=1)
        if k == "sigma_band":
            top = 1.0 - self.delta
            # coordinates 1..n are stored (or, at width 0, coordinate 1
            # reads 0); n + 1..breadth read 0; beyond the breadth nothing
            # is checked
            n = max(min(x.width, self.breadth), 1)
            floors = self._sigma_floors
            with np.errstate(invalid="ignore"):
                ok &= np.abs(x.column(1) - top) <= tol
            band = vals[:, 1:n]
            ok &= ((floors[:n - 1] - tol <= band) & (band <= top + tol)).all(axis=1)
            if not (floors[n - 1:] - tol <= 0.0).all():
                ok[:] = False
            return ok
        # c_interval
        ok &= (-tol <= tail) & (tail <= self.cap + tol)
        return ok & ((vals >= -tol) & (vals <= self.cap + tol)).all(axis=1)

    # -- sampling ------------------------------------------------------------

    def sample(self, seed: SeedLike) -> SeqVec:
        """One random member: the single row of :meth:`sample_rows`.
        Deterministic given an integer seed; pass a Generator to draw a
        stream."""
        return self.sample_rows(seed, 1).vec(0)

    def sample_rows(self, seed: SeedLike, count: int) -> Rows:
        """`count` random members as a block of rows `breadth` wide.  The
        law charges every region of the breadth-truncated face with positive
        probability: a support size uniform on 1..b, a uniformly random
        support of that size, and uniform values (Dirichlet(1,...,1) weights
        on the simplices).

        Each row is read off its own run of uniforms, so the rows drawn from
        one Generator do not depend on how they are split into blocks."""
        rng = as_rng(seed)
        b = self.breadth
        k = self.kind
        zeros = np.zeros(count)

        if k == "sigma_band":
            vals = np.empty((count, b))
            vals[:, 0] = 1.0 - self.delta
            vals[:, 1:] = (self._sigma_floors
                           + self._sigma_spans * rng.random((count, b - 1)))
            return Rows(vals, zeros)

        # per row: the support size, b support keys, b values, two extras
        u = rng.random((count, 2 * b + 3))
        size = np.minimum((u[:, 0] * b).astype(np.int64), b - 1) + 1
        # the support: the coordinates holding each row's `size` smallest keys
        keys = u[:, 1:b + 1]
        cut = np.sort(keys, axis=1)[np.arange(count), size - 1]
        support = keys <= cut[:, None]
        if np.count_nonzero(support) != size.sum():
            # a key ties some row's cut: each row's first `size` in key order
            np.put_along_axis(support, keys.argsort(axis=1),
                              np.arange(b) < size[:, None], axis=1)
        w = u[:, b + 1:2 * b + 1]
        extra, extra2 = u[:, 2 * b + 1], u[:, 2 * b + 2]

        if k in ("simplex", "sub_simplex"):
            # Dirichlet(1,...,1) weights: the gaps between 0, size - 1 sorted
            # uniforms and 1, put on the support in index order
            leading = np.arange(b) < size[:, None]
            edges = np.ones((count, b + 1))
            edges[:, 0] = 0.0
            edges[:, 1:b] = np.sort(np.where(leading[:, 1:], w[:, 1:], 1.0),
                                    axis=1)
            gaps = edges[:, 1:] - edges[:, :-1]
            mass = (np.full(count, self.mass) if k == "simplex"
                    else self.mass_cap * extra)
            vals = np.zeros((count, b))
            vals[support] = gaps[leading]
            vals *= mass[:, None]
            total = fsum_rows(vals)
            exact = total > 0.0
            # a zero total (mass 0) keeps its zeros
            vals *= np.divide(mass, total, out=np.ones(count),
                              where=exact)[:, None]
            return Rows(vals, zeros)

        # values lo + (1 - lo) * w on the support, +0.0 off it
        lo = -1.0 if k == "ball" else 0.0
        vals = w * (1.0 - lo)
        vals += lo
        vals *= support  # -0.0 where a negative value is dropped
        if k in ("ball", "positive_ball") and not self.carries_tail:
            # tail 0 members; rescale to a random radius
            vals += 0.0  # turns those -0.0 into +0.0
            n = rows_norm(Rows(vals, zeros), self.norm)
            rho = self.r * pow_each(extra, 1.0 / size)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals *= (rho / n)[:, None]
            flat = n == 0.0
            if flat.any():  # no direction to scale: a point on axis 1
                vals[flat] = 0.0
                vals[flat, 0] = self.r * extra[flat]
            return Rows(vals, zeros)
        # coordinates in [lo * hi, hi]; half the draws get a tail there too
        hi = self.cap if k == "c_interval" else self.r
        vals *= hi
        tail = zeros
        if self.carries_tail:
            tail = np.where(extra < 0.5, hi * (lo + (1.0 - lo) * extra2), 0.0)
            vals += tail[:, None] * ~support  # and a -0.0 into +0.0
        return Rows(vals, tail)

    # -- canonical points ----------------------------------------------------

    def canonical_points(self) -> tuple[SeqVec, ...]:
        k = self.kind
        if k in ("ball", "positive_ball"):
            r = self.r
            signs = (1.0, -1.0) if k == "ball" else (1.0,)
            pts = [ZERO, *(basis_vector(1, s * r) for s in signs),
                   basis_vector(2, r), basis_vector(1, r / 2)]
            if self.carries_tail:
                pts += [SeqVec((), s * r) for s in signs]
            return tuple(pts)
        if k == "simplex":
            m = self.mass
            spread_n = min(8, self.breadth)
            spread = SeqVec.from_dict({i: m / spread_n for i in range(1, spread_n + 1)})
            return (basis_vector(1, m), basis_vector(2, m),
                    SeqVec.from_dict({1: m / 2, 2: m / 2}), spread)
        if k == "sub_simplex":
            c = self.mass_cap
            return (ZERO, basis_vector(1, c), basis_vector(1, c / 2),
                    SeqVec.from_dict({1: c / 2, 2: c / 2}))
        if k == "coefficient_box":
            r = self.r
            full = SeqVec.from_dict({i: r for i in range(1, min(8, self.breadth) + 1)})
            return (ZERO, basis_vector(1, r), full, basis_vector(self.breadth, r))
        if k == "sigma_band":
            top = 1.0 - self.delta
            b = self.breadth
            geo = SeqVec.from_dict({i: top ** i for i in range(1, b + 1)})
            floor = SeqVec.from_dict(
                {1: top, **{i: self.sigma(i) for i in range(2, b + 1)}}
            )
            ceil = SeqVec.from_dict({i: top for i in range(1, b + 1)})
            return (geo, floor, ceil)
        # c_interval
        c = self.cap
        return (ZERO, SeqVec((), c), basis_vector(1, c),
                SeqVec(((1, c),), c / 2))

    def diameter_bound(self) -> float:
        """A cheap upper bound for the diameter in this domain's natural norm
        (used only to size claimed constants, so looseness is safe)."""
        k = self.kind
        if k in ("ball", "positive_ball"):
            return 2.0 * self.r
        if k == "simplex":
            return 2.0 * self.mass
        if k == "sub_simplex":
            return 2.0 * self.mass_cap
        if k == "coefficient_box":
            return self.r
        if k == "sigma_band":
            return 1.0 - self.delta
        return self.cap

    def with_breadth(self, breadth: int) -> "DomainSpec":
        return replace(self, breadth=breadth)

    def describe(self) -> str:
        k = self.kind
        if k == "ball":
            return f"ball of radius {self.r} in the {self.norm.label()} norm"
        if k == "positive_ball":
            return (f"nonnegative part of the radius-{self.r} ball "
                    f"in the {self.norm.label()} norm")
        if k == "simplex":
            return f"l1 simplex slice of mass {self.mass}"
        if k == "sub_simplex":
            return f"nonnegative vectors of l1 mass at most {self.mass_cap}"
        if k == "coefficient_box":
            return f"c0 coefficient box [0, {self.r}] per coordinate"
        if k == "sigma_band":
            return (f"band t1 = {1.0 - self.delta}, {self.q}^i <= t_i <= "
                    f"{1.0 - self.delta} up to breadth {self.breadth}")
        return f"coords and tail in [0, {self.cap}]"


def _is_finite(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# -- constructors (options: tol, breadth) ------------------------------------

def ball(r: float, norm: NormKind, **options) -> DomainSpec:
    return DomainSpec("ball", r=r, norm=norm, **options)


def positive_ball(r: float, norm: NormKind, **options) -> DomainSpec:
    return DomainSpec("positive_ball", r=r, norm=norm, **options)


def simplex(mass: float, **options) -> DomainSpec:
    return DomainSpec("simplex", mass=mass, **options)


def sub_simplex(mass_cap: float, **options) -> DomainSpec:
    return DomainSpec("sub_simplex", mass_cap=mass_cap, **options)


def coefficient_box(r: float, **options) -> DomainSpec:
    return DomainSpec("coefficient_box", r=r, **options)


def sigma_band(delta: float, q: float, **options) -> DomainSpec:
    return DomainSpec("sigma_band", delta=delta, q=q, **options)


def c_interval(cap: float, **options) -> DomainSpec:
    return DomainSpec("c_interval", cap=cap, **options)
