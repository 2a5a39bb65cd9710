"""Retractions onto balls, cones and spheres, with their Lipschitz budgets.

Claimed constants (measured empirically by the verifier, proved elsewhere):
radial 2 (1 in Hilbert space), abs 1, positive_part 1, clamp 1 in the sup
norm, the excess-removal map Q is 3, and the two-branch retraction of the l1
ball onto its sphere is 8.  The catalog's RETRACTION_CATALOG is the table of
the addressable retractions and the constants the verifier checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError
from .seqvec import SeqVec, NormKind, Rows, norm, rows_norm, scale, shifted

__all__ = [
    "radial_retract",
    "radial_rows",
    "abs_retract",
    "positive_part",
    "clamp_retract",
    "clamp_rows",
    "ExcessSplit",
    "iota_mu_q",
    "excess_map",
    "l1_sphere_retract",
    "l1_sphere_rows",
]

L1 = NormKind.lp(1.0)
CLAMP_NEG_TOL = 1e-12  # clamp_retract's slack below 0


def radial_retract(x: SeqVec, r: float, kind: NormKind) -> SeqVec:
    """Identity inside the radius-r ball, x * r/||x|| outside."""
    n = norm(x, kind)
    if n <= r:
        return x
    return scale(r / n, x)


def radial_rows(x: Rows, r: float, kind: NormKind) -> Rows:
    """radial_retract of every row of a block."""
    n = rows_norm(x, kind)
    outside = ~(n <= r)
    if not np.count_nonzero(outside):
        return x
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(outside, r / n, 1.0)
        return Rows(x.vals * a[:, None], x.tail * a)


def abs_retract(x: SeqVec) -> SeqVec:
    """Coordinatewise absolute value (retraction onto the nonnegative cone
    that preserves every norm used here)."""
    return SeqVec.from_sorted([(i, abs(v)) for i, v in x.support], abs(x.tail))


abs_retract.rows = lambda x: Rows(np.abs(x.vals), np.abs(x.tail))


def positive_part(x: SeqVec) -> SeqVec:
    """Coordinatewise max(t, 0), the metric projection onto the cone."""
    return SeqVec.from_sorted(
        [(i, v if v > 0.0 else 0.0) for i, v in x.support],
        x.tail if x.tail > 0.0 else 0.0,
    )


positive_part.rows = lambda x: Rows(np.where(x.vals > 0.0, x.vals, 0.0),
                                    np.where(x.tail > 0.0, x.tail, 0.0))


def clamp_retract(x: SeqVec, r: float) -> SeqVec:
    """Coordinatewise min(t, r) on nonnegative vectors."""
    if x.tail < -CLAMP_NEG_TOL or any(v < -CLAMP_NEG_TOL for _, v in x.support):
        raise DomainViolationError("clamp_retract needs nonnegative coordinates")
    r = float(r)  # a clamped coordinate stores r: an int r would print as one
    return SeqVec.from_sorted(
        [(i, v if v < r else r) for i, v in x.support],
        x.tail if x.tail < r else r,
    )


def clamp_rows(x: Rows, r: float) -> Rows:
    """clamp_retract of every row of a block."""
    if (np.count_nonzero(x.tail < -CLAMP_NEG_TOL)
            or np.count_nonzero(x.vals < -CLAMP_NEG_TOL)):
        raise DomainViolationError("clamp_retract needs nonnegative coordinates")
    return Rows(np.where(x.vals < r, x.vals, r), np.where(x.tail < r, x.tail, r))


@dataclass(frozen=True)
class ExcessSplit:
    """The (iota, mu, Q) triple behind the l1 sphere retraction: Q removes
    exactly the l1 excess r - ||x||_1 from the deepest coordinates, keeping a
    mu fraction of coordinate iota and everything beyond it."""

    iota: int
    mu: float
    q: SeqVec


def iota_mu_q(x: SeqVec, r: float) -> ExcessSplit:
    """Split x in the annulus r/2 <= ||x||_1 < r.  iota is the smallest j with
    sum_{k>j} |t_k| < r - ||x||_1, mu in (0, 1] keeps part of coordinate iota,
    and Q(x) = mu*t_iota*e_iota + sum_{k>iota} t_k e_k has ||Q(x)||_1 equal to
    the excess r - ||x||_1 exactly."""
    nx = norm(x, L1)
    if nx < r / 2.0 or nx >= r:
        raise DomainViolationError(
            f"iota_mu_q is defined for r/2 <= ||x||_1 < r, got ||x||_1 = {nx!r}"
        )
    gap = r - nx
    # Suffix sums over the support; between support indices the suffix sum is
    # constant, so the minimal j is always a support index (the last drop
    # reaches 0 < gap).
    supp = x.support
    suffix = 0.0
    suffixes = [0.0] * len(supp)
    for k in range(len(supp) - 1, -1, -1):
        suffixes[k] = suffix
        suffix += abs(supp[k][1])
    for k, (i, v) in enumerate(supp):
        if suffixes[k] < gap:
            mu = (gap - suffixes[k]) / abs(v) if v != 0.0 else 1.0
            mu = min(max(mu, 0.0), 1.0)
            q = {i: mu * v}
            q.update({j: w for j, w in supp[k + 1:]})
            return ExcessSplit(i, mu, SeqVec.from_dict(q, 0.0))
    # Unreachable for canonical tail-0 vectors with ||x||_1 >= r/2 > gap.
    raise DomainViolationError("no excess split exists for this vector")


def excess_map(x: SeqVec, r: float) -> SeqVec:
    """Q alone (claimed 3-Lipschitz on the annulus)."""
    return iota_mu_q(x, r).q


def _sphere_low(x: SeqVec, r: float, nx: float) -> SeqVec:
    # (r - 2||x||_1) e_1 + 2 S(x); the shift frees coordinate 1.
    return shifted([r - 2.0 * nx], x, 0.0, lambda v: 2.0 * v)


def _sphere_high(x: SeqVec, r: float) -> SeqVec:
    # (x - Q(x)) + 2 S(Q(x)); the two parts have disjoint support by the
    # choice of iota, so the result keeps l1 mass ||x||_1 + ||Q(x)||_1 = r.
    split = iota_mu_q(x, r)
    qd = split.q._dict
    out: dict[int, float] = {}
    for i, v in x.support:
        kept = v - qd.get(i, 0.0)
        if kept != 0.0:
            out[i] = kept
    for i, v in split.q.support:
        out[i + 1] = out.get(i + 1, 0.0) + 2.0 * v
    return SeqVec.from_dict(out, 0.0)


def l1_sphere_retract(x: SeqVec, r: float) -> SeqVec:
    """Retraction of the l1 ball of radius r onto its sphere.

    Below mass r/2 the vector is shifted and doubled and the slack parked on
    the first coordinate; above, the excess split moves mass without leaving
    the sphere.  The two formulas agree on ||x||_1 = r/2 (ties take the first
    branch) and the map fixes the sphere."""
    nx = norm(x, L1)
    if nx > r * (1.0 + 1e-9):
        raise DomainViolationError(
            f"l1_sphere_retract needs ||x||_1 <= r, got {nx!r} > {r!r}"
        )
    if nx <= r / 2.0:
        return _sphere_low(x, r, nx)
    if nx >= r:
        return x  # boundary rule: Q = 0 and the sphere is fixed
    return _sphere_high(x, r)


def l1_sphere_rows(x: Rows, r: float) -> Rows:
    """l1_sphere_retract of every row of a block, bit for bit: the mass is
    the row's l1 norm, and the suffix sums run right to left one column at a
    time as iota_mu_q's loop does (a zero column adds exactly 0).  A block
    holding a row the scalar form rejects (a tail, a NaN, mass past r)
    raises a DomainViolationError."""
    vals = x.vals
    a = np.abs(vals)
    nx = rows_norm(Rows(vals, np.zeros(len(vals))), L1)
    if (np.count_nonzero(x.tail)
            or np.count_nonzero(~(nx <= r * (1.0 + 1e-9)))):
        raise DomainViolationError(
            f"l1_sphere_retract needs ||x||_1 <= r = {r!r} in every row")
    # every row on the sphere, which the map fixes; a block of no rows is
    # widened as any other, for verify's probe of the image width
    if len(nx) and not np.count_nonzero(nx < r):
        return x
    count, width = vals.shape
    out = np.zeros((count, width + 1))
    low = nx <= r / 2.0
    # (r - 2||x||_1) e_1 + 2 S(x)
    out[low, 0] = r - 2.0 * nx[low]
    out[low, 1:] = 2.0 * vals[low]
    sphere = nx >= r
    out[sphere, :width] = vals[sphere]
    high = np.flatnonzero(~low & ~sphere)
    if len(high):
        v, a = vals[high], a[high]
        gap = r - nx[high]
        # the l1 mass beyond each column, and iota: the first stored
        # column with less than the gap beyond it
        beyond = np.zeros_like(a)
        beyond[:, :-1] = np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]
        at = np.argmax((v != 0.0) & (beyond < gap[:, None]), axis=1)
        rows = np.arange(len(high))
        mu = np.minimum((gap - beyond[rows, at]) / a[rows, at], 1.0)
        # Q(x) = mu t_iota e_iota + sum_{k > iota} t_k e_k; then
        # (x - Q(x)) + 2 S(Q(x))
        q = np.where(np.arange(width) > at[:, None], v, 0.0)
        q[rows, at] = mu * v[rows, at]
        out[high, :width] = v - q
        out[high, 1:] += 2.0 * q
    return Rows(out, np.zeros(count))
