"""Eventually constant real sequences and the norms used on them.

A vector is a finite support (strictly increasing indices >= 1 with float
values) plus a tail scalar; coordinate i is the stored value when present and
the tail otherwise.  This models exactly the elements of c (and, with tail 0,
of c0 and the finitely supported parts of lp) that the catalog maps produce,
and it is closed under all of them.

Canonical form drops any stored value that equals the tail under exact float
comparison, never under a tolerance, so structural equality of canonical
vectors is coordinatewise equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InvalidIndexError, InvalidParameterError, NotInSpaceError

__all__ = [
    "SeqVec",
    "NormKind",
    "ZERO",
    "coordinate",
    "norm",
    "distance",
    "axpy",
    "scale",
    "shift_right",
    "tail_limit",
    "c_basis_coefficients",
    "reconstruct_from_c_basis",
    "basis_vector",
    "parse_vec",
    "format_vec",
]


@dataclass(frozen=True)
class SeqVec:
    """One eventually constant sequence.

    The raw constructor trusts its input to be canonical (sorted indices,
    no value equal to the tail); use :meth:`from_dict` or :meth:`from_pairs`
    for anything computed.
    """

    support: tuple[tuple[int, float], ...] = ()
    tail: float = 0.0

    @staticmethod
    def from_dict(entries: Mapping[int, float], tail: float = 0.0) -> "SeqVec":
        tail = tail + 0.0  # normalizes -0.0
        kept = []
        for i in sorted(entries):
            if i < 1:
                raise InvalidIndexError(f"coordinate index {i} is below 1")
            v = entries[i] + 0.0
            if v != tail:
                kept.append((i, v))
        return SeqVec(tuple(kept), tail)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]], tail: float = 0.0) -> "SeqVec":
        return SeqVec.from_dict(dict(pairs), tail)

    @staticmethod
    def from_sorted(pairs: Iterable[tuple[int, float]], tail: float = 0.0) -> "SeqVec":
        """Like :meth:`from_pairs` for support already in strictly ascending
        index order; skips the sort (the hot path for shifts and scalings)."""
        if tail == 0.0:
            # nonzero survivors need no -0.0 normalization
            return SeqVec(tuple([p for p in pairs if p[1] != 0.0]), 0.0)
        tail = tail + 0.0
        return SeqVec(
            tuple([(i, w) for i, v in pairs if (w := v + 0.0) != tail]), tail
        )

    @cached_property
    def _dict(self) -> dict[int, float]:
        return dict(self.support)

    def is_canonical(self) -> bool:
        last = 0
        for i, v in self.support:
            if i <= last or v == self.tail:
                return False
            last = i
        return True

    def __str__(self) -> str:
        return format_vec(self)


ZERO = SeqVec()


@dataclass(frozen=True)
class NormKind:
    """Which norm to evaluate: sup, lp (p >= 1, tail must be 0), or the
    max(positive part, negative part) renorming of l1."""

    variant: str  # "sup" | "lp" | "max_pos_neg_l1"
    p: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("sup", "lp", "max_pos_neg_l1"):
            raise InvalidParameterError("variant", "must be sup, lp or max_pos_neg_l1")
        if self.variant == "lp":
            if self.p is None or not self.p >= 1.0:
                raise InvalidParameterError("p", "lp norms require p >= 1")
        elif self.p is not None:
            raise InvalidParameterError("p", f"{self.variant} norm takes no exponent")

    @staticmethod
    def sup() -> "NormKind":
        return NormKind("sup")

    @staticmethod
    def lp(p: float) -> "NormKind":
        return NormKind("lp", float(p))

    @staticmethod
    def max_pos_neg_l1() -> "NormKind":
        return NormKind("max_pos_neg_l1")

    def label(self) -> str:
        if self.variant == "lp":
            p = self.p
            return f"l{int(p)}" if p == int(p) else f"l{p}"
        return {"sup": "sup", "max_pos_neg_l1": "max(pos,neg) l1"}[self.variant]


def coordinate(x: SeqVec, i: int) -> float:
    """Coordinate i (1-based); indices beyond the support read the tail."""
    if i < 1:
        raise InvalidIndexError(f"coordinate index {i} is below 1")
    return x._dict.get(i, x.tail)


def tail_limit(x: SeqVec) -> float:
    """The eventual value, i.e. lim_n x_n for the sequence x represents."""
    return x.tail


def _require_zero_tail(x: SeqVec, kind: NormKind) -> None:
    if x.tail != 0.0:
        raise NotInSpaceError(
            f"{kind.label()} norm needs tail 0, got tail {x.tail!r}"
        )


def norm(x: SeqVec, kind: NormKind) -> float:
    if kind.variant == "sup":
        m = abs(x.tail)
        for _, v in x.support:
            a = abs(v)
            if a > m:
                m = a
        return m
    _require_zero_tail(x, kind)
    try:
        if kind.variant == "lp":
            p = kind.p
            if p == 1.0:
                return math.fsum(abs(v) for _, v in x.support)
            if p == 2.0:
                return math.sqrt(math.fsum(v * v for _, v in x.support))
            return math.fsum(abs(v) ** p for _, v in x.support) ** (1.0 / p)
        # max_pos_neg_l1
        pos = math.fsum(v for _, v in x.support if v > 0.0)
        neg = math.fsum(-v for _, v in x.support if v < 0.0)
        return max(pos, neg)
    except OverflowError:  # a sum of nonnegative terms passed the float range
        return math.inf


def _diff_items(x: SeqVec, y: SeqVec) -> tuple[list[float], float]:
    """Coordinatewise differences of x and y on the union support, plus the
    tail difference.  Avoids building an intermediate SeqVec on hot paths."""
    dx, dy = x._dict, y._dict
    xt, yt = x.tail, y.tail
    out = []
    for i, v in x.support:
        out.append(v - dy.get(i, yt))
    for i, w in y.support:
        if i not in dx:
            out.append(xt - w)
    return out, xt - yt


def distance(x: SeqVec, y: SeqVec, kind: NormKind) -> float:
    """norm(x - y, kind) without materializing the difference vector."""
    diffs, dt = _diff_items(x, y)
    if kind.variant == "sup":
        m = abs(dt)
        for v in diffs:
            a = abs(v)
            if a > m:
                m = a
        return m
    if dt != 0.0:
        raise NotInSpaceError(
            f"{kind.label()} distance needs equal tails, got difference {dt!r}"
        )
    try:
        if kind.variant == "lp":
            p = kind.p
            if p == 1.0:
                return math.fsum(abs(v) for v in diffs)
            if p == 2.0:
                return math.sqrt(math.fsum(v * v for v in diffs))
            return math.fsum(abs(v) ** p for v in diffs) ** (1.0 / p)
        pos = math.fsum(v for v in diffs if v > 0.0)
        neg = math.fsum(-v for v in diffs if v < 0.0)
        return max(pos, neg)
    except OverflowError:  # as in norm: the true distance exceeds any float
        return math.inf


def axpy(a: float, x: SeqVec, b: float, y: SeqVec) -> SeqVec:
    """a*x + b*y, canonicalized."""
    dy = y._dict
    out: dict[int, float] = {}
    for i, v in x.support:
        out[i] = a * v + b * dy.get(i, y.tail)
    xt = x.tail
    for i, w in y.support:
        if i not in out:
            out[i] = a * xt + b * w
    return SeqVec.from_dict(out, a * x.tail + b * y.tail)


def scale(a: float, x: SeqVec) -> SeqVec:
    t = a * x.tail
    if t == 0.0:
        return SeqVec(
            tuple([(i, w) for i, v in x.support if (w := a * v) != 0.0]), 0.0
        )
    return SeqVec.from_sorted([(i, a * v) for i, v in x.support], t)


def shift_right(x: SeqVec) -> SeqVec:
    """The forward shift S(t1, t2, ...) = (0, t1, t2, ...); the tail is kept
    (the shifted sequence has the same eventual value)."""
    first = [(1, 0.0)] if x.tail != 0.0 else []
    return SeqVec.from_sorted(
        first + [(i + 1, v) for i, v in x.support], x.tail
    )


def basis_vector(i: int, value: float = 1.0) -> SeqVec:
    return SeqVec.from_dict({i: value}, 0.0)


def c_basis_coefficients(x: SeqVec) -> tuple[float, SeqVec]:
    """Schauder coefficients of x in c: the coefficient of (1,1,1,...) is the
    tail, and the remaining coefficients (one per unit vector) form a tail-0
    vector x - tail*(1,1,...)."""
    t = x.tail
    return t, SeqVec.from_dict({i: v - t for i, v in x.support}, 0.0)


def reconstruct_from_c_basis(ones_coeff: float, coeffs: SeqVec) -> SeqVec:
    """Inverse of :func:`c_basis_coefficients`: ones_coeff*(1,1,...) + coeffs."""
    return SeqVec.from_dict(
        {i: v + ones_coeff for i, v in coeffs.support}, ones_coeff + coeffs.tail
    )


# ---------------------------------------------------------------------------
# The external vector literal:  {i1:v1, i2:v2; tail:t}

def format_vec(x: SeqVec) -> str:
    body = ", ".join(f"{i}:{v!r}" for i, v in x.support)
    if x.tail != 0.0:
        return "{" + body + f"; tail:{x.tail!r}" + "}"
    return "{" + body + "}"


def parse_vec(text: str) -> SeqVec:
    """Parse the literal form.  Indices must be ascending integers >= 1; the
    tail clause is optional and follows a semicolon."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"vector literal must be brace-delimited, got {text!r}")
    body = s[1:-1]
    tail = 0.0
    if ";" in body:
        body, _, tail_part = body.partition(";")
        tail_part = tail_part.strip()
        if not tail_part.startswith("tail:"):
            raise ValueError(f"expected 'tail:<value>' after ';' in {text!r}")
        tail = float(tail_part[len("tail:"):])
    entries: dict[int, float] = {}
    last = 0
    body = body.strip()
    if body:
        for piece in body.split(","):
            idx_txt, sep, val_txt = piece.partition(":")
            if not sep:
                raise ValueError(f"malformed entry {piece!r} in {text!r}")
            i = int(idx_txt.strip())
            if i < 1:
                raise InvalidIndexError(f"coordinate index {i} is below 1")
            if i <= last:
                raise ValueError(f"indices must be ascending in {text!r}")
            last = i
            entries[i] = float(val_txt.strip())
    return SeqVec.from_dict(entries, tail)
