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
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import InvalidIndexError, InvalidParameterError, NotInSpaceError

__all__ = [
    "SeqVec",
    "Rows",
    "NormKind",
    "NORM_VARIANTS",
    "ZERO",
    "coordinate",
    "norm",
    "distance",
    "rows_norm",
    "rows_distance",
    "row_norm",
    "row_distance",
    "pow_each",
    "fsum_rows",
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


class Rows(NamedTuple):
    """A block of sequences as dense rows: column j of `vals` holds
    coordinate j+1 of each row, and every coordinate beyond the width
    equals that row's entry of `tail`."""

    vals: np.ndarray  # (rows, width)
    tail: np.ndarray  # (rows,)

    @staticmethod
    def of(x: SeqVec) -> "Rows":
        """x as a one-row block, as wide as its last stored coordinate."""
        vals = np.full((1, x.support[-1][0] if x.support else 0), x.tail)
        if x.support:
            index, values = zip(*x.support)
            vals[0, np.array(index) - 1] = values
        return Rows(vals, np.array([x.tail]))

    @property
    def width(self) -> int:
        return self.vals.shape[1]

    def column(self, i: int) -> np.ndarray:
        """Coordinate i (1-based) of every row."""
        return self.vals[:, i - 1] if i <= self.width else self.tail

    def take(self, index) -> "Rows":
        return Rows(self.vals[index], self.tail[index])

    def widen(self, width: int) -> "Rows":
        """The same sequences stored at least `width` columns wide."""
        extra = width - self.width
        if extra <= 0:
            return self
        fill = np.broadcast_to(self.tail[:, None], (len(self.tail), extra))
        return Rows(np.concatenate([self.vals, fill], axis=1), self.tail)

    def trimmed(self) -> "Rows":
        """The same sequences without the trailing columns in which every
        row stores its own tail."""
        width = self.width
        while width and (self.vals[:, width - 1] == self.tail).all():
            width -= 1
        return self if width == self.width else Rows(self.vals[:, :width],
                                                     self.tail)

    def vec(self, i: int) -> SeqVec:
        """Row i as a canonical SeqVec."""
        return SeqVec.from_sorted(enumerate(self.vals[i].tolist(), 1),
                                  float(self.tail[i]))


def _sup(values: list[float], tail: float, p: float | None) -> float:
    m = abs(tail)
    for v in values:
        a = abs(v)
        if not a <= m:
            if a != a:
                return math.nan
            m = a
    return m


def _lp(values: list[float], tail: float, p: float) -> float:
    if p == 1.0:
        return math.fsum(map(abs, values))
    if p == 2.0:
        return math.sqrt(math.fsum(map(operator.mul, values, values)))
    return math.fsum([abs(v) ** p for v in values]) ** (1.0 / p)


def _max_pos_neg_l1(values: list[float], tail: float, p: float | None) -> float:
    pos = math.fsum([v for v in values if not v <= 0.0])  # NaN joins pos
    neg = math.fsum([-v for v in values if v < 0.0])
    return max(pos, neg)


def pow_each(base: np.ndarray, exponent) -> np.ndarray:
    """base ** exponent element by element, rounded as Python's `**` rounds
    it (inf past the float range).  np.float_power calls the C library's
    pow once per element, as `**` does; np.power runs vectorised code that
    rounds some results differently from one CPU to another, and no report
    may depend on the CPU."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.float_power(base, exponent)


def fsum_rows(vals: np.ndarray) -> np.ndarray:
    """math.fsum of each row, fed only the nonzero entries (zeros change
    neither the sum nor what fsum raises)."""
    nonzero = vals != 0.0
    flat = vals[nonzero].tolist()
    ends = np.cumsum(nonzero.sum(axis=1)).tolist()
    return np.array([math.fsum(flat[start:end])
                     for start, end in zip([0] + ends, ends)], dtype=float)


# The block evaluators: one entry per row, NaN propagating.  Sums run left
# to right along each row, so columns of zeros in front never change one,
# and every operation is one that IEEE arithmetic rounds the same way on
# every CPU.

def _row_sums(a: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    return np.cumsum(a, axis=1)[:, -1]


def _sup_rows(vals: np.ndarray, tail: np.ndarray, p: float | None) -> np.ndarray:
    return np.maximum(np.abs(tail), np.abs(vals).max(axis=1, initial=0.0))


def _lp_rows(vals: np.ndarray, tail: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return _row_sums(np.abs(vals))
    if p == 2.0:
        return np.sqrt(_row_sums(vals * vals))
    return pow_each(_row_sums(pow_each(np.abs(vals), p)), 1.0 / p)


def _max_pos_neg_l1_rows(vals: np.ndarray, tail: np.ndarray,
                         p: float | None) -> np.ndarray:
    return np.maximum(_row_sums(np.maximum(vals, 0.0)),
                      _row_sums(np.maximum(-vals, 0.0)))


# How NormKind, the config reader and the norm kernels read each variant.
@dataclass(frozen=True)
class NormVariant:
    takes_p: bool     # needs an exponent p >= 1; no other variant takes one
    allows_tail: bool  # a nonzero tail has a finite norm
    label: str        # a variant that takes p appends it
    # (support values, tail, p) -> norm; sees tail 0 unless allows_tail
    evaluate: Callable[[list[float], float, float | None], float]
    # the same on a block: (rows x width values, tails, p) -> norms
    evaluate_rows: Callable[[np.ndarray, np.ndarray, float | None], np.ndarray]
    # evaluate_rows equals evaluate bit for bit on finite rows; a variant
    # that sums can differ from fsum in the last bits
    rows_exact: bool = False


NORM_VARIANTS: dict[str, NormVariant] = {
    "sup": NormVariant(False, True, "sup", _sup, _sup_rows, rows_exact=True),
    "lp": NormVariant(True, False, "l", _lp, _lp_rows),
    "max_pos_neg_l1": NormVariant(False, False, "max(pos,neg) l1",
                                  _max_pos_neg_l1, _max_pos_neg_l1_rows),
}


@dataclass(frozen=True)
class NormKind:
    """Which norm to evaluate: a NORM_VARIANTS key, and p if it takes one."""

    variant: str
    p: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.variant, str) or self.variant not in NORM_VARIANTS:
            raise InvalidParameterError(
                "variant", f"must be one of {', '.join(NORM_VARIANTS)}")
        if NORM_VARIANTS[self.variant].takes_p:
            if self.p is None or not self.p >= 1.0:
                raise InvalidParameterError("p", f"{self.variant} norms require p >= 1")
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

    @property
    def allows_tail(self) -> bool:
        return NORM_VARIANTS[self.variant].allows_tail

    def label(self) -> str:
        spec, p = NORM_VARIANTS[self.variant], self.p
        if not spec.takes_p:
            return spec.label
        return f"{spec.label}{int(p) if p == int(p) else p}"


def coordinate(x: SeqVec, i: int) -> float:
    """Coordinate i (1-based); indices beyond the support read the tail."""
    if i < 1:
        raise InvalidIndexError(f"coordinate index {i} is below 1")
    return x._dict.get(i, x.tail)


def tail_limit(x: SeqVec) -> float:
    """The eventual value, i.e. lim_n x_n for the sequence x represents."""
    return x.tail


def _measure(values: list[float], tail: float, kind: NormKind,
             what: str) -> float:
    """The kind-norm of the sequence with these support values and tail, or
    NaN if one is NaN; `what` words the error for a tail it does not allow."""
    if tail != tail:
        return math.nan
    spec = NORM_VARIANTS[kind.variant]
    if tail != 0.0 and not spec.allows_tail:
        raise NotInSpaceError(f"{kind.label()} {what} {tail!r}")
    try:
        result = spec.evaluate(values, tail, kind.p)
    except OverflowError:  # a sum of nonnegative terms passed the float range
        result = math.inf
    if result != math.inf:
        return result
    if any(map(math.isnan, values)):
        return math.nan  # the sum overflowed before it reached the NaN
    if math.isinf(tail) or not all(map(math.isfinite, values)):
        return math.inf
    # Finite values: every norm scales exactly by a power of two, so
    # evaluate below the largest one and scale back.
    e = math.frexp(max(map(abs, values)))[1]
    small = spec.evaluate([math.ldexp(v, -e) for v in values],
                          math.ldexp(tail, -e), kind.p)
    try:
        return math.ldexp(small, e)
    except OverflowError:  # the norm itself passes the float range
        return math.inf


def norm(x: SeqVec, kind: NormKind) -> float:
    return _measure([v for _, v in x.support], x.tail, kind,
                    "norm needs tail 0, got tail")


def distance(x: SeqVec, y: SeqVec, kind: NormKind) -> float:
    """norm(x - y, kind) without materializing the difference vector: one
    merge of the two sorted supports (the norm kernel does not depend on the
    order of the differences)."""
    xt, yt = x.tail, y.tail
    ys = y.support
    m = len(ys)
    j = 0
    diffs = []
    for i, v in x.support:
        while j < m and ys[j][0] < i:
            diffs.append(xt - ys[j][1])
            j += 1
        if j < m and ys[j][0] == i:
            diffs.append(v - ys[j][1])
            j += 1
        else:
            diffs.append(v - yt)
    diffs += [xt - w for _, w in ys[j:]]
    return _measure(diffs, xt - yt, kind,
                    "distance needs equal tails, got difference")


def _measure_rows(vals: np.ndarray, tail: np.ndarray, kind: NormKind,
                  what: str) -> np.ndarray:
    """_measure of every row of a block.  A row whose block result is not
    finite, or whose tail the norm does not allow, goes through _measure
    itself, so NaN, overflow and the tail error keep one definition."""
    spec = NORM_VARIANTS[kind.variant]
    with np.errstate(over="ignore", invalid="ignore"):
        result = spec.evaluate_rows(vals, tail, kind.p)
    redo = ~np.isfinite(result)
    if not spec.allows_tail:
        redo |= tail != 0.0
    for i in np.flatnonzero(redo):
        result[i] = _measure(vals[i].tolist(), float(tail[i]), kind, what)
    return result


def rows_norm(x: Rows, kind: NormKind) -> np.ndarray:
    """norm of every row of a block."""
    return _measure_rows(x.vals, x.tail, kind, "norm needs tail 0, got tail")


def rows_distance(x: Rows, y: Rows, kind: NormKind) -> np.ndarray:
    """distance between the rows of two blocks of the same length, row by
    row."""
    width = max(x.width, y.width)
    x, y = x.widen(width), y.widen(width)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs, tails = x.vals - y.vals, x.tail - y.tail
    return _measure_rows(diffs, tails, kind,
                         "distance needs equal tails, got difference")


def row_norm(x: Rows, kind: NormKind) -> float:
    """norm of a one-row block, bit for bit the norm of its SeqVec: the
    scalar kernel fed the row's nonzero entries (zeros, and entries equal to
    the tail, change no norm)."""
    v = x.vals[0]
    return _measure(v[v != 0.0].tolist(), float(x.tail[0]), kind,
                    "norm needs tail 0, got tail")


def row_distance(x: Rows, y: Rows, kind: NormKind) -> float:
    """distance between two one-row blocks, bit for bit the distance between
    their SeqVecs."""
    width = max(x.width, y.width)
    x, y = x.widen(width), y.widen(width)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = x.vals[0] - y.vals[0]
    return _measure(diffs[diffs != 0.0].tolist(),
                    float(x.tail[0]) - float(y.tail[0]), kind,
                    "distance needs equal tails, got difference")


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
