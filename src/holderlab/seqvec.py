"""Eventually constant real sequences and the norms used on them.

A vector is a finite support (strictly increasing indices >= 1 with float
values) plus a tail scalar; coordinate i is the stored value when present and
the tail otherwise.  This models exactly the elements of c (and, with tail 0,
of c0 and the finitely supported parts of lp) that the catalog maps produce,
and it is closed under all of them.

Canonical form drops any stored value that equals the tail under exact float
comparison, never under a tolerance, and stores +0.0 in place of -0.0, so
structural equality of canonical vectors is coordinatewise equality.
:meth:`SeqVec.from_sorted` is the one function that makes it; every other
constructor of a computed vector hands its pairs there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
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
    "pow_each",
    "fsum_rows",
    "exact_sum",
    "axpy",
    "scale",
    "shifted",
    "shift_rows",
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
    no value equal to the tail); use :meth:`from_sorted` for a computed
    support in ascending index order and :meth:`from_dict` otherwise.
    """

    support: tuple[tuple[int, float], ...] = ()
    tail: float = 0.0

    @staticmethod
    def from_dict(entries: Mapping[int, float], tail: float = 0.0) -> "SeqVec":
        index = sorted(entries)
        if index and index[0] < 1:
            raise InvalidIndexError(f"coordinate index {index[0]} is below 1")
        # + 0.0 makes the floats of Python ints, which from_sorted keeps
        return SeqVec.from_sorted([(i, entries[i] + 0.0) for i in index], tail)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]], tail: float = 0.0) -> "SeqVec":
        return SeqVec.from_dict(dict(pairs), tail)

    @staticmethod
    def from_sorted(pairs: Iterable[tuple[int, float]], tail: float = 0.0) -> "SeqVec":
        """The canonical vector of float pairs in strictly ascending index
        order (indices >= 1) and a tail: every value equal to the tail under
        exact comparison is dropped, and -0.0 is stored as +0.0, in the
        tail and in every kept value.  On tail 0 the values are kept as
        given, since a value that survives is nonzero."""
        if tail == 0.0:
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
    def of(*points: SeqVec) -> "Rows":
        """The points as one block, as wide as the furthest stored index: a
        row holds its point's stored values at their indices and its tail
        elsewhere, filled into one flat list that becomes one array."""
        width = max([x.support[-1][0] for x in points if x.support],
                    default=0)
        flat = []
        for x in points:
            row = [x.tail] * width
            for i, v in x.support:
                row[i - 1] = v
            flat += row
        return Rows(np.array(flat, dtype=float).reshape(len(points), width),
                    np.array([x.tail for x in points], dtype=float))

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
        if width <= self.width:
            return self
        vals = np.empty((len(self.tail), width))
        vals[:, :self.width] = self.vals
        vals[:, self.width:] = self.tail[:, None]
        return Rows(vals, self.tail)

    def trimmed(self) -> "Rows":
        """The same sequences without the trailing columns in which every
        row stores its own tail."""
        vals, tail, width = self.vals, self.tail, self.width
        while width and not np.count_nonzero(vals[:, width - 1] != tail):
            width -= 1
        return self if width == self.width else Rows(vals[:, :width], tail)

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


# Every norm that sums adds its terms one at a time, left to right in index
# order, here and in the block evaluators below, so a norm is the same float
# in scalar and in block code.  (Not math.fsum, and not builtin sum, which
# compensates from Python 3.12 on.)

def _lp(values: list[float], tail: float, p: float) -> float:
    s = 0.0
    if p == 1.0:
        for v in values:
            s += abs(v)
        return s
    if p == 2.0:
        for v in values:
            s += v * v
        return math.sqrt(s)
    for v in values:
        s += abs(v) ** p
    return s ** (1.0 / p)


def _max_pos_neg_l1(values: list[float], tail: float, p: float | None) -> float:
    pos = neg = 0.0
    for v in values:
        if v < 0.0:
            neg -= v
        else:
            pos += v  # NaN joins pos
    return max(pos, neg)


def pow_each(base: np.ndarray, exponent) -> np.ndarray:
    """base ** exponent element by element, rounded as Python's `**` rounds
    it (inf past the float range).  np.float_power calls the C library's
    pow once per element, as `**` does; np.power runs vectorised code that
    rounds some results differently from one CPU to another, and no report
    may depend on the CPU."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.float_power(base, exponent)


# Blocks of fewer rows keep the row code of fsum_rows and _row_sums.  On 2
# Xeon vCPUs their block code broke even at 48-64 rows of width 64 (16 at
# 257, over 64 at 8) and about 16 rows; orbit chunks stay on the row code.
FEW_ROWS = 64


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = x + y rounded and e with x + y == s + e exactly (Knuth)."""
    s = x + y
    b = s - x
    e = s - b
    np.subtract(x, e, out=e)
    np.subtract(y, b, out=b)
    e += b
    return s, e


def fsum_rows(vals: np.ndarray) -> np.ndarray:
    """exact_sum of each row, so math.fsum's bit for bit wherever fsum
    returns.  From FEW_ROWS rows on, a TwoSum tree adds each row with its
    errors summed aside (Ogita, Rump & Oishi's Sum2), kept where the exact
    total is provably inside its rounding interval; other rows (not finite,
    near overflow, zero, near a tie) go to exact_sum, fed their nonzeros
    (zeros change no result)."""
    rows, n = vals.shape
    r, redo = np.zeros(rows), slice(None)
    if rows >= FEW_ROWS and n > 1:
        x = np.array(vals.T, order="C")
        levels = (n - 1).bit_length()
        half = 1 << (levels - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            big = np.maximum.reduce(np.abs(x), axis=0)
            # level 1 pairs the columns past the largest power of two below
            # n with as many leading ones; the rest go up unpaired
            a, err = _two_sum(x[:n - half], x[half:])
            if n < 2 * half:
                a = np.concatenate([a, x[n - half:half]])
                err = np.concatenate([err, np.zeros((2 * half - n, rows))])
            while half > 1:
                half //= 2
                a, e = _two_sum(a[:half], a[half:])
                err = e + err[:half] + err[half:]
            r, t = _two_sum(a[0], err[0])
            # each error term meets at most 2 levels roundings on the side
            # and a level's terms add up to at most u sum|x| (u = 2^-53):
            # the side sum is off by under 2 levels^2 u^2 n max|x|, doubled
            bound = (levels * levels * 2.0 ** -104) * n * big + 5e-324
            half_gap = 0.5 * np.minimum(np.nextafter(r, np.inf) - r,
                                        r - np.nextafter(r, -np.inf))
            ok = (n * big <= 2.0 ** 1021) & (np.abs(t) + bound < half_gap)
        redo = np.flatnonzero(~ok)
    nonzero = (part := vals[redo]) != 0.0
    flat = part[nonzero].tolist()
    ends = np.cumsum(nonzero.sum(axis=1)).tolist()
    r[redo] = [exact_sum(flat[start:end])
               for start, end in zip([0] + ends, ends)]
    return r


def exact_sum(values: list[float]) -> float:
    """The sum of the values rounded once, and never an error: math.fsum's
    value wherever fsum returns one.  Where fsum raises, the sum is NaN if
    a term is NaN or infinities of both signs meet, the infinity if every
    infinite term has its sign, and otherwise the exact sum of the finite
    terms rounded, +-inf past the float range (fsum raises when a partial
    sum overflows, even where the total would not)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        pass
    if any(v != v for v in values):
        return math.nan
    infinite = {v for v in values if math.isinf(v)}
    if infinite:
        return infinite.pop() if len(infinite) == 1 else math.nan
    # every finite float is a whole multiple of 2^-1074, so the sum is exact
    # in integers, and int / int rounds once
    unit = 1 << 1074
    total = sum(n * (unit // d)
                for n, d in map(float.as_integer_ratio, values))
    try:
        return total / unit
    except OverflowError:
        return math.inf if total > 0 else -math.inf


# The block evaluators: one entry per row, NaN propagating.  Sums run left
# to right along each row, as the scalar evaluators do, so columns of zeros
# never change one, and every operation is one that IEEE arithmetic rounds
# the same way on every CPU.

def _row_sums(a: np.ndarray) -> np.ndarray:
    if len(a) >= FEW_ROWS:
        # reducing a C-contiguous copy's outer axis adds a's columns in order
        return np.add.reduce(np.ascontiguousarray(a.T), axis=0)
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    return np.add.accumulate(a, axis=1)[:, -1]


def _sup_rows(vals: np.ndarray, tail: np.ndarray, p: float | None) -> np.ndarray:
    return np.maximum(np.abs(tail),
                      np.maximum.reduce(np.abs(vals), axis=1, initial=0.0))


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
    # the same on a block, bit for bit: (rows x width values, tails, p) ->
    # norms
    evaluate_rows: Callable[[np.ndarray, np.ndarray, float | None], np.ndarray]


NORM_VARIANTS: dict[str, NormVariant] = {
    "sup": NormVariant(False, True, "sup", _sup, _sup_rows),
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


def _measure(values: Iterable[float], tail: float, kind: NormKind,
             what: str, support: tuple | None = None) -> float:
    """The kind-norm of the sequence with these support values and tail, or
    NaN if one is NaN; `what` words the error for a tail it does not allow.
    `values` is read once, unless it can be read again off `support`."""
    if tail != tail:
        return math.nan
    spec = NORM_VARIANTS[kind.variant]
    if tail != 0.0 and not spec.allows_tail:
        raise NotInSpaceError(f"{kind.label()} {what} {tail!r}")
    try:
        result = spec.evaluate(values, tail, kind.p)
    except OverflowError:  # a power abs(v) ** p passed the float range
        result = math.inf
    if result != math.inf:
        return result
    values = values if support is None else [v for _, v in support]
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
    return _measure(map(itemgetter(1), x.support), x.tail, kind,
                    "norm needs tail 0, got tail", x.support)


def distance(x: SeqVec, y: SeqVec, kind: NormKind) -> float:
    """norm(x - y, kind) without materializing the difference vector: one
    merge of the two sorted supports.  The merge yields the differences in
    index order, the order in which rows_distance sums a row, so the two
    agree bit for bit."""
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
    """_measure of every row of a block, under np.errstate(over="ignore",
    invalid="ignore").  A row whose block result is not finite, or whose
    tail the norm does not allow, goes through _measure itself, so NaN,
    overflow and the tail error keep one definition."""
    spec = NORM_VARIANTS[kind.variant]
    result = spec.evaluate_rows(vals, tail, kind.p)
    finite = np.isfinite(result)
    if (np.count_nonzero(finite) == len(result)
            and (spec.allows_tail or not np.count_nonzero(tail))):
        return result
    redo = ~finite
    if not spec.allows_tail:
        redo |= tail != 0.0
    for i in redo.nonzero()[0].tolist():
        result[i] = _measure(vals[i].tolist(), float(tail[i]), kind, what)
    return result


def rows_norm(x: Rows, kind: NormKind) -> np.ndarray:
    """norm of every row of a block."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _measure_rows(x.vals, x.tail, kind,
                             "norm needs tail 0, got tail")


def rows_distance(x: Rows, y: Rows, kind: NormKind) -> np.ndarray:
    """distance between the rows of two blocks of the same length, row by
    row."""
    width = max(x.width, y.width)
    x, y = x.widen(width), y.widen(width)
    with np.errstate(over="ignore", invalid="ignore"):
        return _measure_rows(x.vals - y.vals, x.tail - y.tail, kind,
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
    return SeqVec.from_sorted([(i, a * v) for i, v in x.support], a * x.tail)


def shifted(head: list[float], x: SeqVec, tail: float,
            rule: Callable[[float], float] | None = None) -> SeqVec:
    """(h1, ..., hk, rule(t1), rule(t2), ...) with the given tail, built by
    from_sorted; no rule moves each t_i unchanged."""
    k = len(head)
    if rule is None:
        body = ((i + k, v) for i, v in x.support)
    else:
        body = ((i + k, rule(v)) for i, v in x.support)
    return SeqVec.from_sorted(chain(enumerate(head, 1), body), tail)


def shift_rows(head: list, body: np.ndarray, tail: np.ndarray) -> Rows:
    """shifted on a block: the head columns (numbers or arrays), then body."""
    vals = np.empty((len(tail), len(head) + body.shape[1]))
    vals[:, len(head):] = body
    for j, column in enumerate(head):
        vals[:, j] = column
    return Rows(vals, tail)


def shift_right(x: SeqVec) -> SeqVec:
    """The forward shift S(t1, t2, ...) = (0, t1, t2, ...); the tail is kept
    (the shifted sequence has the same eventual value)."""
    return shifted([0.0], x, x.tail)


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
