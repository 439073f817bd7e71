"""Exact scalars and dense exact linear algebra.

Scalars are rationals (`fractions.Fraction`), optionally carrying a factor
m**(-s/2) so that the 1/sqrt(m)-normalised quantities stay exact.  Matrices
and tensors are dense, immutable, and entrywise exact.  All elimination goes
through one routine, `Echelon`: fraction-free, with a fixed pivot rule, so
every output is deterministic and reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect, bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, product
from operator import mul


class DomainError(Exception):
    """Input rejected on mathematical grounds; the CLI maps this to exit 3."""

    name = "domain-error"


class ScaleBaseError(DomainError):
    name = "incompatible scale base"


class SingularGramError(DomainError):
    name = "gram-singular"

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ClosureCapError(DomainError):
    name = "closure-cap-exceeded"


class IncompatibleOracleError(DomainError):
    name = "incompatible oracle"


class ResourceGuardError(DomainError):
    name = "resource-guard-exceeded"


class ParseError(ValueError):
    """Malformed user input; the CLI maps this to exit 2."""


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def _exact_square_root(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True, eq=False)
class ScaledScalar:
    """The exact real number q * m**(-s/2), with q rational.

    Canonical form keeps s in {0, 1}: whole powers of m are folded into q,
    and if m is a perfect square the root itself is folded so s is 0.  Two
    values with the same base m are equal iff their canonical fields agree;
    values with s == 0 are plain rationals and compare across bases.
    """

    q: Fraction
    s: int = 0
    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"scale base must be a positive integer, got {self.m}")
        q = self.q if isinstance(self.q, Fraction) else Fraction(self.q)
        s = self.s
        if q == 0:
            s = 0
        while s < 0:
            q *= self.m
            s += 2
        if s >= 2:
            q /= Fraction(self.m) ** (s // 2)
            s %= 2
        if s == 1:
            root = _exact_square_root(self.m)
            if root is not None:
                q /= root
                s = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)

    def __bool__(self) -> bool:
        return self.q != 0

    def __eq__(self, other):
        if isinstance(other, ScaledScalar):
            if self.s == 0 and other.s == 0:
                return self.q == other.q
            return (self.q, self.s, self.m) == (other.q, other.s, other.m)
        if isinstance(other, (int, Fraction)):
            return self.s == 0 and self.q == other
        return NotImplemented

    def __hash__(self):
        if self.s == 0:
            return hash(self.q)
        return hash((self.q, self.s, self.m))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ScaledScalar(self.q * other, self.s, self.m)
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        if other.m != self.m:
            raise ScaleBaseError(
                f"incompatible scale base: {self.m} vs {other.m}"
            )
        return ScaledScalar(self.q * other.q, self.s + other.s, self.m)

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledScalar(Fraction(other), 0, self.m)
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if other.m != self.m:
            raise ScaleBaseError(
                f"incompatible scale base: {self.m} vs {other.m}"
            )
        if self.s != other.s:
            # q1 + q2/sqrt(m) has no single-term canonical form unless m is
            # a square (in which case canonicalisation already made s == 0).
            raise ScaleBaseError(f"sum not representable at base {self.m}")
        return ScaledScalar(self.q + other.q, self.s, self.m)

    __radd__ = __add__

    def __neg__(self):
        return ScaledScalar(-self.q, self.s, self.m)

    def __sub__(self, other):
        return self + (-other)

    def value(self) -> float:
        """Floating-point approximation (the exact fields are authoritative)."""
        return float(self.q) * self.m ** (-self.s / 2)

    def rescale(self, k: int) -> Fraction:
        """The value multiplied by m**(k/2), as an exact rational.

        Raises when k and s have different parity over a non-square base,
        i.e. when the rescaled value is genuinely irrational.
        """
        if self.q == 0:
            return Fraction(0)
        diff = k - self.s
        if diff % 2:
            root = _exact_square_root(self.m)
            if root is None:
                raise ScaleBaseError(
                    f"value times {self.m}**({k}/2) is irrational"
                )
            return self.q * Fraction(root) ** diff
        return self.q * Fraction(self.m) ** (diff // 2)

    def to_json(self) -> dict:
        return {"q": str(self.q), "s": self.s, "m": self.m}

    @classmethod
    def from_json(cls, data: dict) -> "ScaledScalar":
        return cls(parse_fraction(data["q"]), int(data["s"]), int(data["m"]))


class ExactMatrix:
    """Dense exact matrix; entries are ints or Fractions, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(
                f"need {rows}x{cols}={rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, (int(r == c) for r in range(n) for c in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, (x for r in rows for x in r))

    def at(self, r: int, c: int):
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            (self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)),
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            x == int(r == c)
            for r in range(self.rows)
            for c, x in enumerate(self.row(r))
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries))
        )

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactMatrix(self.rows, self.cols, (x * other for x in self.entries))
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        a_entries, b_entries = self.entries, other.entries
        for r in range(n):
            base = r * k
            rb = r * m
            for t in range(k):
                a = a_entries[base + t]
                if a:
                    ob = t * m
                    for c in range(m):
                        b = b_entries[ob + c]
                        if b:
                            out[rb + c] += a * b
        return ExactMatrix(n, m, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, row-major: row (r1,r2), column (c1,c2)."""
        out = []
        for r1 in range(self.rows):
            for r2 in range(other.rows):
                orow = other.row(r2)
                for c1 in range(self.cols):
                    a = self.at(r1, c1)
                    if a == 0:
                        out.extend([0] * other.cols)
                    else:
                        out.extend(a * b for b in orow)
        return ExactMatrix(self.rows * other.rows, self.cols * other.cols, out)

    def to_string_rows(self) -> list:
        return [[str(Fraction(x)) for x in self.row(r)] for r in range(self.rows)]

    @classmethod
    def from_string_rows(cls, rows) -> "ExactMatrix":
        return cls.from_rows([[parse_fraction(x) for x in r] for r in rows])

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


class ExactTensor:
    """Dense exact tensor over a cubic shape (N, ..., N), lexicographic flat order."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        shape = tuple(shape)
        entries = tuple(entries)
        size = 1
        for d in shape:
            if d < 1:
                raise ValueError(f"bad dimension {d}")
            size *= d
        if len(entries) != size:
            raise ValueError(f"need {size} entries, got {len(entries)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactTensor is immutable")

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return len(self.entries)

    def at(self, idx):
        n = self.shape[0] if self.shape else 1
        return self.entries[flat_index(idx, n)]

    def dot(self, other: "ExactTensor"):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return sum(a * b for a, b in zip(self.entries, other.entries) if a and b)

    def as_column(self) -> ExactMatrix:
        return ExactMatrix(self.size, 1, self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExactTensor):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        return f"ExactTensor(shape={self.shape})"


def multi_indices(n: int, k: int):
    """All k-tuples over range(n) in lexicographic (row-major flat) order."""
    return product(range(n), repeat=k)


def flat_index(idx, n: int) -> int:
    f = 0
    for t in idx:
        f = f * n + t
    return f


def check_index(idx, k: int, n: int, what: str = "index") -> tuple:
    """The multi-index as a tuple, after checking its length and range."""
    idx = tuple(idx)
    if len(idx) != k:
        raise DomainError(f"{what} must have length {k}, got {len(idx)}")
    if not all(isinstance(i, int) and 0 <= i < n for i in idx):
        raise DomainError(f"{what} out of range 0..{n - 1}: {idx}")
    return idx


def _integer_row(row) -> list:
    """The row times the least common denominator of its entries."""
    try:
        math.gcd(*row)  # the fast test that every entry is an int
        return list(row)
    except TypeError:
        den = math.lcm(*{x.denominator for x in row})
        return [x.numerator * (den // x.denominator) for x in row]


def _primitive(x: list, lead: int) -> list:
    """x divided by the gcd of its entries, signed so that x[lead] > 0."""
    if x[lead] == 1:
        return x
    g = math.gcd(*x)
    if x[lead] < 0:
        g = -g
    return x if g == 1 else [v // g for v in x]


class Echelon:
    """Exact rows in echelon form: the one elimination routine of qhs.

    Pivot rule: a row's pivot is its leftmost nonzero column, and rows are
    taken in the order given, so the first row to reach a pivot keeps it and
    later rows are reduced against it.  Rows are stored fraction-free, as
    primitive integer vectors with a positive pivot, sorted by pivot, each
    with its support (the columns where it is nonzero).
    """

    __slots__ = ("pivots", "rows", "supports")

    def __init__(self, rows=()):
        self.pivots = []
        self.rows = []
        self.supports = []
        for row in rows:
            self.add(row)

    def _eliminate(self, x: list, start: int = 0) -> list:
        """Clear x at the pivots of rows[start:], in pivot order; x is a
        list of ints and is updated in place unless it has to be scaled."""
        for t in range(start, len(self.rows)):
            b = x[self.pivots[t]]
            if b:
                e = self.rows[t]
                a = e[self.pivots[t]]
                g = math.gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    x = [a * u for u in x]
                for j in self.supports[t]:
                    x[j] -= b * e[j]
                if a != 1:
                    g = math.gcd(*x)
                    if g > 1:
                        x = [u // g for u in x]
        return x

    def _store(self, t: int, x: list) -> None:
        x = _primitive(x, self.pivots[t])
        self.rows[t] = x
        self.supports[t] = list(compress(count(), x))

    def reduce(self, row) -> list:
        """The row with every pivot column cleared, up to a nonzero factor;
        it is zero exactly when the row lies in the span."""
        return self._eliminate(_integer_row(row))

    def add(self, row) -> bool:
        """Keep the reduced row if it raises the rank; True when kept."""
        x = self.reduce(row)
        lead = next(compress(count(), x), None)
        if lead is None:
            return False
        t = bisect(self.pivots, lead)
        self.pivots.insert(t, lead)
        self.rows.insert(t, None)
        self.supports.insert(t, None)
        self._store(t, x)
        return True

    def back_substitute(self) -> None:
        """Clear each pivot column above its pivot too (reduced echelon form)."""
        for t in range(len(self.rows) - 2, -1, -1):
            self._store(t, self._eliminate(self.rows[t], t + 1))


def _matrix_rows(matrix: ExactMatrix):
    return (matrix.row(r) for r in range(matrix.rows))


def rank(matrix: ExactMatrix) -> int:
    return len(Echelon(_matrix_rows(matrix)).pivots)


def rank_nullspace(matrix: ExactMatrix):
    """Exact rank and a deterministic nullspace basis.

    One basis vector per non-pivot column, in column order, each an (n x 1)
    ExactMatrix normalised so its first nonzero coordinate is 1;
    matrix * v == 0 exactly.
    """
    span = Echelon(_matrix_rows(matrix))
    span.back_substitute()
    pivot_rows = list(zip(span.pivots, span.rows))
    basis = []
    for free in sorted(set(range(matrix.cols)).difference(span.pivots)):
        v = [Fraction(0)] * matrix.cols
        v[free] = Fraction(1)
        for pc, row in pivot_rows:
            if pc > free:
                break
            if row[free]:
                v[pc] = Fraction(-row[free], row[pc])
        lead = next(x for x in v if x)
        if lead != 1:
            v = [x / lead for x in v]
        basis.append(ExactMatrix(matrix.cols, 1, v))
    return len(span.pivots), basis


def invert(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse from the reduced echelon form of [matrix | identity];
    raises gram-singular with the rank.

    Row c of the reduced form is [p_c * e_c | R_c], so the inverse is
    W = D^-1 R with D = diag(p_c).  Before any entry of W is built, every
    inverse is checked exactly in integers: W * matrix == I holds iff
    R * matrix == D.
    """
    if matrix.rows != matrix.cols:
        raise DomainError("cannot invert a non-square matrix")
    n = matrix.rows
    span = Echelon(
        matrix.row(r) + tuple(int(r == c) for c in range(n)) for r in range(n)
    )
    rk = bisect_left(span.pivots, n)
    if rk < n:
        raise SingularGramError(f"matrix of size {n} is singular", rk)
    span.back_substitute()
    columns = [matrix.entries[j::n] for j in range(n)]
    for c, row in enumerate(span.rows):
        r_c = row[n:]
        if any(
            sum(map(mul, r_c, col)) != (row[c] if j == c else 0)
            for j, col in enumerate(columns)
        ):
            raise AssertionError("weingarten inverse failed exactness check")
    return ExactMatrix(
        n, n, (Fraction(x, row[c]) for c, row in enumerate(span.rows) for x in row[n:])
    )
