"""Exact scalars and dense exact linear algebra.

Scalars are rationals (`fractions.Fraction`), optionally carrying a factor
m**(-s/2) so that the 1/sqrt(m)-normalised quantities stay exact.  Matrices
are dense, immutable, and entrywise exact; a vector over N^k is an N^k x 1
matrix.  All elimination goes through one routine, `Echelon`: fraction-free,
with a fixed pivot rule, so every output is deterministic and reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect, bisect_left
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


class Frozen:
    """Base of the immutable value types.  A subclass sets its fields once,
    in __init__, through object.__setattr__; _key() returns the fields it is
    equal and hashed by.  An instance never equals one of another type."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class ScaledScalar(Frozen):
    """The exact real number q * m**(-s/2), with q rational.

    Canonical form keeps s in {0, 1}: whole powers of m are folded into q,
    and if m is a perfect square the root itself is folded so s is 0.  Two
    values with the same base m are equal iff their canonical fields agree;
    values with s == 0 are plain rationals and compare across bases.
    """

    def __init__(self, q: Fraction, s: int = 0, m: int = 1):
        if m < 1:
            raise DomainError(f"scale base must be a positive integer, got {m}")
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if q == 0:
            s = 0
        while s < 0:
            q *= m
            s += 2
        if s >= 2:
            q /= Fraction(m) ** (s // 2)
            s %= 2
        if s == 1:
            root = _exact_square_root(m)
            if root is not None:
                q /= root
                s = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "m", m)

    def _key(self):
        return self.q, self.s, self.m

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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            (self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)),
        )

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
        return [list(map(str, self.row(r))) for r in range(self.rows)]

    @classmethod
    def from_string_rows(cls, rows) -> "ExactMatrix":
        return cls.from_rows([[parse_fraction(x) for x in r] for r in rows])

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


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
    for i in idx:  # a plain loop: half the cost of a generator through `all`
        if not (isinstance(i, int) and 0 <= i < n):
            raise DomainError(f"{what} out of range 0..{n - 1}: {idx}")
    return idx


def common_denominator(row) -> tuple:
    """(numerators, D): the entries as integers over their least common
    denominator D, so that sums over them run in integers; a row of ints
    comes back as it is, with D = 1."""
    try:
        math.gcd(*row)  # the fast test that every entry is an int
        return row, 1
    except TypeError:
        den = math.lcm(*{x.denominator for x in row})
        return [x.numerator * (den // x.denominator) for x in row], den


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
        return self._eliminate(list(common_denominator(row)[0]))

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
    """Exact rank, a deterministic nullspace basis, and the reduced rows.

    One basis vector per non-pivot column f, in column order, read off the
    reduced rows without division: v[f] is the lcm L of the pivots of the
    rows nonzero at f, and v[pc] = -row[f] * (L // row[pc]) for each such
    row.  Each v is a tuple of ints, primitive, with its first nonzero entry
    positive; matrix * v == 0 exactly.  The rows are the reduced echelon
    form as primitive integer vectors: v is in the nullspace iff every row
    annihilates it.
    """
    span = Echelon(_matrix_rows(matrix))
    span.back_substitute()
    pivot_rows = list(zip(span.pivots, span.rows))
    basis = []
    for free in sorted(set(range(matrix.cols)).difference(span.pivots)):
        hits = [(pc, row) for pc, row in pivot_rows if row[free]]  # all have pc < free
        scale = math.lcm(*(row[pc] for pc, row in hits))
        v = [0] * matrix.cols
        v[free] = scale
        for pc, row in hits:
            v[pc] = -row[free] * (scale // row[pc])
        basis.append(tuple(_primitive(v, hits[0][0] if hits else free)))
    return len(span.pivots), basis, span.rows


def _inverse_holds(rows, matrix: ExactMatrix) -> bool:
    """Whether the reduced rows [p_c e_c | R_c] of [matrix | identity] give
    R * matrix == D, with D = diag(p_c), exactly and in O(n^2) big-integer
    operations.

    With matrix = G / q over integers G, row l of G is packed as
    P_l = sum_j G[l][j] 2^(B j).  Then sum_l R_c[l] P_l has the base-2^B
    digits (R_c G)_j, and row c holds iff it equals q p_c 2^(B c).  The two
    sides differ by digits below sum_l |R_c[l]| max|G| + q p_c in absolute
    value; with 2^B above that bound such balanced digits are unique, so
    equal numbers mean equal digits.
    """
    n = matrix.rows
    entries, q = common_denominator(matrix.entries)
    g_max = max(map(abs, entries), default=0)
    bound = max(
        (sum(map(abs, row[n:])) * g_max + q * abs(row[c]) for c, row in enumerate(rows)), default=0
    )
    shift = bound.bit_length()
    packed = []
    for l in range(n):
        acc = 0
        for x in reversed(entries[l * n : (l + 1) * n]):
            acc = (acc << shift) + x
        packed.append(acc)
    return all(
        sum(map(mul, row[n:], packed)) == q * row[c] << (shift * c) for c, row in enumerate(rows)
    )


def _forward(matrix: ExactMatrix) -> Echelon:
    """The forward pass of `Echelon` over [matrix | identity], every pivot
    left of column n; raises gram-singular with the rank."""
    if matrix.rows != matrix.cols:
        raise DomainError("cannot invert a non-square matrix")
    n = matrix.rows
    span = Echelon(matrix.row(r) + (0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(n))
    rk = bisect_left(span.pivots, n)
    if rk < n:
        raise SingularGramError(f"matrix of size {n} is singular", rk)
    return span


class Factor:
    """One factor of a nonsingular matrix A, for exact solves A x = b.

    Row t of the forward pass over [A | identity] is [u_t | l_t], a
    combination of the rows of [A | identity], so u_t = l_t A, with its
    pivot at column t: U = L A with U upper triangular.  A x = b is then
    U x = L b, one product with L and one back substitution, in integers.
    Only the triangles are held: u_t from its pivot on, as the pivot and
    the rest reversed, and l_t up to its last nonzero entry, which is entry
    t when A is positive definite (every Gram matrix of independent
    vectors is).
    """

    __slots__ = ("pivots", "tails", "lower", "entries", "q")

    def __init__(self, matrix: ExactMatrix):
        n = matrix.rows
        rows = _forward(matrix).rows
        # A = entries / q over integers, for the check of each solve
        self.entries, self.q = common_denominator(matrix.entries)
        self.pivots = [row[t] for t, row in enumerate(rows)]
        self.tails = [row[n - 1 : t : -1] for t, row in enumerate(rows)]
        self.lower = [row[n : n + 1 + max(compress(count(), row[n:]))] for row in rows]

    def solve(self, b) -> tuple:
        """(x, D): the solution of A x = b for a vector b of ints, as a
        tuple of integer numerators x over one positive denominator D, in
        lowest terms.  Checked exactly before it is returned: A x == D b."""
        x, den = self._back_substitute([sum(map(mul, row, b)) for row in self.lower])
        n, entries, qd = len(x), self.entries, self.q * den
        if any(sum(map(mul, entries[r * n : (r + 1) * n], x)) != qd * v for r, v in enumerate(b)):
            raise AssertionError("weingarten solve failed exactness check")
        return tuple(x), den

    def _back_substitute(self, c: list) -> tuple:
        """(x, D) with U x = D c, from the last row up.  Row t gives
        x_t = s / (p D) with s = c_t D - sum_(j>t) u_t[j] x_j and p = u_t[t];
        with g = gcd(s, p), D grows by p / g and every x_j found so far is
        scaled to match."""
        found = []  # x_(n-1), ..., x_(t+1), in the order of the reversed tails
        den = 1
        for p, tail, ct in zip(reversed(self.pivots), reversed(self.tails), reversed(c)):
            s = ct * den - sum(map(mul, tail, found))
            g = math.gcd(s, p)
            if g != p:
                scale = p // g
                den *= scale
                found = [v * scale for v in found]
            found.append(s // g)
        g = math.gcd(den, *found)
        return [v // g for v in reversed(found)], den // g


def invert(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse from the reduced echelon form of [matrix | identity];
    raises gram-singular with the rank.

    Row c of the reduced form is [p_c * e_c | R_c], so the inverse is
    W = D^-1 R with D = diag(p_c).  Before any entry of W is built, every
    inverse is checked exactly in integers: W * matrix == I holds iff
    R * matrix == D (`_inverse_holds`).
    """
    n = matrix.rows
    span = _forward(matrix)
    span.back_substitute()
    if not _inverse_holds(span.rows, matrix):
        raise AssertionError("weingarten inverse failed exactness check")
    return ExactMatrix(
        n, n, (Fraction(x, row[c]) for c, row in enumerate(span.rows) for x in row[n:])
    )
