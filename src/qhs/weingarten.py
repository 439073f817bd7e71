"""Gram/Weingarten data and exact Haar integration.

Moments over the group are rational; moments over the homogeneous space for
an index set I of size m come out as ScaledScalar values q * m**(-k/2), so
the "scaled moment" (times m**(k/2)) is always rational.  GramData is
cached per (family, N, word) and every operation here is pure, so results
are deterministic and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import perm
from operator import add

from .exact import (
    DomainError,
    ExactMatrix,
    Factor,
    Frozen,
    ParseError,
    ScaledScalar,
    check_index,
    common_denominator,
    invert,
)
from .partitions import (
    CategorySpec,
    FixBasis,
    WHITE,
    check_dense,
    check_word,
    coarsenings,
    fix_basis,
    kernel_ids,
    kernel_position,
)


class IndexSet(Frozen):
    """Nonempty subset I of {0..N-1}; m = |I| is the scale base."""

    def __init__(self, N: int, members: frozenset):
        if not members:
            raise DomainError("index set must be nonempty")
        if not all(isinstance(i, int) and 0 <= i < N for i in members):
            raise DomainError(f"index set members must lie in 0..{N - 1}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "members", members)

    def _key(self):
        return self.N, self.members

    def __hash__(self):  # _key inlined, so a hash is one call
        return hash((self.N, self.members))

    @property
    def m(self) -> int:
        return len(self.members)

    @cached_property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    def __str__(self):
        return ",".join(str(i + 1) for i in self.sorted_members)

    def flat_indices(self, k: int) -> list:
        """Flat positions of the indices in I^k, in product order."""
        out = [0]
        for _ in range(k):
            out = [f * self.N + i for f in out for i in self.sorted_members]
        return out

    def require_N(self, n: int, what: str) -> None:
        if self.N != n:
            raise DomainError(f"index set over N={self.N} does not match {what} N={n}")

    @classmethod
    def of(cls, N: int, members) -> "IndexSet":
        return cls(N, frozenset(members))

    @classmethod
    def parse(cls, text: str, N: int) -> "IndexSet":
        """Parse the 1-based CLI literal, e.g. ``1,2``."""
        try:
            listed = [int(tok) - 1 for tok in text.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad index set {text!r}") from exc
        members = set(listed)
        if len(members) < len(listed):
            raise ParseError(f"index set {text!r} repeats a member")
        if not all(0 <= i < N for i in members):
            raise ParseError(f"index set {text!r} out of range 1..{N}")
        return cls(N, frozenset(members))


class GramData(Frozen):
    """Selected basis with its Gram matrix G and one factor of G, the cached
    record of a word.  Moments read the Weingarten matrix W = G^-1 through
    products: factor.solve(b) is W b, in integers over one denominator.
    hits maps a kernel (its restricted growth string, as bytes) to the
    positions of the selected partitions it coarsens.  The readers of every
    column of W read it whole, as weingarten_rows[t][u] / denominator over
    one common denominator.  The factor and W are each built on first read,
    so a word pays only for what its readers read."""

    def __init__(self, basis: FixBasis, gram: ExactMatrix, hits: dict):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "hits", hits)

    def _key(self):
        return self.basis, self.gram, tuple(self.hits.items())

    @cached_property
    def factor(self) -> Factor:
        return Factor(self.gram)

    @cached_property
    def _inverse(self) -> tuple:
        """(weingarten_rows, denominator), built on first read."""
        d = self.gram.rows
        numerators, den = common_denominator(invert(self.gram).entries if d else ())
        return tuple(tuple(numerators[r * d : (r + 1) * d]) for r in range(d)), den

    @property
    def weingarten_rows(self) -> tuple:
        return self._inverse[0]

    @property
    def denominator(self) -> int:
        return self._inverse[1]


def _norm_word(spec: CategorySpec, word: str) -> str:
    """Cache key: colors are invisible to the self-conjugate families."""
    return word if not spec.self_conjugate else WHITE * len(word)


@cache
def _basis(family: str, n: int, word: str) -> FixBasis:
    """The selected basis, for every caller that reads no Gram data and
    for _gram_data itself."""
    return fix_basis(CategorySpec(family, n), word)


def selected_partitions(spec: CategorySpec, word: str) -> tuple:
    """The selected basis partitions of the word, in canonical order."""
    check_word(word)
    return _basis(spec.family, spec.N, _norm_word(spec, word)).selected


@cache
def _gram_data(family: str, n: int, word: str) -> GramData:
    basis = _basis(family, n, word)
    parts = basis.selected
    d = len(parts)
    hits = {}
    for pos, part in enumerate(parts):
        for c in coarsenings(part):
            hits.setdefault(c, []).append(pos)
    hits = {a: tuple(ts) for a, ts in hits.items()}
    # N^|pi v sigma| counts the indices constant on the blocks of both; summed
    # by kernel, each kernel a above both adds its perm(N, |a|) indices
    gram_rows = [[0] * d for _ in range(d)]
    for a, ts in hits.items():
        weight = perm(n, max(a) + 1) if a else 1
        if weight:
            for t in ts:
                row = gram_rows[t]
                for u in ts:
                    row[u] += weight
    gram = ExactMatrix(d, d, [x for row in gram_rows for x in row])
    return GramData(basis, gram, hits)


def gram_weingarten(spec: CategorySpec, word: str) -> GramData:
    """The word's Gram data: the Gram matrix N**|join| on the selected
    basis and its kernel hits, with, each built on first read, one factor
    for exact solves with its inverse W and W itself."""
    check_word(word)
    return _gram_data(spec.family, spec.N, _norm_word(spec, word))


def integrate_G(spec: CategorySpec, word: str, row, col) -> Fraction:
    """Haar moment of u_{row[0] col[0]}^{e_1} ... over the category's group.

    Indices are 0-based k-tuples.  Equals the (row, col) entry of the Haar
    projection onto the invariant vectors of the word.
    """
    check_word(word)
    k = len(word)
    n = spec.N
    row = check_index(row, k, n, "row index")
    col = check_index(col, k, n, "column index")
    norm = _norm_word(spec, word)
    return _kernel_moment(spec.family, n, norm, kernel_position(row), kernel_position(col))


@cache
def _letter_class(family: str, word: str) -> tuple:
    """The representative of the word's letter-order class and the positions
    of the word it reads.  The Haar state of a closed G in U_N^+ is a trace,
    so a U+ moment is unchanged when its letters, rows and columns rotate
    together: the representative is the least rotation.  U's coordinates
    also commute, so its letters are sorted, all WHITE first, by a stable
    sort of positions.  A U+ word is never sorted: on U+(2), obob at the
    all-ones row and column is 1/3, but oobb is 1/4."""
    k = len(word)
    if family == "U":
        order = sorted(range(k), key=lambda p: word[p] != WHITE)
    elif family == "U+":
        r = min(range(k), key=lambda r: word[r:] + word[:r], default=0)
        order = [*range(r, k), *range(r)]
    else:
        return word, None
    return "".join(word[p] for p in order), order


def _moved(a: bytes, order) -> bytes:
    """The kernel of a, its positions read in the given order; unmemoised,
    so kernel_position's memo holds only the indices callers query."""
    return kernel_position.__wrapped__(tuple(a[p] for p in order))


@cache
def _kernel_moment(family: str, n: int, word: str, a: bytes, b: bytes) -> Fraction:
    """The moment at row indices of kernel a and column indices of kernel b;
    a word outside its letter-order class's representative reads the
    representative's moment."""
    rep, order = _letter_class(family, word)
    if rep != word:
        return _kernel_moment(family, n, rep, _moved(a, order), _moved(b, order))
    hits = _gram_data(family, n, word).hits
    if a not in hits or b not in hits:  # no selected partition below a kernel: a zero moment
        return Fraction(0)
    x, den = _weingarten_column(family, n, word, b)
    return Fraction(sum(x[t] for t in hits[a]), den)


@cache
def _weingarten_column(family: str, n: int, word: str, b: bytes) -> tuple:
    """W 1_b, with 1_b the indicator of hits[b], as integer numerators over
    one denominator: one solve per column kernel b of the word."""
    data = _gram_data(family, n, word)
    cols = set(data.hits[b])
    return data.factor.solve([int(u in cols) for u in range(data.basis.dimension)])


@cache
def _projection(family: str, n: int, word: str) -> ExactMatrix:
    """P[i, j] depends on i and j only through their kernels: one sum per
    pair of kernels that occur in kernel_ids, read back through it."""
    check_dense(n ** (2 * len(word)), f"projection over N^2k = {n}^{2 * len(word)}")
    kid = kernel_ids(n, len(word))
    data = _gram_data(family, n, word)
    wrows, hits, den = data.weingarten_rows, data.hits, data.denominator
    kernels = set(kid)
    expanded = {}
    for a in kernels:
        colsum = [0] * len(wrows)
        for t in hits.get(a, ()):
            colsum = list(map(add, colsum, wrows[t]))
        row = {b: Fraction(sum(colsum[u] for u in hits.get(b, ())), den) for b in kernels}
        expanded[a] = [row[b] for b in kid]
    out = []
    for a in kid:
        out.extend(expanded[a])
    return ExactMatrix(len(kid), len(kid), out)


def projection_P(spec: CategorySpec, word: str) -> ExactMatrix:
    """The N^k x N^k Haar projection onto the word's invariant vectors."""
    check_word(word)
    return _projection(spec.family, spec.N, _norm_word(spec, word))


def K_vector(spec: CategorySpec, word: str, I: IndexSet) -> list:
    """Per selected basis vector: m**(-k/2) times its entry sum over I^k.

    Entrywise conjugation is the identity here (rational entries), and the
    vector of pi is 1 on the m**|pi| indices of I^k constant on its blocks.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    k = len(word)
    return [
        ScaledScalar(Fraction(I.m**part.block_count), k, I.m)
        for part in selected_partitions(spec, word)
    ]


@cache
def _k_dot_weingarten(family: str, n: int, word: str, m: int) -> tuple:
    """(kw, D): kw[t] / D = sum_u K_q(u) * W[t, u], the rational part at
    scale m**(-k/2), one solve; K_q(u) = m**|pi_u| depends on I only
    through m = |I|."""
    kq = [m**part.block_count for part in _basis(family, n, word).selected]
    return _gram_data(family, n, word).factor.solve(kq)


def integrate_X(spec: CategorySpec, I: IndexSet, word: str, idx) -> ScaledScalar:
    """Haar moment of x_{idx[0]}^{e_1} ... x_{idx[k-1]}^{e_k} over the space.

    The result times m**(k/2) is always rational; the empty word gives 1.
    Every hit on one kernel returns the same immutable value.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    n = spec.N
    idx = check_index(idx, len(word), n, "index")
    return _space_value(spec.family, n, _norm_word(spec, word), I.m, kernel_position(idx))


@cache
def _space_value(family: str, n: int, word: str, m: int, a: bytes) -> ScaledScalar:
    """The finished space moment at any index of kernel a: the one cache
    per answer of integrate_X.  I^k is closed under the position maps of
    _letter_class, so a word reads its representative's moment."""
    rep, order = _letter_class(family, word)
    if rep != word:
        return _space_value(family, n, rep, m, _moved(a, order))
    return ScaledScalar(_space_moment(family, n, word, m, a), len(word), m)


def _space_moment(family: str, n: int, word: str, m: int, a: bytes) -> Fraction:
    """The rational part of the space moment at any index of kernel a."""
    rows = _gram_data(family, n, word).hits.get(a)
    if rows is None:  # no selected partition below the kernel: a zero moment
        return Fraction(0)
    kw, den = _k_dot_weingarten(family, n, word, m)
    return Fraction(sum(kw[t] for t in rows), den)


def ergodicity_check(spec: CategorySpec, I: IndexSet, word: str) -> dict:
    """Moment-level invariance: averaging the coaction equals integration.

    Verifies sum_j P[i, j] * M_j == m**(-k/2) * sum_{j in I^k} P[i, j] for
    every row i, where M_j is the space moment at j.  Exact; reports the
    first failing row, if any.

    P[i, j] = sum of W[t, u] over t in hits[a], u in hits[b], for i of
    kernel a and j of kernel b, and M_j depends on j only through b, which
    perm(N, |b|) indices of [N]^k and perm(m, |b|) of I^k have.  So with
    z_u = sum over the kernels b with u in hits[b] of v_b, once for
    v_b = M_b perm(N, |b|) and once for v_b = perm(m, |b|), both sides of
    row i are sum over t in hits[a] of (W z)_t: two solves in place of the
    kernel-pair table.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    n = spec.N
    k = len(word)
    norm = _norm_word(spec, word)
    data = _gram_data(spec.family, n, norm)
    hits, d = data.hits, data.basis.dimension
    # the kernels that occur, with their block counts, in the order of their first rows: a
    # kernel outside hits adds 0 to both sides, and equal-length names sort in all_partitions order
    kernels = [(a, size) for a in sorted(hits) if (size := len(set(a))) <= n]
    # the v_b over one denominator zden, so that both z are integers
    weights, zden = common_denominator(
        [_space_moment(spec.family, n, norm, I.m, b) * perm(n, size) for b, size in kernels]
    )
    z_lhs = [0] * d
    z_rhs = [0] * d
    for (b, size), weight in zip(kernels, weights):
        count = perm(I.m, size)
        for u in hits.get(b, ()):
            z_lhs[u] += weight
            z_rhs[u] += count
    # W z_lhs / zden = y_lhs / lhs_den once lhs_den takes zden in, and W z_rhs = y_rhs / rhs_den:
    # over den, both sides of a row are integer sums at its kernel
    y_lhs, lhs_den = data.factor.solve(z_lhs)
    y_rhs, rhs_den = data.factor.solve(z_rhs)
    lhs_den *= zden
    den = lhs_den * rhs_den
    report = {
        "spec": str(spec),
        "I": str(I),
        "word": word,
        "passed": True,
        "counterexample": None,
    }
    # the first failing kernel holds the first failing row
    for a, _ in kernels:
        lhs = sum(y_lhs[t] for t in hits.get(a, ())) * rhs_den
        rhs = sum(y_rhs[t] for t in hits.get(a, ())) * lhs_den
        if lhs != rhs:
            report["passed"] = False
            report["counterexample"] = {
                "row": [v + 1 for v in a],
                "lhs": ScaledScalar(Fraction(lhs, den), k, I.m).to_json(),
                "rhs": ScaledScalar(Fraction(rhs, den), k, I.m).to_json(),
            }
            break
    return report
