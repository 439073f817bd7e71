"""Gram/Weingarten data and exact Haar integration.

Moments over the group are rational; moments over the homogeneous space for
an index set I of size m come out as ScaledScalar values q * m**(-k/2), so
the "scaled moment" (times m**(k/2)) is always rational.  GramData is
cached per (family, N, word) and every operation here is pure, so results
are deterministic and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import product

from .exact import (
    DomainError,
    ExactMatrix,
    ParseError,
    ScaledScalar,
    check_index,
    flat_index,
    invert,
)
from .partitions import (
    CategorySpec,
    FixBasis,
    WHITE,
    all_partitions,
    check_word,
    coarsenings,
    fix_basis,
    kernel_ids,
)


@dataclass(frozen=True)
class IndexSet:
    """Nonempty subset I of {0..N-1}; m = |I| is the scale base."""

    N: int
    members: frozenset

    def __post_init__(self):
        if not self.members:
            raise DomainError("index set must be nonempty")
        if not all(isinstance(i, int) and 0 <= i < self.N for i in self.members):
            raise DomainError(f"index set members must lie in 0..{self.N - 1}")

    @property
    def m(self) -> int:
        return len(self.members)

    @property
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
            members = {int(tok) - 1 for tok in text.split(",") if tok.strip()}
        except ValueError as exc:
            raise ParseError(f"bad index set {text!r}") from exc
        if not members:
            raise ParseError(f"bad index set {text!r}")
        if not all(0 <= i < N for i in members):
            raise ParseError(f"index set {text!r} out of range 1..{N}")
        return cls(N, frozenset(members))


@dataclass(frozen=True)
class GramData:
    """Selected basis with its Gram matrix and exact inverse (Weingarten)."""

    basis: FixBasis
    gram: ExactMatrix
    weingarten: ExactMatrix


def _norm_word(spec: CategorySpec, word: str) -> str:
    """Cache key: colors are invisible to the self-conjugate families."""
    return word if not spec.self_conjugate else WHITE * len(word)


@cache
def _gram_data(family: str, n: int, word: str) -> GramData:
    spec = CategorySpec(family, n)
    basis = fix_basis(spec, word)
    parts = basis.selected
    d = len(parts)
    # join is commutative, so the Gram matrix is symmetric
    entries = [0] * (d * d)
    for a, pi in enumerate(parts):
        for b in range(a, d):
            entries[a * d + b] = entries[b * d + a] = n ** pi.join(parts[b]).block_count
    gram = ExactMatrix(d, d, entries)
    weingarten = invert(gram) if d else ExactMatrix(0, 0, ())
    return GramData(basis, gram, weingarten)


def gram_weingarten(spec: CategorySpec, word: str) -> GramData:
    """Gram matrix N**|join| on the selected basis and its exact inverse."""
    check_word(word)
    data = _gram_data(spec.family, spec.N, _norm_word(spec, word))
    if data.basis.word != word:
        data = replace(data, basis=replace(data.basis, word=word))
    return data


@cache
def _hits(family: str, n: int, word: str) -> tuple:
    """hits[flat index] = positions of selected basis vectors nonzero there,
    i.e. of the selected partitions that the index's kernel coarsens."""
    per_kernel = [[] for _ in all_partitions(len(word))]
    for pos, part in enumerate(_gram_data(family, n, word).basis.selected):
        for c in coarsenings(part):
            per_kernel[c].append(pos)
    per_kernel = [tuple(h) for h in per_kernel]  # one shared tuple per kernel
    return tuple(per_kernel[c] for c in kernel_ids(n, len(word)))


@cache
def _weingarten_rows(family: str, n: int, word: str) -> tuple:
    data = _gram_data(family, n, word)
    return tuple(data.weingarten.row(r) for r in range(data.weingarten.rows))


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
    hits = _hits(spec.family, n, norm)
    wrows = _weingarten_rows(spec.family, n, norm)
    col_hits = hits[flat_index(col, n)]
    acc = Fraction(0)
    for t in hits[flat_index(row, n)]:
        wrow = wrows[t]
        for u in col_hits:
            acc += wrow[u]
    return acc


@cache
def _projection(family: str, n: int, word: str) -> ExactMatrix:
    """P[i, j] depends on i and j only through their kernels: one sum per
    pair of kernels, read back through kernel_ids."""
    wrows = _weingarten_rows(family, n, word)
    kid = kernel_ids(n, len(word))
    per_kernel = dict(zip(kid, _hits(family, n, word)))
    expanded = {}
    for a, hits_a in per_kernel.items():
        colsum = [Fraction(0)] * len(wrows)
        for t in hits_a:
            colsum = [x + y for x, y in zip(colsum, wrows[t])]
        by_kernel = {b: sum((colsum[u] for u in h), Fraction(0)) for b, h in per_kernel.items()}
        expanded[a] = [by_kernel[b] for b in kid]
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
    data = gram_weingarten(spec, word)
    k = len(word)
    return [
        ScaledScalar(Fraction(I.m**part.block_count), k, I.m) for part in data.basis.selected
    ]


@cache
def _k_dot_weingarten(family: str, n: int, word: str, m: int) -> tuple:
    """kw[t] = sum_u K_q(u) * W[t, u], the rational part at scale m**(-k/2);
    K_q(u) = m**|pi_u| depends on I only through m = |I|."""
    kq = [m**part.block_count for part in _gram_data(family, n, word).basis.selected]
    return tuple(
        sum((w * q for w, q in zip(wrow, kq)), Fraction(0))
        for wrow in _weingarten_rows(family, n, word)
    )


def integrate_X(spec: CategorySpec, I: IndexSet, word: str, idx) -> ScaledScalar:
    """Haar moment of x_{idx[0]}^{e_1} ... x_{idx[k-1]}^{e_k} over the space.

    The result times m**(k/2) is always rational; the empty word gives 1.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    k = len(word)
    n = spec.N
    idx = check_index(idx, k, n, "index")
    norm = _norm_word(spec, word)
    kw = _k_dot_weingarten(spec.family, n, norm, I.m)
    hits = _hits(spec.family, n, norm)
    q = sum((kw[t] for t in hits[flat_index(idx, n)]), Fraction(0))
    return ScaledScalar(q, k, I.m)


def moment_table(spec: CategorySpec, I: IndexSet, words) -> dict:
    """All moments for the given words, keyed by (word, 0-based index tuple)."""
    table = {}
    for word in words:
        for idx in product(range(spec.N), repeat=len(word)):
            table[(word, idx)] = integrate_X(spec, I, word, idx)
    if ("", ()) in table and table[("", ())] != 1:
        raise AssertionError("empty-word moment must be exactly 1")
    return table


def ergodicity_check(spec: CategorySpec, I: IndexSet, word: str) -> dict:
    """Moment-level invariance: averaging the coaction equals integration.

    Verifies sum_j P[i, j] * M_j == m**(-k/2) * sum_{j in I^k} P[i, j] for
    every row i, where M_j is the space moment at j.  Exact; reports the
    first failing row, if any.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    n = spec.N
    k = len(word)
    norm = _norm_word(spec, word)
    P = _projection(spec.family, n, norm)
    hits = _hits(spec.family, n, norm)
    kw = _k_dot_weingarten(spec.family, n, norm, I.m)
    size = n**k
    moments = [
        sum((kw[t] for t in hits[j]), Fraction(0)) for j in range(size)
    ]
    i_flats = I.flat_indices(k)
    report = {
        "spec": str(spec),
        "I": str(I),
        "word": word,
        "passed": True,
        "counterexample": None,
    }
    for i in range(size):
        prow = P.row(i)
        lhs = sum((prow[j] * moments[j] for j in range(size) if moments[j]), Fraction(0))
        rhs = sum((prow[j] for j in i_flats), Fraction(0))
        if lhs != rhs:
            report["passed"] = False
            report["counterexample"] = {
                "row": [i // n ** (k - 1 - p) % n + 1 for p in range(k)],
                "lhs": ScaledScalar(lhs, k, I.m).to_json(),
                "rhs": ScaledScalar(rhs, k, I.m).to_json(),
            }
            break
    return report
