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
from .partitions import CategorySpec, FixBasis, WHITE, check_word, fix_basis


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
    sel = basis.selected
    d = len(sel)
    entries = []
    for pi, _ in sel:
        for sigma, _ in sel:
            entries.append(n ** pi.join(sigma).block_count)
    gram = ExactMatrix(d, d, entries)
    weingarten = invert(gram) if d else ExactMatrix(0, 0, ())
    if d and not (weingarten * gram).is_identity():
        raise AssertionError("weingarten inverse failed exactness check")
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
    """hits[flat index] = positions of selected basis vectors nonzero there."""
    data = _gram_data(family, n, word)
    k = len(word)
    out = [[] for _ in range(n**k)]
    for pos, (_part, vec) in enumerate(data.basis.selected):
        for flat, val in enumerate(vec.entries):
            if val:
                out[flat].append(pos)
    return tuple(tuple(h) for h in out)


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
    hits = _hits(family, n, word)
    wrows = _weingarten_rows(family, n, word)
    size = n ** len(word)
    out = []
    for i in range(size):
        hi = hits[i]
        for j in range(size):
            hj = hits[j]
            acc = Fraction(0)
            for t in hi:
                wrow = wrows[t]
                for u in hj:
                    acc += wrow[u]
            out.append(acc)
    return ExactMatrix(size, size, out)


def projection_P(spec: CategorySpec, word: str) -> ExactMatrix:
    """The N^k x N^k Haar projection onto the word's invariant vectors."""
    check_word(word)
    return _projection(spec.family, spec.N, _norm_word(spec, word))


def K_vector(spec: CategorySpec, word: str, I: IndexSet) -> list:
    """Per selected basis vector: m**(-k/2) times its entry sum over I^k.

    Entrywise conjugation is the identity here (rational entries), so the
    sum is a plain integer count.
    """
    check_word(word)
    I.require_N(spec.N, "spec")
    data = gram_weingarten(spec, word)
    k = len(word)
    out = []
    for _part, vec in data.basis.selected:
        q = 0
        for b in product(I.sorted_members, repeat=k):
            q += vec.entries[flat_index(b, spec.N)]
        out.append(ScaledScalar(Fraction(q), k, I.m))
    return out


@cache
def _k_dot_weingarten(family: str, n: int, word: str, members: tuple) -> tuple:
    """kw[t] = sum_u K_q(u) * W[t, u], the rational part at scale m**(-k/2)."""
    spec = CategorySpec(family, n)
    I = IndexSet.of(n, members)
    kq = [sc.rescale(len(word)) for sc in K_vector(spec, word, I)]
    wrows = _weingarten_rows(family, n, word)
    return tuple(
        sum((wrow[u] * kq[u] for u in range(len(kq)) if kq[u]), Fraction(0))
        for wrow in wrows
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
    kw = _k_dot_weingarten(spec.family, n, norm, I.sorted_members)
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
    kw = _k_dot_weingarten(spec.family, n, norm, I.sorted_members)
    size = n**k
    moments = [
        sum((kw[t] for t in hits[j]), Fraction(0)) for j in range(size)
    ]
    i_flats = [flat_index(b, n) for b in product(I.sorted_members, repeat=k)]
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
            row = _unflatten(i, n, k)
            report["passed"] = False
            report["counterexample"] = {
                "row": [p + 1 for p in row],
                "lhs": ScaledScalar(lhs, k, I.m).to_json(),
                "rhs": ScaledScalar(rhs, k, I.m).to_json(),
            }
            break
    return report


def _unflatten(flat: int, n: int, k: int) -> tuple:
    out = []
    for _ in range(k):
        flat, r = divmod(flat, n)
        out.append(r)
    return tuple(reversed(out))
