"""Brute-force ground truth: explicit finite matrix groups and group duals.

Classical oracles are finite groups of exact orthogonal matrices (permutation
and signed-permutation constructors ship; arbitrary rational generators load
from a JSON file).  Group duals realise C*(Gamma) through the left regular
representation of a finite Gamma, so the Haar state is the normalised trace
and every quantity stays rational.  Everything is exhaustive and exact.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .exact import (
    ClosureCapError,
    DomainError,
    ExactMatrix,
    ExactTensor,
    ParseError,
    ScaledScalar,
    check_index,
    flat_index,
    parse_fraction,
    rank,
    rank_nullspace,
)
from .frobenius import frobenius_to_hom
from .partitions import WHITE, check_word, conjugate_word
from .weingarten import IndexSet

DEFAULT_CLOSURE_CAP = 100_000
_CAP_ENV = "QHS_MAX_CLOSURE"


def closure_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CLOSURE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParseError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ParseError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def _is_orthogonal(mat: ExactMatrix) -> bool:
    return (mat * mat.transpose()).is_identity()


def monomial_form(g: ExactMatrix):
    """(row_of_column, value_of_column) tuples when every column of g has
    exactly one nonzero entry, else None."""
    rows = []
    vals = []
    for c in range(g.cols):
        nz = [(r, g.at(r, c)) for r in range(g.rows) if g.at(r, c) != 0]
        if len(nz) != 1:
            return None
        rows.append(nz[0][0])
        vals.append(nz[0][1])
    return tuple(rows), tuple(vals)


class OracleGroup:
    """A finite group of exact orthogonal N x N matrices, fully enumerated."""

    kind = "classical"

    def __init__(self, elements, name: str = "group", generators=None):
        elements = tuple(elements)
        if not elements:
            raise DomainError("a group needs at least the identity")
        n = elements[0].rows
        if any(g.rows != n or g.cols != n for g in elements):
            raise DomainError("elements must be square matrices of one size")
        if not any(g.is_identity() for g in elements):
            raise DomainError("identity matrix missing from element list")
        self.N = n
        self.elements = elements
        # The elements generate the group too; fixed points need only these.
        self.generators = elements if generators is None else tuple(generators)
        self.name = name
        self._moments = {}
        self._coords = {}
        self._fixed = {}
        self._monomial_forms = None
        self._monomial_checked = False

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"OracleGroup({self.name}, order={len(self.elements)}, N={self.N})"

    @classmethod
    def from_generators(cls, generators, name: str = "group", cap: int | None = None):
        """Breadth-first closure from the generators; insertion element order."""
        cap = closure_cap() if cap is None else cap
        generators = [g if isinstance(g, ExactMatrix) else ExactMatrix.from_rows(g) for g in generators]
        if not generators:
            n = 1
        else:
            n = generators[0].rows
        for g in generators:
            if g.rows != g.cols or g.rows != n:
                raise DomainError("generators must be square matrices of one size")
            if not _is_orthogonal(g):
                # orthogonality implies invertibility; report the sharper failure
                if rank(g) < n:
                    raise DomainError("non-invertible generator")
                raise DomainError("generator is not orthogonal")
        ident = ExactMatrix.identity(n)
        elements = [ident]
        seen = {ident}
        queue = deque([ident])
        while queue:
            cur = queue.popleft()
            for g in generators:
                nxt = cur * g
                if nxt not in seen:
                    if len(elements) >= cap:
                        raise ClosureCapError(
                            f"group closure exceeded the cap of {cap} elements"
                        )
                    seen.add(nxt)
                    elements.append(nxt)
                    queue.append(nxt)
        return cls(elements, name=name, generators=generators)

    @classmethod
    def symmetric(cls, n: int, cap: int | None = None) -> "OracleGroup":
        """All n x n permutation matrices (generated by adjacent swaps)."""
        return cls.from_generators(_adjacent_swaps(n), name=f"SN({n})", cap=cap)

    @classmethod
    def hyperoctahedral(cls, n: int, cap: int | None = None) -> "OracleGroup":
        """All signed permutation matrices."""
        gens = _adjacent_swaps(n)
        flip = [[(-1 if r == c == 0 else int(r == c)) for c in range(n)] for r in range(n)]
        gens.append(ExactMatrix.from_rows(flip))
        return cls.from_generators(gens, name=f"HN({n})", cap=cap)

    def monomial_forms(self):
        """Per element its monomial_form, or None if some element has none."""
        if self._monomial_checked:
            return self._monomial_forms
        forms = []
        for g in self.elements:
            form = monomial_form(g)
            if form is None:
                forms = None
                break
            forms.append(form)
        self._monomial_forms = forms
        self._monomial_checked = True
        return forms

    def moment_table(self, k: int) -> dict:
        """Sparse {(flat_row, flat_col): moment} for words of length k.

        Conjugation is the identity on real rational entries, so the table
        only depends on the word length.
        """
        if k in self._moments:
            return self._moments[k]
        n = self.N
        order = len(self.elements)
        counts = {}
        forms = self.monomial_forms()
        if forms is not None:
            for rows, vals in forms:
                for j in product(range(n), repeat=k):
                    val = 1
                    for t in j:
                        val *= vals[t]
                    fi = flat_index((rows[t] for t in j), n)
                    key = (fi, flat_index(j, n))
                    counts[key] = counts.get(key, 0) + val
        else:
            for g in self.elements:
                for i in product(range(n), repeat=k):
                    for j in product(range(n), repeat=k):
                        val = 1
                        for a, b in zip(i, j):
                            val *= g.at(a, b)
                            if val == 0:
                                break
                        if val:
                            key = (flat_index(i, n), flat_index(j, n))
                            counts[key] = counts.get(key, 0) + val
        table = {
            key: Fraction(val, order) for key, val in counts.items() if val != 0
        }
        self._moments[k] = table
        return table

    def coordinate_table(self, I: IndexSet) -> tuple:
        """Per element g the vector c with c_i = sum_{j in I} g_{ij};
        the space coordinate is x_i(g) = c_i / sqrt(m)."""
        I.require_N(self.N, "group")
        key = I.sorted_members
        if key not in self._coords:
            cols = key
            self._coords[key] = tuple(
                tuple(sum(g.at(i, j) for j in cols) for i in range(self.N))
                for g in self.elements
            )
        return self._coords[key]


def _adjacent_swaps(n: int) -> list:
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(_permutation_matrix(perm))
    return gens


def _permutation_matrix(perm) -> ExactMatrix:
    n = len(perm)
    return ExactMatrix(n, n, (int(perm[c] == r) for r in range(n) for c in range(n)))


class GroupDualData:
    """A finite group Gamma with N marked generators, used through its dual.

    The Haar state is 1 on words reducing to the identity and 0 otherwise,
    i.e. the normalised trace of the left regular representation.
    """

    kind = "group-dual"

    def __init__(self, elements, multiply, invert, identity, generators, name="dual"):
        self.elements = tuple(elements)
        self.multiply = multiply
        self.invert = invert
        self.identity = identity
        self.generators = tuple(generators)
        self.name = name
        self.index = {el: i for i, el in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise DomainError("duplicate group elements")
        if identity not in self.index:
            raise DomainError("identity missing from element list")
        if any(g not in self.index for g in self.generators):
            raise DomainError("generators must be group elements")
        if len(self.subgroup(self.generators)) != len(self.elements):
            raise DomainError("generators do not generate the group")
        self._fixed = {}
        self._regular = {}

    @property
    def N(self) -> int:
        return len(self.generators)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroupDualData({self.name}, order={len(self.elements)}, N={self.N})"

    def subgroup(self, gens) -> list:
        """Closure of gens under multiplication (deterministic insertion order)."""
        out = [self.identity]
        seen = {self.identity}
        queue = deque([self.identity])
        while queue:
            cur = queue.popleft()
            for g in gens:
                nxt = self.multiply(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    out.append(nxt)
                    queue.append(nxt)
        return out

    def normal_closure(self, gens) -> list:
        conjugates = []
        seen = set()
        for h in self.elements:
            hinv = self.invert(h)
            for g in gens:
                c = self.multiply(self.multiply(h, g), hinv)
                if c not in seen:
                    seen.add(c)
                    conjugates.append(c)
        return self.subgroup(conjugates)

    def word_value(self, word: str, idx):
        """The element g_{idx[0]}^{+-1} ... g_{idx[k-1]}^{+-1}; black inverts."""
        acc = self.identity
        for ch, i in zip(word, idx):
            g = self.generators[i]
            acc = self.multiply(acc, g if ch == WHITE else self.invert(g))
        return acc

    def regular_matrix(self, el) -> ExactMatrix:
        """Left regular representation: column h maps to row el*h."""
        if el not in self._regular:
            size = len(self.elements)
            entries = [0] * (size * size)
            for c, h in enumerate(self.elements):
                entries[self.index[self.multiply(el, h)] * size + c] = 1
            self._regular[el] = ExactMatrix(size, size, entries)
        return self._regular[el]


def dual_z2(n: int) -> GroupDualData:
    """Gamma = Z_2^n with the coordinate generators."""
    if n < 1:
        raise ParseError("dualZ2 needs n >= 1")
    elements = list(product((0, 1), repeat=n))
    gens = [tuple(int(i == t) for i in range(n)) for t in range(n)]
    xor = lambda a, b: tuple(x ^ y for x, y in zip(a, b))
    return GroupDualData(
        elements, xor, lambda a: a, (0,) * n, gens, name=f"dualZ2({n})"
    )


def dual_s3(pairs) -> GroupDualData:
    """Gamma = S_3 with three listed transposition generators.

    Each pair is a 2-subset of {1,2,3} (1-based), e.g. (1,2).
    """
    pairs = [tuple(sorted(p)) for p in pairs]
    if len(pairs) != 3:
        raise ParseError("dualS3 needs exactly three transpositions")
    elements = sorted(permutations(range(3)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inverse(a):
        out = [0, 0, 0]
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    gens = []
    for a, b in pairs:
        if not (1 <= a < b <= 3):
            raise ParseError(f"bad transposition ({a},{b}); expected a 2-subset of 1..3")
        perm = list(range(3))
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
        gens.append(tuple(perm))
    return GroupDualData(
        elements, compose, inverse, (0, 1, 2), gens,
        name="dualS3(" + ",".join(f"{a}{b}" for a, b in pairs) + ")",
    )


def build_group(text: str, cap: int | None = None) -> OracleGroup:
    """Parse a classical group literal: SN(n), HN(n), or gens(file.json)."""
    text = text.strip()
    match = re.fullmatch(r"SN\((\d+)\)", text)
    if match:
        return OracleGroup.symmetric(int(match.group(1)), cap=cap)
    match = re.fullmatch(r"HN\((\d+)\)", text)
    if match:
        return OracleGroup.hyperoctahedral(int(match.group(1)), cap=cap)
    match = re.fullmatch(r"gens\((.+)\)", text)
    if match:
        path = match.group(1).strip()
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        try:
            gens = [
                ExactMatrix.from_rows(
                    [[parse_fraction(str(x)) for x in row] for row in mat]
                )
                for mat in data
            ]
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"{path} must hold a list of rectangular matrices of rationals"
            ) from exc
        return OracleGroup.from_generators(gens, name=f"gens({path})", cap=cap)
    raise ParseError(f"bad group literal {text!r}; expected SN(n), HN(n) or gens(file)")


def parse_oracle(text: str, cap: int | None = None):
    """Parse any oracle literal, classical or dual."""
    text = text.strip()
    match = re.fullmatch(r"dualZ2\((\d+)\)", text)
    if match:
        return dual_z2(int(match.group(1)))
    match = re.fullmatch(r"dualS3\(([\d,]+)\)", text)
    if match:
        tokens = [tok for tok in match.group(1).split(",") if tok]
        if len(tokens) != 3 or any(len(tok) != 2 for tok in tokens):
            raise ParseError(
                f"bad dualS3 literal {text!r}; expected dualS3(12,13,23)"
            )
        pairs = [(int(tok[0]), int(tok[1])) for tok in tokens]
        return dual_s3(pairs)
    return build_group(text, cap=cap)


def brute_integrate_G(group: OracleGroup, word: str, row, col) -> Fraction:
    """Haar moment by uniform averaging over the full element list."""
    if not isinstance(group, OracleGroup):
        raise DomainError("wrong kind: classical averaging needs a matrix group")
    check_word(word)
    k = len(word)
    row = check_index(row, k, group.N, "row index")
    col = check_index(col, k, group.N, "column index")
    table = group.moment_table(k)
    return table.get((flat_index(row, group.N), flat_index(col, group.N)), Fraction(0))


def dual_integrate_G(dual: GroupDualData, word: str, row, col) -> Fraction:
    """Dual moments: off-diagonal entries vanish, diagonal ones reduce words."""
    check_word(word)
    k = len(word)
    row = check_index(row, k, dual.N, "row index")
    col = check_index(col, k, dual.N, "column index")
    if row != col:
        return Fraction(0)
    return Fraction(int(dual.word_value(word, row) == dual.identity))


def averaging_operator(source, word: str) -> ExactMatrix:
    """The Haar average of the word's tensor representation, as a matrix."""
    check_word(word)
    k = len(word)
    n = source.N
    size = n**k
    if isinstance(source, OracleGroup):
        table = source.moment_table(k)
        entries = [0] * (size * size)
        for (fi, fj), val in table.items():
            entries[fi * size + fj] = val
        return ExactMatrix(size, size, entries)
    entries = [0] * (size * size)
    for flat, idx in enumerate(product(range(n), repeat=k)):
        if source.word_value(word, idx) == source.identity:
            entries[flat * size + flat] = 1
    return ExactMatrix(size, size, entries)


def fixed_space(source, word: str) -> list:
    """Exact basis of the invariant vectors: nullspace of (average - identity)."""
    check_word(word)
    key = WHITE * len(word) if isinstance(source, OracleGroup) else word
    if key in source._fixed:
        return source._fixed[key]
    n = source.N
    k = len(word)
    op = averaging_operator(source, key)
    delta = op - ExactMatrix.identity(op.rows)
    _, basis, _ = rank_nullspace(delta)
    tensors = [ExactTensor((n,) * k, vec) for vec in basis]
    source._fixed[key] = tensors
    return tensors


def hom_space(source, k_word: str, l_word: str) -> list:
    """Intertwiner basis, derived from the fixed vectors of l + conjugate(k)."""
    fix_word = l_word + conjugate_word(k_word)
    return [
        frobenius_to_hom(xi, k_word, l_word, source.N)
        for xi in fixed_space(source, fix_word)
    ]


def orbit_moment(group: OracleGroup, I: IndexSet, word: str, idx) -> ScaledScalar:
    """Moment of the coordinates x_i(g) = (g xi_I)_i, averaged over the group."""
    if not isinstance(group, OracleGroup):
        raise DomainError("wrong kind: orbit moments need a classical matrix group")
    check_word(word)
    k = len(word)
    idx = check_index(idx, k, group.N)
    coords = group.coordinate_table(I)
    total = 0
    for c in coords:
        term = 1
        for t in idx:
            ct = c[t]
            if ct == 0:
                term = 0
                break
            term *= ct
        total += term
    return ScaledScalar(Fraction(total, len(group.elements)), k, I.m)


def dual_X_moment(dual: GroupDualData, I: IndexSet, word: str, idx) -> ScaledScalar:
    """Moments over the dual of the subgroup generated by {g_i : i in I}."""
    check_word(word)
    I.require_N(dual.N, "dual")
    k = len(word)
    idx = check_index(idx, k, dual.N)
    if any(t not in I.members for t in idx):
        return ScaledScalar(Fraction(0), 0, I.m)
    hit = dual.word_value(word, idx) == dual.identity
    return ScaledScalar(Fraction(int(hit)), k, I.m)


def dual_matrix_moment(dual: GroupDualData, I: IndexSet, word: str, idx) -> ScaledScalar:
    """The same moment computed the long way: multiply the regular-representation
    blocks X_i = lambda(g_i)/sqrt(m) and take the normalised trace."""
    check_word(word)
    I.require_N(dual.N, "dual")
    k = len(word)
    idx = check_index(idx, k, dual.N)
    size = len(dual.elements)
    acc = ExactMatrix.identity(size)
    for ch, i in zip(word, idx):
        if i not in I.members:
            acc = ExactMatrix.zeros(size, size)
            break
        g = dual.generators[i]
        block = dual.regular_matrix(g if ch == WHITE else dual.invert(g))
        acc = acc * block
    trace = sum(acc.at(r, r) for r in range(size))
    return ScaledScalar(Fraction(trace, size), k, I.m)


def normal_closure_compare(dual: GroupDualData, I: IndexSet) -> dict:
    """Orders of <g_i : i in I> and of its normal closure; proper iff distinct."""
    I.require_N(dual.N, "dual")
    gens = [dual.generators[i] for i in I.sorted_members]
    sub = dual.subgroup(gens)
    closure = dual.normal_closure(gens)
    return {
        "group": dual.name,
        "I": str(I),
        "subgroup_order": len(sub),
        "normal_closure_order": len(closure),
        "proper": len(sub) != len(closure),
    }


@dataclass(frozen=True)
class OracleRealization:
    """Concrete coordinates for a homogeneous space over an oracle.

    Classical: x_i evaluates on each group element as (g xi_I)_i.  Dual:
    X_i = delta_{i in I} lambda(g_i) / sqrt(m).  The sphere normalisation
    sum_i x_i x_i^* = 1 is verified on construction (over the nonzero
    coordinates in the dual case).
    """

    source: object
    I: IndexSet

    def __post_init__(self):
        self.I.require_N(self.source.N, "oracle")
        if isinstance(self.source, OracleGroup):
            m = self.I.m
            for c in self.source.coordinate_table(self.I):
                if sum(x * x for x in c) != m:
                    raise DomainError("sphere normalisation fails on the oracle")
        else:
            dual = self.source
            for i in self.I.sorted_members:
                g = dual.generators[i]
                if dual.multiply(g, dual.invert(g)) != dual.identity:
                    raise DomainError("sphere normalisation fails on the dual")

    @property
    def N(self) -> int:
        return self.source.N

    @property
    def classical(self) -> bool:
        return isinstance(self.source, OracleGroup)

    def moment(self, word: str, idx) -> ScaledScalar:
        if self.classical:
            return orbit_moment(self.source, self.I, word, idx)
        return dual_X_moment(self.source, self.I, word, idx)
