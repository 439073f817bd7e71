"""Brute-force ground truth: explicit finite matrix groups and group duals.

Classical oracles are finite groups of exact orthogonal matrices (permutation
and signed-permutation constructors ship; arbitrary rational generators load
from a JSON file).  Group duals realise C*(Gamma) through the left regular
representation of a finite Gamma, so the Haar state is the normalised trace
and every quantity stays rational.  Everything is exhaustive and exact.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, permutations, product
from math import prod
from types import MappingProxyType

from .exact import (
    ClosureCapError,
    DomainError,
    ExactMatrix,
    Frozen,
    ParseError,
    ScaledScalar,
    check_index,
    flat_index,
    parse_fraction,
    rank,
    rank_nullspace,
)
from .partitions import WHITE, check_dense, check_word, partition_support
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


def _closure(identity, generators, multiply, cap=None) -> list:
    """Breadth-first closure of the generators under multiply, in insertion
    order (the list is its own queue); ClosureCapError past cap elements."""
    out = [identity]
    seen = {identity}
    for cur in out:
        for g in generators:
            nxt = multiply(cur, g)
            if nxt not in seen:
                if cap is not None and len(out) >= cap:
                    raise ClosureCapError(f"group closure exceeded the cap of {cap} elements")
                seen.add(nxt)
                out.append(nxt)
    return out


def _is_orthogonal(mat: ExactMatrix) -> bool:
    return (mat * mat.transpose()).is_identity()


def tensor_entries(g: ExactMatrix, k: int) -> tuple:
    """The nonzero entries of g tensor ... tensor g (k factors) as aligned
    lists (rows, cols, vals) of flat indices, (0, 0, 1) at k = 0.  g's
    entries are taken column by column, so a g with one per column gives
    cols = 0, 1, ..., N^k - 1 and its signed index map in (rows, vals)."""
    n = g.rows
    cells = [(r, c, g.at(r, c)) for c in range(n) for r in range(n) if g.at(r, c)]
    rows, cols, vals = [0], [0], [1]
    for _ in range(k):
        rows = [f * n + r for f in rows for r, _, _ in cells]
        cols = [f * n + c for f in cols for _, c, _ in cells]
        vals = [x * v for x in vals for _, _, v in cells]
    return rows, cols, vals


class OracleGroup(Frozen):
    """A finite group of exact orthogonal N x N matrices, fully enumerated.

    A value, equal and hashed by its generators: the breadth-first closure
    of from_generators makes the elements and their order a function of
    them, so equal oracles share every cached table.  The hash is computed
    once, as the method caches hash the oracle on every call.
    """

    def __init__(self, generators: tuple, elements: tuple, name: str = "group"):
        if not elements:
            raise DomainError("a group needs at least the identity")
        n = elements[0].rows
        if any(g.rows != n or g.cols != n for g in elements):
            raise DomainError("elements must be square matrices of one size")
        if not any(g.is_identity() for g in elements):
            raise DomainError("identity matrix missing from element list")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self):
        return (self.generators,)

    def __hash__(self):
        return self._hash

    @property
    def N(self) -> int:
        return self.elements[0].rows

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"OracleGroup({self.name}, order={len(self.elements)}, N={self.N})"

    @classmethod
    def from_generators(cls, generators, name: str = "group"):
        """Breadth-first closure from the generators; insertion element order.
        Monomial generators with int entries (as SN and HN build them) close
        over their signed column maps, composed as the matrix product, and
        each element's matrix is built once at the end; any other set (a
        gens(file) literal's Fraction entries too) over matrix products."""
        cap = closure_cap()
        generators = [g if isinstance(g, ExactMatrix) else ExactMatrix.from_rows(g) for g in generators]
        n = generators[0].rows if generators else 1
        for g in generators:
            if g.rows != g.cols or g.rows != n:
                raise DomainError("generators must be square matrices of one size")
            if not _is_orthogonal(g):
                # orthogonality implies invertibility; report the sharper failure
                if rank(g) < n:
                    raise DomainError("non-invertible generator")
                raise DomainError("generator is not orthogonal")
        maps = [_signed_map(g) for g in generators]
        if all(maps):  # compose(a, b) is the signed map of the matrix product a b
            compose = lambda a, b: tuple(a[s - 1] if s > 0 else -a[-s - 1] for s in b)
            elements = map(_map_matrix, _closure(tuple(range(1, n + 1)), maps, compose, cap))
        else:
            elements = _closure(ExactMatrix.identity(n), generators, ExactMatrix.__mul__, cap)
        return cls(tuple(generators), tuple(elements), name)

    @classmethod
    def symmetric(cls, n: int) -> "OracleGroup":
        """All n x n permutation matrices (generated by adjacent swaps)."""
        return cls.from_generators(_adjacent_swaps(n, "SN"), name=f"SN({n})")

    @classmethod
    def hyperoctahedral(cls, n: int) -> "OracleGroup":
        """All signed permutation matrices."""
        gens = _adjacent_swaps(n, "HN")
        flip = [[(-1 if r == c == 0 else int(r == c)) for c in range(n)] for r in range(n)]
        gens.append(ExactMatrix.from_rows(flip))
        return cls.from_generators(gens, name=f"HN({n})")

    @cache
    def moment_table(self, k: int) -> dict:
        """Sparse {(flat_row, flat_col): moment} for words of length k.

        Conjugation is the identity on real rational entries, so the table
        only depends on the word length.
        """
        counts = {}
        for g in self.elements:
            rows, cols, vals = tensor_entries(g, k)
            for key, val in zip(zip(rows, cols), vals):
                counts[key] = counts.get(key, 0) + val
        order = len(self.elements)
        return {key: Fraction(val, order) for key, val in counts.items() if val != 0}

    @cache
    def coordinate_table(self, I: IndexSet) -> tuple:
        """Per element g the vector c with c_i = sum_{j in I} g_{ij};
        the space coordinate is x_i(g) = c_i / sqrt(m)."""
        I.require_N(self.N, "group")
        n, m = self.N, I.m
        # the flat positions of the entries (i, j), j in I, row by row
        flats = [i * n + j for i in range(n) for j in I.sorted_members]
        # one iterator zipped with itself m times yields each row's m entries
        return tuple(
            tuple(map(sum, zip(*[map(g.entries.__getitem__, flats)] * m))) for g in self.elements
        )


def _signed_map(g: ExactMatrix):
    """g e_c = v(c) e_sigma(c) as s[c] = v(c) (sigma(c) + 1), when g is
    monomial with int entries; None otherwise."""
    rows, _, vals = tensor_entries(g, 1)
    if _monomial(g) and all(type(v) is int for v in vals):
        return tuple(v * (r + 1) for r, v in zip(rows, vals))
    return None


def _map_matrix(s: tuple) -> ExactMatrix:
    """The int matrix of a signed column map."""
    n = len(s)
    entries = [0] * (n * n)
    for c, x in enumerate(s):
        entries[(abs(x) - 1) * n + c] = 1 if x > 0 else -1
    return ExactMatrix(n, n, entries)


def _adjacent_swaps(n: int, family: str) -> list:
    if n < 1:
        raise ParseError(f"{family} needs n >= 1")
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
    i.e. the normalised trace of the left regular representation.  Immutable;
    multiply and invert are functions, so a dual is equal only to itself and
    its cached tables are keyed by identity.  index maps each element to its
    position, read-only.
    """

    __slots__ = ("elements", "multiply", "invert", "identity", "generators", "name", "index")

    def __init__(self, elements, multiply, invert, identity, generators, name="dual"):
        elements = tuple(elements)
        index = MappingProxyType({el: i for i, el in enumerate(elements)})
        values = (elements, multiply, invert, identity, tuple(generators), name, index)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)
        if len(index) != len(elements):
            raise DomainError("duplicate group elements")
        if identity not in index:
            raise DomainError("identity missing from element list")
        if any(g not in index for g in self.generators):
            raise DomainError("generators must be group elements")
        if len(self.subgroup(self.generators)) != len(elements):
            raise DomainError("generators do not generate the group")

    def __setattr__(self, name, value):
        raise AttributeError("GroupDualData is immutable")

    @property
    def N(self) -> int:
        return len(self.generators)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroupDualData({self.name}, order={len(self.elements)}, N={self.N})"

    def subgroup(self, gens) -> list:
        """Closure of gens under multiplication (deterministic insertion order)."""
        return _closure(self.identity, gens, self.multiply)

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

    def word_values(self, word: str, members=None) -> list:
        """word_value at every index tuple over members (default: all N
        generators), in flat order: prefix products, one multiply per node
        of the prefix tree."""
        gens = self.generators if members is None else [self.generators[i] for i in members]
        values = [self.identity]
        for ch in word:
            steps = gens if ch == WHITE else [self.invert(g) for g in gens]
            values = [self.multiply(acc, step) for acc in values for step in steps]
        return values

    @cache
    def regular_matrix(self, el) -> ExactMatrix:
        """Left regular representation: column h maps to row el*h."""
        size = len(self.elements)
        entries = [0] * (size * size)
        for c, h in enumerate(self.elements):
            entries[self.index[self.multiply(el, h)] * size + c] = 1
        return ExactMatrix(size, size, entries)


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


def build_group(text: str) -> OracleGroup:
    """Parse a classical group literal: SN(n), HN(n), or gens(file.json)."""
    text = text.strip()
    match = re.fullmatch(r"SN\((\d+)\)", text)
    if match:
        return OracleGroup.symmetric(int(match.group(1)))
    match = re.fullmatch(r"HN\((\d+)\)", text)
    if match:
        return OracleGroup.hyperoctahedral(int(match.group(1)))
    match = re.fullmatch(r"gens\((.+)\)", text)
    if match:
        import json

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
        if not gens or any(g.rows == 0 for g in gens):
            raise ParseError(f"{path} must hold at least one generator of size N >= 1")
        return OracleGroup.from_generators(gens, name=f"gens({path})")
    raise ParseError(f"bad group literal {text!r}; expected SN(n), HN(n) or gens(file)")


def parse_oracle(text: str):
    """Parse any oracle literal, classical or dual."""
    text = text.strip()
    match = re.fullmatch(r"dualZ2\((\d+)\)", text)
    if match:
        return dual_z2(int(match.group(1)))
    match = re.fullmatch(r"dualS3\(([\d,]+)\)", text)
    if match:
        tokens = match.group(1).split(",")
        if len(tokens) != 3 or any(len(tok) != 2 for tok in tokens):
            raise ParseError(
                f"bad dualS3 literal {text!r}; expected dualS3(12,13,23)"
            )
        pairs = [(int(tok[0]), int(tok[1])) for tok in tokens]
        return dual_s3(pairs)
    if re.match(r"(SN|HN|gens)\(", text):
        return build_group(text)
    raise ParseError(
        f"bad oracle literal {text!r}; expected SN(n), HN(n), gens(file), dualZ2(n)"
        " or dualS3(ab,ac,bc)"
    )


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


def fixed_space(source, word: str) -> tuple:
    """Exact basis of the invariant vectors, as N^k x 1 columns: the
    canonical nullspace basis of (average - identity).  Classically that is
    the common solution space of x = g^(tensor k) x over the generators,
    with no |G| factor: by signed orbits when every generator is monomial,
    by the nullspace of the stacked rows g^(tensor k) - I otherwise.  A
    dual's average is diagonal, so its basis is the unit vectors at the
    indices whose word value is e, in flat order.  Cached by the oracle and
    the word (only its length, classically)."""
    check_word(word)
    if isinstance(source, OracleGroup):
        word = WHITE * len(word)
    return _fixed_space(source, word)


@cache
def _fixed_space(source, word: str) -> tuple:
    """`fixed_space` of a checked word: `_orbit_basis` when every generator
    is monomial (`_monomial`), `_stacked_basis` for any other classical
    generator set, each guarded before it allocates; a dual's unit vectors."""
    k = len(word)
    size = source.N**k
    if isinstance(source, OracleGroup):
        solve = _orbit_basis if all(map(_monomial, source.generators)) else _stacked_basis
        basis = solve(source.generators, source.N, k)
    else:
        hits = [f for f, value in enumerate(source.word_values(word)) if value == source.identity]
        basis = [(0,) * hit + (1,) + (0,) * (size - hit - 1) for hit in hits]
    return tuple(ExactMatrix(size, 1, vec) for vec in basis)


def _orbit_basis(generators, n: int, k: int) -> list:
    """`_stacked_basis` of monomial generators, by signed orbits.  Each orbit
    of the flat indices, seeded at its smallest index with +1, grows
    breadth-first by x[img[h]] = val[h] x[h] over every generator, each
    constraint visited once: a sign conflict gives no vector, any other
    orbit one +-1 vector.  Listed by the orbit's largest index, the
    canonical nullspace order.  Guarded on N^k, then on the dense basis."""
    size = n**k
    check_dense(size, f"the signed orbits on N^k = {n}^{k}")
    actions = [tensor_entries(g, k) for g in generators]
    sign = [0] * size  # 0 until the index is reached
    orbits = []
    for seed in range(size):
        if sign[seed]:
            continue
        sign[seed] = 1
        orbit = [seed]
        consistent = True
        for h in orbit:  # the list is its own queue
            for img, _, vals in actions:
                t = img[h]
                x = -sign[h] if vals[h] < 0 else sign[h]
                if not sign[t]:
                    sign[t] = x
                    orbit.append(t)
                elif sign[t] != x:
                    consistent = False
        if consistent:
            orbits.append(orbit)
    orbits.sort(key=max)
    check_dense(len(orbits) * size, f"a basis of {len(orbits)} vectors on N^k = {n}^{k}")
    basis = []
    for orbit in orbits:
        vec = [0] * size
        for flat in orbit:
            vec[flat] = sign[flat]
        basis.append(vec)
    return basis


def _stacked_basis(generators, n: int, k: int) -> list:
    """The canonical nullspace basis of the generators' stacked rows
    g^(tensor k) - I: any generator set, and the reference `_orbit_basis`
    is checked against.  Guarded on its |gens| N^2k entries before they
    exist."""
    size = n**k
    check_dense(len(generators) * size * size, f"the stacked generator rows on N^k = {n}^{k}")
    # generator t's rows g^(tensor k) - I start at row t * size
    stacked = [0] * (len(generators) * size * size)
    for t, g in enumerate(generators):
        rows, cols, vals = tensor_entries(g, k)
        for r, c, val in zip(rows, cols, vals):
            stacked[(t * size + r) * size + c] = val
        for f in range(size):
            stacked[(t * size + f) * size + f] -= 1
    return rank_nullspace(ExactMatrix(len(generators) * size, size, stacked))[1]


def fixes(source, word: str, vectors) -> bool:
    """Whether the oracle fixes every vector over N^k in vectors, exactly;
    each is given sparse, as aligned (flats, values) of its nonzero entries.

    A vector fixed by each generator is fixed by the whole group, so a
    classical oracle is checked on its generators.  A generator with one
    entry per column (`tensor_entries` at k = 1) moves a vector through the
    signed index map of its entries at k, checked on the vector's support
    only: a bijection of flat indices that maps the support into itself maps
    it onto itself.  Any other is applied one tensor axis at a time, since
    its full expansion holds nnz(g)^k entries.  A dual fixes a vector iff
    its word values (read once) are e at every index of the support.
    """
    check_word(word)
    n, k = source.N, len(word)
    check_dense(n**k, f"the oracle's action on N^k = {n}^{k}")  # each path reads N^k entries
    if not isinstance(source, OracleGroup):
        values = source.word_values(word)
        return all(values[f] == source.identity for flats, _ in vectors for f in flats)
    actions = [tensor_entries(g, k) if _monomial(g) else None for g in source.generators]
    for flats, vals in vectors:
        at = dict(zip(flats, vals))
        dense = None if all(actions) else [at.get(f, 0) for f in range(n**k)]
        for g, action in zip(source.generators, actions):
            if action is None:
                if _apply_tensor_power(g, dense, n, k) != dense:
                    return False
                continue
            img, _, sign = action
            if {img[f]: sign[f] * v for f, v in at.items()} != at:
                return False
    return True


def fixes_partitions(source, word: str, parts) -> bool:
    """Whether the oracle fixes the vector xi_pi of each partition in parts.
    A monomial g, g e_c = v(c) e_sigma(c), maps each index to one of the
    same kernel, so it maps the support of xi_pi onto itself, with sign
    prod_B v(x_B)^|B| at the index of value x_B on block B.  The factors
    are nonzero, so g fixes xi_pi iff each v^|B| is one constant over [N]
    and the constants multiply to 1 (-I: iff k is even); a classical oracle
    of monomial generators is decided so, exactly, in O(N |pi|) per
    generator and partition.  Any other pushes the supports (`fixes`)."""
    check_word(word)
    n, k = source.N, len(word)
    check_dense(n**k, f"the oracle's action on N^k = {n}^{k}")  # as fixes, on either path
    if isinstance(source, OracleGroup) and all(map(_monomial, source.generators)):
        signs = [tensor_entries(g, 1)[2] for g in source.generators]
        return all(_block_signs_fix(v, part) for v in signs for part in parts)
    supports = (partition_support(part, n) for part in parts)
    return fixes(source, word, ((flats, [1] * len(flats)) for flats in supports))


def _monomial(g: ExactMatrix) -> bool:
    """Whether g e_c = v(c) e_sigma(c), one entry per column: the one monomial
    test; `tensor_entries(g, 1)`'s vals are then the v(c) in column order."""
    return tensor_entries(g, 1)[1] == list(range(g.rows))


def _block_signs_fix(signs, part) -> bool:
    """Whether prod_B v(x_B)^|B| is 1 at every choice of the x_B (v: signs)."""
    powers = [{v ** len(block) for v in signs} for block in part.blocks]
    return all(len(p) == 1 for p in powers) and prod(p.pop() for p in powers) == 1


def _apply_tensor_power(g: ExactMatrix, entries, n: int, k: int) -> list:
    """Push a flat N^k tensor through g tensor ... tensor g, one axis at a time."""
    columns = [[(r, g.at(r, c)) for r in range(n) if g.at(r, c)] for c in range(n)]
    out = list(entries)
    for axis in range(k):
        stride = n**axis
        moved = [0] * len(out)
        for flat, val in enumerate(out):
            if val:
                c = flat // stride % n
                base = flat - c * stride
                for r, coeff in columns[c]:
                    moved[base + r * stride] += coeff * val
        out = moved
    return out


def hom_dimension(source, k_word: str, l_word: str):
    """dim Hom(k, l) counted without any fixed vector.  Classically the
    character average (1/|G|) sum_g tr(g)^(|k|+|l|); on a dual the pairs
    (b, c) with l(b) = k(c), that is sum over gamma of #{b: l(b) = gamma}
    times #{c: k(c) = gamma}."""
    check_word(k_word)
    check_word(l_word)
    if isinstance(source, OracleGroup):
        power = len(k_word) + len(l_word)
        traces = (sum(g.entries[:: source.N + 1]) for g in source.elements)
        return Fraction(sum(t**power for t in traces), len(source.elements))
    k_values = Counter(source.word_values(k_word))
    l_values = Counter(source.word_values(l_word))
    return sum(count * l_values[value] for value, count in k_values.items())


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


class OracleRealization(Frozen):
    """Concrete coordinates for a homogeneous space over an oracle.

    Classical: x_i evaluates on each group element as (g xi_I)_i.  Dual:
    X_i = delta_{i in I} lambda(g_i) / sqrt(m).  The sphere normalisation
    sum_i x_i x_i^* = 1 is verified on construction (over the nonzero
    coordinates in the dual case).
    """

    def __init__(self, source, I: IndexSet):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "I", I)
        I.require_N(source.N, "oracle")
        if isinstance(source, OracleGroup):
            m = I.m
            for _, c, _ in self.points:
                if sum(x * x for x in c) != m:
                    raise DomainError("sphere normalisation fails on the oracle")
        else:
            dual = source
            for i in I.sorted_members:
                g = dual.generators[i]
                if dual.multiply(g, dual.invert(g)) != dual.identity:
                    raise DomainError("sphere normalisation fails on the dual")

    def _key(self):
        return self.source, self.I

    @property
    def N(self) -> int:
        return self.source.N

    @property
    def classical(self) -> bool:
        return isinstance(self.source, OracleGroup)

    @cached_property
    def points(self) -> tuple:
        """Classical: (first element index, c, support of c) per distinct
        coordinate vector c, in order of first appearance."""
        first = {}
        for gi, c in enumerate(self.source.coordinate_table(self.I)):
            first.setdefault(c, gi)
        return tuple((gi, c, tuple(compress(range(len(c)), c))) for c, gi in first.items())

    @cache
    def partition_sums(self, part) -> tuple:
        """Per entry of `points`, sum_i xi_pi[i] c[i_1]..c[i_k]: over the
        indices constant on each block it factorises into prod_B sum_t c[t]^|B|."""
        return tuple(
            prod(sum(c[t] ** len(block) for t in support) for block in part.blocks)
            for _, c, support in self.points
        )

    def functionals(self, k_word: str, l_word: str) -> list:
        """The relation of the words (k, l) at each evaluation point.

        Per point (label, flats, weights, at_identity): T satisfies the
        relation there iff sum_j weights[j] * T.entries[flats[j]] equals
        m^((k+l)/2) times the rhs when at_identity, and 0 otherwise.
        Classical: per entry of `points`, labelled by its element; c
        vanishes off its support S, so the terms run over S^(l+k) with
        weights c[i_1] ... c[i_(l+k)].  Dual: per group element l(b) k(c)^-1
        reached from I^l x I^k, in order of first appearance, then e if
        none reaches it; labelled by its index, every weight 1.
        """
        n = self.N
        if self.classical:
            out = []
            for gi, c, support in self.points:
                terms = [(0, 1)]
                for _ in range(len(l_word) + len(k_word)):
                    terms = [(f * n + t, w * c[t]) for f, w in terms for t in support]
                out.append((gi, *zip(*terms), True))
            return out
        dual = self.source
        members = self.I.sorted_members
        cols = n ** len(k_word)
        k_values = map(dual.invert, dual.word_values(k_word, members))
        rights = list(zip(self.I.flat_indices(len(k_word)), k_values))
        reached = {}
        for b, left in zip(self.I.flat_indices(len(l_word)), dual.word_values(l_word, members)):
            base = b * cols
            for fc, right in rights:
                reached.setdefault(dual.multiply(left, right), []).append(base + fc)
        reached.setdefault(dual.identity, [])
        return [
            (dual.index[g], flats, (1,) * len(flats), g == dual.identity)
            for g, flats in reached.items()
        ]
