"""Relation systems presenting the homogeneous spaces, and their verification.

A Relation states sum_{i,j} T[i,j] x_{i_1}^{e_1}..x_{i_l}^{e_l}
(x_{j_1}^{f_1}..x_{j_k}^{f_k})^* = rhs, with the exponents read off the two
colored words.  Three generators ship: max-form (rows of the Haar
projection), med-form (one relation per selected invariant vector), and
hom-form (vectors pushed through Frobenius duality into operators).  All
three hold their relations as combinations of partition vectors, and
verification evaluates them exactly on an oracle realization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from operator import mul

from .exact import (
    Echelon,
    ExactMatrix,
    Frozen,
    IncompatibleOracleError,
    ParseError,
    ScaledScalar,
    common_denominator,
)
from .frobenius import frobenius_map, frobenius_to_hom
from .oracle import OracleRealization, fixes_partitions
from .partitions import (
    BLACK,
    WHITE,
    CategorySpec,
    check_dense,
    check_word,
    coarsenings,
    colored_words,
    conjugate_word,
    kernel_ids,
    partition_vector,
)
from .weingarten import IndexSet, K_vector, gram_weingarten, selected_partitions


class Relation(Frozen):
    """One two-sided relation; coefficients has shape N^l x N^k for the
    left (plain) and right (starred) words.  A relation from `from_json` or
    built by hand holds T.  The generators hold partition terms instead,
    (pi_u, y_u) over a denominator, with T = sum_u y_u T_(pi_u) / den: a
    med/hom relation one partition of l + conjugate(k) (`of_partition`), a
    max-form row the word's selected partitions (`of_weights`).  So
    verify_relations reads no N^k object; T is built on first read, with
    the dense form's entries, for equality, hashing and to_json."""

    def __init__(self, left_word: str, right_word: str, coefficients: ExactMatrix, rhs: ScaledScalar):
        object.__setattr__(self, "left_word", left_word)
        object.__setattr__(self, "right_word", right_word)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "partition", None)
        object.__setattr__(self, "terms", None)  # a dense T

    @classmethod
    def of_partition(cls, left_word: str, right_word: str, partition, n: int, rhs) -> "Relation":
        rel = cls.of_weights(left_word, right_word, (partition,), (1,), 1, n, rhs)
        vars(rel).update(partition=partition)
        return rel

    @classmethod
    def of_weights(cls, left_word, right_word, partitions, weights, denominator, n, rhs):
        rel = cls.__new__(cls)
        terms = tuple((part, y) for part, y in zip(partitions, weights) if y)
        vars(rel).update(left_word=left_word, right_word=right_word, rhs=rhs, partition=None)
        vars(rel).update(terms=terms, denominator=denominator, N=n)
        return rel

    @cached_property
    def kernel_weights(self) -> dict:
        """Per kernel a of the l + k points above some pi_u, the sum of the
        y_u of the pi_u that a coarsens: the numerator of xi at kernel a."""
        out = {}
        for part, y in self.terms:
            for a in coarsenings(part):
                out[a] = out.get(a, 0) + y
        return out

    @cached_property
    def coefficients(self) -> ExactMatrix:
        """T: xi over l + conjugate(k) pushed through Frobenius duality, which
        is the identity when there is no right word."""
        if self.partition is not None:
            xi = partition_vector(self.partition, self.N)
        else:
            kid = kernel_ids(self.N, len(self.left_word + self.right_word))
            values = {a: Fraction(w, self.denominator) for a, w in self.kernel_weights.items()}
            xi = ExactMatrix(len(kid), 1, [values.get(a, 0) for a in kid])
        return frobenius_to_hom(xi, self.right_word, self.left_word, self.N) if self.right_word else xi

    def _key(self):
        return self.left_word, self.right_word, self.coefficients, self.rhs

    def to_json(self) -> dict:
        return {
            "left_word": self.left_word,
            "right_word": self.right_word,
            "T": self.coefficients.to_string_rows(),
            "rhs": self.rhs.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        return cls(
            check_word(data["left_word"]),
            check_word(data["right_word"]),
            ExactMatrix.from_string_rows(data["T"]),
            ScaledScalar.from_json(data["rhs"]),
        )


class RelationSystem(Frozen):
    def __init__(self, spec: CategorySpec, I: IndexSet, provenance: str, relations: tuple):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "provenance", provenance)  # max-form | med-form | hom-form
        object.__setattr__(self, "relations", relations)

    def _key(self):
        return self.spec, self.I, self.provenance, self.relations

    def to_json(self) -> dict:
        # every T is printed dense: refuse the longest, then their sum, before building any
        n, lengths = self.spec.N, [len(r.left_word + r.right_word) for r in self.relations]
        L = max(lengths, default=0)
        check_dense(n**L, f"a printed relation T over N^(l+k) = {n}^{L}")
        check_dense(sum(n**t for t in lengths), f"a printed system of {len(lengths)} relation Ts")
        # one dict per relation object: the max-form rows of a kernel share one
        forms = {}
        for rel in self.relations:
            if id(rel) not in forms:
                forms[id(rel)] = rel.to_json()
        return {
            "spec": str(self.spec),
            "I": [i + 1 for i in self.I.sorted_members],
            "provenance": self.provenance,
            "relations": [forms[id(rel)] for rel in self.relations],
        }


def _generator_words(spec: CategorySpec, max_len: int) -> list:
    """Words of length 1..max_len; only the all-white ones for the
    self-conjugate families, whose categories cannot see colors."""
    words = colored_words(max_len)[1:]
    return [w for w in words if BLACK not in w] if spec.self_conjugate else words


def _trivial_relation(I: IndexSet) -> Relation:
    return Relation("", "", ExactMatrix(1, 1, (1,)), ScaledScalar(Fraction(1), 0, I.m))


def relations_med(spec: CategorySpec, I: IndexSet, max_k: int = 4) -> RelationSystem:
    """One relation per selected invariant vector per word; the rhs is its
    K_vector entry.  These are the hom-form relations with no right word."""
    return RelationSystem(spec, I, "med-form", _two_sided(spec, I, 0, max_k))


def relations_max(spec: CategorySpec, I: IndexSet, max_k: int = 4) -> RelationSystem:
    """One relation per row of the Haar projection per word, in row order.
    By the Weingarten formula the rows of kernel a are sum_u y_u xi_(pi_u)
    / den, y the sum of W's integer rows hits[a]: one Relation of those
    weights per kernel, shared by its rows, with rhs sum_u y_u m^|pi_u| /
    den.  No projection is built, but the printed system holds N^k rows of
    N^k entries, so a longer word is refused first."""
    I.require_N(spec.N, "spec")
    n = spec.N
    rels = []
    if max_k == 0:
        rels.append(_trivial_relation(I))
    for word in _generator_words(spec, max_k):
        k = len(word)
        check_dense(n ** (2 * k), f"projection over N^2k = {n}^{2 * k}")
        data = gram_weingarten(spec, word)
        parts, wrows = data.basis.selected, data.weingarten_rows
        sizes = [I.m**part.block_count for part in parts]
        by_kernel = {}
        for kernel in kernel_ids(n, k):
            rel = by_kernel.get(kernel)
            if rel is None:
                y = [sum(col) for col in zip(*(wrows[t] for t in data.hits.get(kernel, ())))]
                rhs = ScaledScalar(Fraction(sum(map(mul, y, sizes)), data.denominator), k, I.m)
                rel = Relation.of_weights(word, "", parts, y, data.denominator, n, rhs)
                by_kernel[kernel] = rel
            rels.append(rel)
    return RelationSystem(spec, I, "max-form", tuple(rels))


def relations_hom(
    spec: CategorySpec, I: IndexSet, max_k: int = 4, max_l: int = 2
) -> RelationSystem:
    """Two-sided relations from the invariant vectors of l + conjugate(k),
    pushed through Frobenius duality."""
    return RelationSystem(spec, I, "hom-form", _two_sided(spec, I, max_k, max_l))


def _two_sided(spec: CategorySpec, I: IndexSet, max_k: int, max_l: int) -> tuple:
    """The relations of relations_hom, by total length |k| + |l|, then |l|."""
    I.require_N(spec.N, "spec")
    rels = [_trivial_relation(I)] if max_k == max_l == 0 else []
    l_words = [""] + _generator_words(spec, max_l)
    k_words = [""] + _generator_words(spec, max_k)
    pairs = [(lw, kw) for lw in l_words for kw in k_words][1:]  # all but ("", "")
    for lw, kw in sorted(pairs, key=lambda pair: (len(pair[0] + pair[1]), len(pair[0]))):
        word = lw + conjugate_word(kw)
        # T_pi sums over I^l x I^k to its vector's sum over I^(l+k)
        for part, rhs in zip(selected_partitions(spec, word), K_vector(spec, word, I)):
            rels.append(Relation.of_partition(lw, kw, part, spec.N, rhs))
    return tuple(rels)


def _check_compatible(system: RelationSystem, real: OracleRealization):
    """The oracle must fix every category basis vector used by the system,
    checked exactly at every word length (`_fixes_category`); the verdict
    of a classical oracle and a self-conjugate category reads only len(word)."""
    spec = system.spec
    if real.N != spec.N:
        raise IncompatibleOracleError(
            f"oracle N={real.N} does not match spec N={spec.N}"
        )
    words = sorted(
        {rel.left_word + conjugate_word(rel.right_word) for rel in system.relations},
        key=lambda w: (len(w), w),
    )
    same_length = real.classical and spec.self_conjugate
    for word in words:
        if not _fixes_category(real.source, spec, WHITE * len(word) if same_length else word):
            kind = "oracle" if real.classical else "dual oracle"
            raise IncompatibleOracleError(
                f"{kind} does not fix the category vectors at word {word!r}"
            )


@cache
def _fixes_category(source, spec: CategorySpec, word: str) -> bool:
    """Whether the oracle fixes the selected category vectors of the word,
    cached as nothing else decides it: by the blocks of each partition on a
    classical oracle of monomial generators, where a generator moves each
    support onto itself with a sign that factorises over the blocks, so the
    verdict is exact; by the supports otherwise (`oracle.fixes_partitions`)."""
    return fixes_partitions(source, word, selected_partitions(spec, word))


def verify_relations(system: RelationSystem, real: OracleRealization) -> dict:
    """Evaluate every relation exactly on the realization.  Partition terms
    (pi_u, y_u) over den need no T: at a classical point c the lhs is
    sum_u y_u prod_B sum_t c[t]^|B| / den (`partition_sums`), and on a dual
    T at f is the kernel weight of frobenius_map[f] over den, read through
    the evaluation functionals (built once per word pair) as a dense T is.

    Classical: the scalar identity must hold at every group element.  Dual:
    the operator identity must hold in the regular representation.  The
    witness is the first failing point in functional order: the first
    failing element, or on a dual the first failing group element in order
    of first appearance over I^l x I^k (e last when no index reaches it).
    A relation object that repeats in the system (the max-form rows of one
    kernel) is evaluated once per call; each occurrence gets a copy of its
    entry under its own index.
    """
    if system.I != real.I:
        raise IncompatibleOracleError("relation system and realization use different index sets")
    _check_compatible(system, real)
    label = "element" if real.classical else "group_element"
    functionals = {}
    entries = []
    verdicts = {}  # id of a relation object -> its entry; a repeat copies it
    for pos, rel in enumerate(system.relations):
        done = verdicts.get(id(rel))
        if done is not None:
            entries.append({**done, "index": pos})
            continue
        words = (rel.right_word, rel.left_word)
        rhs_q = rel.rhs.rescale(len(rel.left_word) + len(rel.right_word))
        if rel.terms is not None and real.classical:  # the sum over block-constant indices factorises
            sums = [(y, real.partition_sums(part)) for part, y in rel.terms]
            values = (
                (gi, sum(y * s[p] for y, s in sums), True) for p, (gi, *_) in enumerate(real.points)
            )
            denominator = rel.denominator
        else:
            if words not in functionals:
                functionals[words] = real.functionals(*words)
            if rel.terms is None:
                T = rel.coefficients.entries
                # classical sums run in integers; dual ones read T only on I^l x I^k
                numerators, denominator = common_denominator(T) if real.classical else (T, 1)
                read = numerators.__getitem__
            else:
                kernel, table = kernel_ids(real.N, sum(map(len, words))), rel.kernel_weights
                reshuffle, denominator = frobenius_map(real.N, *map(len, words)), rel.denominator
                read = lambda f: table.get(kernel[reshuffle[f]], 0)
            values = (
                (point, sum(map(mul, map(read, flats), weights)), at_identity)
                for point, flats, weights, at_identity in functionals[words]
            )
        target = rhs_q * denominator
        entry = {
            "index": pos,
            "left_word": rel.left_word,
            "right_word": rel.right_word,
            "passed": True,
        }
        for point, lhs, at_identity in values:
            if lhs != (target if at_identity else 0):
                lhs = Fraction(lhs, denominator)
                expected = rhs_q if at_identity else 0
                witness = {label: point, "lhs_scaled": str(lhs), "rhs_scaled": str(expected)}
                entry.update(passed=False, witness=witness)
                break
        entries.append(entry)
        verdicts[id(rel)] = entry
    return {
        "spec": str(system.spec),
        "I": str(system.I),
        "provenance": system.provenance,
        "oracle": real.source.name,
        "passed": all(entry["passed"] for entry in entries),
        "relations": entries,
    }


def med_spans_max(spec: CategorySpec, I: IndexSet, max_k: int = 3) -> dict:
    """Exact rank test: per word, stacking the max-form rows onto the
    med-form rows must not increase the rank."""
    med = relations_med(spec, I, max_k)
    mx = relations_max(spec, I, max_k)
    report = {"spec": str(spec), "I": str(I), "words": [], "passed": True}
    words = sorted(
        {rel.left_word for rel in med.relations} | {rel.left_word for rel in mx.relations},
        key=lambda w: (len(w), w),
    )
    for word in words:
        span = Echelon(rel.coefficients.entries for rel in med.relations if rel.left_word == word)
        r_med = len(span.pivots)
        # rows of one kernel share one object, which cannot raise the rank twice
        for rel in {id(rel): rel for rel in mx.relations if rel.left_word == word}.values():
            span.add(rel.coefficients.entries)
        r_all = len(span.pivots)
        contained = r_med == r_all
        report["words"].append(
            {"word": word, "rank_med": r_med, "rank_stacked": r_all, "contained": contained}
        )
        report["passed"] &= contained
    return report


def parse_relation_system(data: dict) -> RelationSystem:
    """The system from its JSON form; every T must be N^l x N^k for its words."""
    spec = CategorySpec.parse(data["spec"])
    I = IndexSet.of(spec.N, [i - 1 for i in data["I"]])
    rels = tuple(Relation.from_json(rel) for rel in data["relations"])
    n = spec.N
    for pos, rel in enumerate(rels):
        T = rel.coefficients
        rows, cols = n ** len(rel.left_word), n ** len(rel.right_word)
        if (T.rows, T.cols) != (rows, cols):
            raise ParseError(
                f"relation {pos}: T is {T.rows}x{T.cols}, but words "
                f"{rel.left_word!r}, {rel.right_word!r} at N={n} need {rows}x{cols}"
            )
    return RelationSystem(spec, I, data["provenance"], rels)
