"""verify_relations against a reference evaluation.

The reference below is how `relations` verified classical realizations
before it read coordinate vectors on their support: every nonzero
coefficient is multiplied out at every group element, and compatibility
pushes each dense category vector through g tensor ... tensor g for every
generator.  Whole reports (verdicts and witnesses) and the messages of
IncompatibleOracleError must agree on permutation, signed-permutation,
non-monomial and sign-flipping oracles, for the med, max and hom systems,
also after a coefficient or a rhs is corrupted.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from qhs.exact import ExactMatrix, IncompatibleOracleError, ScaledScalar, multi_indices
from qhs.oracle import OracleGroup, OracleRealization
from qhs.partitions import CategorySpec, conjugate_word, partition_vector
from qhs.relations import (
    Relation,
    RelationSystem,
    relations_hom,
    relations_max,
    relations_med,
    verify_relations,
)
from qhs.weingarten import IndexSet, gram_weingarten


def _apply_tensor_power(g, entries, n, k):
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


def ref_check_compatible(system, real):
    spec = system.spec
    if real.N != spec.N:
        raise IncompatibleOracleError(f"oracle N={real.N} does not match spec N={spec.N}")
    words = sorted(
        {rel.left_word + conjugate_word(rel.right_word) for rel in system.relations},
        key=lambda w: (len(w), w),
    )
    n = spec.N
    for word in words:
        k = len(word)
        for part in gram_weingarten(spec, word).basis.selected:
            vec = partition_vector(part, n).entries
            if not all(
                _apply_tensor_power(g, vec, n, k) == list(vec) for g in real.source.generators
            ):
                raise IncompatibleOracleError(
                    f"oracle does not fix the category vectors at word {word!r}"
                )


def ref_first_failure(rel, real):
    """Witness at the first element where the relation fails."""
    n = real.N
    l, k = len(rel.left_word), len(rel.right_word)
    nonzeros = [
        (idx, val)
        for idx, val in zip(multi_indices(n, l + k), rel.coefficients.entries)
        if val
    ]
    rhs = rel.rhs.rescale(l + k)
    lhs_at = {}
    for gi, c in enumerate(real.source.coordinate_table(real.I)):
        if c not in lhs_at:
            acc = Fraction(0)
            for idx, val in nonzeros:
                for t in idx:
                    val *= c[t]
                acc += val
            lhs_at[c] = acc
        if lhs_at[c] != rhs:
            return {"element": gi, "lhs_scaled": str(lhs_at[c]), "rhs_scaled": str(rhs)}
    return None


def ref_verify_relations(system, real):
    if system.I.sorted_members != real.I.sorted_members or system.I.N != real.I.N:
        raise IncompatibleOracleError("relation system and realization use different index sets")
    ref_check_compatible(system, real)
    entries = []
    for pos, rel in enumerate(system.relations):
        witness = ref_first_failure(rel, real)
        entry = {
            "index": pos,
            "left_word": rel.left_word,
            "right_word": rel.right_word,
            "passed": witness is None,
        }
        if witness is not None:
            entry["witness"] = witness
        entries.append(entry)
    return {
        "spec": str(system.spec),
        "I": str(system.I),
        "provenance": system.provenance,
        "oracle": real.source.name,
        "passed": all(entry["passed"] for entry in entries),
        "relations": entries,
    }


def _outcome(verify, system, real):
    try:
        return verify(system, real)
    except IncompatibleOracleError as exc:
        return ("IncompatibleOracleError", str(exc))


third, ninth = Fraction(1, 3), Fraction(1, 9)
# I - 2vv^T/|v|^2 for v = (1, 2, 2): rational, orthogonal, no zero entry
HOUSEHOLDER = ExactMatrix.from_rows(
    [[7 * ninth, -4 * ninth, -4 * ninth],
     [-4 * ninth, ninth, -8 * ninth],
     [-4 * ninth, -8 * ninth, ninth]]
)
SWAP12 = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
SWAP23 = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
FLIP3 = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


@cache
def oracle(name):
    if name == "SN(3)":
        return OracleGroup.symmetric(3)
    if name == "SN(4)":
        return OracleGroup.symmetric(4)
    if name == "HN(3)":
        return OracleGroup.hyperoctahedral(3)
    if name == "HN(4)":
        return OracleGroup.hyperoctahedral(4)
    if name == "householder-S3":
        # S3 conjugated by HOUSEHOLDER: non-monomial, entries in thirds
        gens = [HOUSEHOLDER * g * HOUSEHOLDER for g in (SWAP12, SWAP23)]
        return OracleGroup.from_generators(gens, name=name)
    if name == "reflection":
        # fixes (1,1,1): the S(3) vectors of lengths 1 and 2, not of length 3
        return OracleGroup.from_generators(
            [[[2 * third, -third, 2 * third], [-third, 2 * third, 2 * third],
              [2 * third, 2 * third, -third]]],
            name=name,
        )
    assert name == "signed-swap"
    return OracleGroup.from_generators([SWAP12, FLIP3], name=name)


@cache
def system(form, spec_text, members, max_k, max_l):
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(spec.N, members)
    if form == "med":
        return relations_med(spec, I, max_k)
    if form == "max":
        return relations_max(spec, I, max_k)
    return relations_hom(spec, I, max_k, max_l)


# (oracle, spec, I members, max_k, max_l)
COMPATIBLE = [
    ("SN(3)", "S(3)", (0, 1), 3, 2),
    ("SN(3)", "S(3)", (0, 1, 2), 3, 1),
    ("SN(4)", "S(4)", (0, 1), 3, 2),
    ("SN(4)", "S(4)", (0, 2, 3), 2, 1),
    ("HN(3)", "O(3)", (0, 1), 3, 2),
    ("HN(3)", "U(3)", (1,), 2, 1),
    ("HN(4)", "O(4)", (2, 3), 3, 1),
    ("HN(4)", "O+(4)", (0, 1), 2, 2),
    ("householder-S3", "O(3)", (0, 1), 3, 1),
    ("signed-swap", "O(3)", (0, 2), 3, 1),
]
# the oracle does not fix the S(N) vector of the word named last
INCOMPATIBLE = [
    ("HN(3)", "S(3)", (0, 1), 2, 1, "o"),
    ("HN(4)", "S(4)", (0, 1), 1, 1, "o"),
    ("householder-S3", "S(3)", (0, 1), 2, 1, "o"),
    ("signed-swap", "S(3)", (0, 2), 2, 1, "o"),
    ("reflection", "S(3)", (0, 1), 3, 1, "ooo"),
]
CASES = COMPATIBLE + [case[:5] for case in INCOMPATIBLE]


@pytest.mark.parametrize("form", ["med", "max", "hom"])
@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[1]}-I{case[2]}")
def test_reports_match_reference(case, form):
    name, spec_text, members, max_k, max_l = case
    sys_ = system(form, spec_text, members, max_k, max_l)
    real = OracleRealization(oracle(name), sys_.I)
    assert _outcome(verify_relations, sys_, real) == _outcome(ref_verify_relations, sys_, real)


def test_reference_sees_each_kind_of_oracle():
    for name, spec_text, members, max_k, max_l in COMPATIBLE:
        sys_ = system("med", spec_text, members, max_k, max_l)
        assert ref_verify_relations(sys_, OracleRealization(oracle(name), sys_.I))["passed"]
    for name, spec_text, members, max_k, max_l, word in INCOMPATIBLE:
        sys_ = system("med", spec_text, members, max_k, max_l)
        with pytest.raises(IncompatibleOracleError, match=f"at word '{word}'$"):
            ref_verify_relations(sys_, OracleRealization(oracle(name), sys_.I))


DELTAS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]


@st.composite
def corruptions(draw):
    case = draw(st.sampled_from(COMPATIBLE))
    form = draw(st.sampled_from(["med", "max", "hom"]))
    rels = system(form, *case[1:]).relations
    pos = draw(st.integers(0, len(rels) - 1))
    flat = draw(st.integers(0, len(rels[pos].coefficients.entries) - 1))
    delta = draw(st.sampled_from(DELTAS))
    rhs_factor = draw(st.sampled_from([1, 1, 2, -1]))
    return case, form, pos, flat, delta, rhs_factor


@settings(max_examples=80, deadline=None)
@given(corruptions())
# a coefficient off the pairings under sign-carrying coordinates
@example((("HN(3)", "O(3)", (0, 1), 3, 2), "max", 3, 1, 1, 1))
# a rhs that fails at every element
@example((("SN(4)", "S(4)", (0, 1), 3, 2), "hom", 5, 0, 0, 2))
@example((("householder-S3", "O(3)", (0, 1), 3, 1), "max", 4, 2, Fraction(1, 2), 1))
def test_corrupted_reports_match_reference(corruption):
    (name, spec_text, members, max_k, max_l), form, pos, flat, delta, rhs_factor = corruption
    clean = system(form, spec_text, members, max_k, max_l)
    rel = clean.relations[pos]
    entries = list(rel.coefficients.entries)
    entries[flat] += delta
    T = ExactMatrix(rel.coefficients.rows, rel.coefficients.cols, entries)
    rhs = ScaledScalar(rel.rhs.q * rhs_factor, rel.rhs.s, rel.rhs.m)
    bad = Relation(rel.left_word, rel.right_word, T, rhs)
    rels = clean.relations[:pos] + (bad,) + clean.relations[pos + 1 :]
    broken = RelationSystem(clean.spec, clean.I, clean.provenance, rels)
    real = OracleRealization(oracle(name), clean.I)
    report = verify_relations(broken, real)
    assert report == ref_verify_relations(broken, real)
