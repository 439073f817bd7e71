"""verify_relations against reference evaluations.

The classical reference is how `relations` verified classical realizations
before it read coordinate vectors on their support: every nonzero
coefficient is multiplied out at every group element, and compatibility
pushes each dense category vector through g tensor ... tensor g for every
generator.  The dual reference is how it verified group duals before both
kinds went through `OracleRealization.functionals`: coefficients on
I^l x I^k are bucketed per group element l(b) k(c)^-1 in order of their
first nonzero coefficient, with e checked last when no coefficient reaches
it.  Whole reports (verdicts and witnesses) and the messages of
IncompatibleOracleError must agree on permutation, signed-permutation,
non-monomial, sign-flipping and group-dual oracles, for the med, max and
hom systems, also after a coefficient or a rhs is corrupted.  Where two
points of a dual may fail, the witness rules differ (the library reports
the first failing point in functional order), so only verdicts are
compared there.
"""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qhs.exact import (
    ExactMatrix,
    IncompatibleOracleError,
    ScaledScalar,
    flat_index,
    multi_indices,
)
from qhs.oracle import OracleGroup, OracleRealization, parse_oracle
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
    source = real.source
    for word in words:
        k = len(word)
        for part in gram_weingarten(spec, word).basis.selected:
            vec = partition_vector(part, n).entries
            if real.classical:
                fixed = all(
                    _apply_tensor_power(g, vec, n, k) == list(vec) for g in source.generators
                )
            else:
                fixed = all(
                    source.word_value(word, idx) == source.identity
                    for idx, val in zip(multi_indices(n, k), vec)
                    if val
                )
            if not fixed:
                kind = "oracle" if real.classical else "dual oracle"
                raise IncompatibleOracleError(
                    f"{kind} does not fix the category vectors at word {word!r}"
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


def ref_dual_failure(rel, real):
    """Witness of the first failing bucket: coefficients on I^l x I^k summed
    per group element l(b) k(c)^-1, in order of their first nonzero
    coefficient, then e if no coefficient reaches it."""
    dual, I, n = real.source, real.I, real.N
    l, k = len(rel.left_word), len(rel.right_word)
    cols = rel.coefficients.cols
    rhs_q = rel.rhs.rescale(k + l)
    buckets = {}
    for b in product(I.sorted_members, repeat=l):
        base = flat_index(b, n) * cols
        left = dual.word_value(rel.left_word, b)
        for c in product(I.sorted_members, repeat=k):
            val = rel.coefficients.entries[base + flat_index(c, n)]
            if val:
                gamma = dual.multiply(left, dual.invert(dual.word_value(rel.right_word, c)))
                buckets[gamma] = buckets.get(gamma, 0) + val
    for gamma, coeff in buckets.items():
        expected = rhs_q if gamma == dual.identity else 0
        if coeff != expected:
            return {
                "group_element": dual.index[gamma],
                "lhs_scaled": str(coeff),
                "rhs_scaled": str(expected),
            }
    if dual.identity not in buckets and rhs_q != 0:
        e = dual.index[dual.identity]
        return {"group_element": e, "lhs_scaled": "0", "rhs_scaled": str(rhs_q)}
    return None


def ref_verify_relations(system, real):
    if system.I.sorted_members != real.I.sorted_members or system.I.N != real.I.N:
        raise IncompatibleOracleError("relation system and realization use different index sets")
    ref_check_compatible(system, real)
    first_failure = ref_first_failure if real.classical else ref_dual_failure
    entries = []
    for pos, rel in enumerate(system.relations):
        witness = first_failure(rel, real)
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
    if name.startswith("dual"):
        return parse_oracle(name)
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
DUAL_COMPATIBLE = [
    ("dualZ2(3)", "U(3)", (0, 1), 3, 2),
    ("dualZ2(3)", "U+(3)", (0, 2), 3, 2),
    ("dualZ2(4)", "U(4)", (1, 3), 3, 2),
    ("dualZ2(4)", "U+(4)", (0,), 3, 2),
    ("dualS3(12,13,23)", "U+(3)", (0, 1), 3, 2),
    ("dualS3(12,13,23)", "U+(3)", (2,), 3, 2),
]
# the oracle does not fix a category vector of the word named last
INCOMPATIBLE = [
    ("HN(3)", "S(3)", (0, 1), 2, 1, "o"),
    ("HN(4)", "S(4)", (0, 1), 1, 1, "o"),
    ("householder-S3", "S(3)", (0, 1), 2, 1, "o"),
    ("signed-swap", "S(3)", (0, 2), 2, 1, "o"),
    ("reflection", "S(3)", (0, 1), 3, 1, "ooo"),
    ("dualS3(12,13,23)", "U(3)", (0, 1), 4, 1, "bboo"),
]
CASES = COMPATIBLE + DUAL_COMPATIBLE + [case[:5] for case in INCOMPATIBLE]


@pytest.mark.parametrize("form", ["med", "max", "hom"])
@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[1]}-I{case[2]}")
def test_reports_match_reference(case, form):
    name, spec_text, members, max_k, max_l = case
    sys_ = system(form, spec_text, members, max_k, max_l)
    real = OracleRealization(oracle(name), sys_.I)
    assert _outcome(verify_relations, sys_, real) == _outcome(ref_verify_relations, sys_, real)


def test_reference_sees_each_kind_of_oracle():
    for name, spec_text, members, max_k, max_l in COMPATIBLE + DUAL_COMPATIBLE:
        sys_ = system("med", spec_text, members, max_k, max_l)
        assert ref_verify_relations(sys_, OracleRealization(oracle(name), sys_.I))["passed"]
    for name, spec_text, members, max_k, max_l, word in INCOMPATIBLE:
        sys_ = system("med", spec_text, members, max_k, max_l)
        with pytest.raises(IncompatibleOracleError, match=f"at word '{word}'$"):
            ref_verify_relations(sys_, OracleRealization(oracle(name), sys_.I))


DELTAS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]


def _corrupted(clean, pos, changes, rhs_factor):
    """clean with relation pos corrupted: {flat: delta} added to T, rhs scaled."""
    rel = clean.relations[pos]
    entries = list(rel.coefficients.entries)
    for flat, delta in changes.items():
        entries[flat] += delta
    T = ExactMatrix(rel.coefficients.rows, rel.coefficients.cols, entries)
    rhs = ScaledScalar(rel.rhs.q * rhs_factor, rel.rhs.s, rel.rhs.m)
    bad = Relation(rel.left_word, rel.right_word, T, rhs)
    rels = clean.relations[:pos] + (bad,) + clean.relations[pos + 1 :]
    return RelationSystem(clean.spec, clean.I, clean.provenance, rels)


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
    case, form, pos, flat, delta, rhs_factor = corruption
    broken = _corrupted(system(form, *case[1:]), pos, {flat: delta}, rhs_factor)
    real = OracleRealization(oracle(case[0]), broken.I)
    report = verify_relations(broken, real)
    assert report == ref_verify_relations(broken, real)


@st.composite
def dual_corruptions(draw, count):
    """count changes to one relation of a dual system: each adds a delta to
    one coefficient, except that one of them may scale the rhs instead."""
    case = draw(st.sampled_from(DUAL_COMPATIBLE))
    form = draw(st.sampled_from(["med", "max", "hom"]))
    rels = system(form, *case[1:]).relations
    pos = draw(st.integers(0, len(rels) - 1))
    size = len(rels[pos].coefficients.entries)
    scale_rhs = draw(st.booleans())
    rhs_factor = draw(st.sampled_from([2, -1, 0])) if scale_rhs else 1
    flats = count - scale_rhs
    changes = draw(
        st.dictionaries(
            st.integers(0, size - 1), st.sampled_from(DELTAS), min_size=flats, max_size=flats
        )
    )
    return case, form, pos, changes, rhs_factor


@settings(max_examples=80, deadline=None)
@given(dual_corruptions(1))
# a coefficient of dualS3's T moved onto a group element other than e
@example((DUAL_COMPATIBLE[4], "hom", 3, {1: 1}, 1))
# only the rhs: e fails
@example((DUAL_COMPATIBLE[0], "med", 1, {}, 2))
# word o on I = {1}: no index reaches e, which is the last point and holds
@example((DUAL_COMPATIBLE[3], "max", 0, {0: 1}, 1))
def test_single_dual_corruption_reports_match_reference(corruption):
    # one coefficient or the rhs alone: at most one group element fails,
    # so both witness rules name the same point
    case, form, pos, changes, rhs_factor = corruption
    broken = _corrupted(system(form, *case[1:]), pos, changes, rhs_factor)
    real = OracleRealization(oracle(case[0]), broken.I)
    assert verify_relations(broken, real) == ref_verify_relations(broken, real)


def _verdicts(report):
    return report["passed"], [entry["passed"] for entry in report["relations"]]


@settings(max_examples=80, deadline=None)
@given(dual_corruptions(2))
def test_double_dual_corruption_verdicts_match_reference(corruption):
    case, form, pos, changes, rhs_factor = corruption
    broken = _corrupted(system(form, *case[1:]), pos, changes, rhs_factor)
    real = OracleRealization(oracle(case[0]), broken.I)
    expected = _verdicts(ref_verify_relations(broken, real))
    assert _verdicts(verify_relations(broken, real)) == expected
