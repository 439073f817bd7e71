import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from qhs import frobenius, opspaces, oracle, partitions, relations
from qhs.exact import (
    DomainError,
    ExactMatrix,
    IncompatibleOracleError,
    ParseError,
    ResourceGuardError,
    ScaledScalar,
)
from qhs.frobenius import frobenius_to_fix, frobenius_to_hom
from qhs.oracle import OracleGroup, OracleRealization, dual_z2, fixed_space, parse_oracle
from qhs.partitions import (
    CategorySpec,
    all_partitions,
    colored_words,
    kernel_ids,
    parse_partition,
    partition_vector,
)
from qhs.relations import (
    Relation,
    RelationSystem,
    _fixes_category,
    med_spans_max,
    parse_relation_system,
    relations_hom,
    relations_max,
    relations_med,
    verify_relations,
)
from qhs.weingarten import IndexSet, projection_P
from test_oracle import householder_conjugated_s3

S4 = CategorySpec("S", 4)
S3 = CategorySpec("S", 3)
I12_4 = IndexSet.parse("1,2", 4)


def test_frobenius_identity_gives_duality_vector():
    T = ExactMatrix.identity(3)
    xi, word = frobenius_to_fix(T, "o", "o", 3)
    assert word == "ob"
    assert xi.entries == partition_vector(parse_partition("12"), 3).entries


def test_frobenius_row_reverses_indices():
    T = ExactMatrix(1, 4, (1, 2, 3, 4))
    xi, word = frobenius_to_fix(T, "oo", "", 2)
    assert word == "bb"
    # index (j1, j2) of T lands at (j2, j1)
    assert xi.entries == (1, 3, 2, 4)


def test_frobenius_of_diagonal_vector_is_identity_matrix():
    xi = partition_vector(parse_partition("12"), 3)
    assert frobenius_to_hom(xi, "o", "o", 3) == ExactMatrix.identity(3)


def test_frobenius_roundtrip_random():
    rng = random.Random(4242)
    for n in (2, 3):
        for k_len, l_len in ((0, 2), (1, 1), (2, 1), (2, 2)):
            for _ in range(25):
                entries = [rng.randrange(0, 2) for _ in range(n ** (k_len + l_len))]
                T = ExactMatrix(n**l_len, n**k_len, entries)
                xi, _ = frobenius_to_fix(T, "o" * k_len, "o" * l_len, n)
                assert frobenius_to_hom(xi, "o" * k_len, "o" * l_len, n) == T


def test_frobenius_roundtrip_at_full_depth():
    # module contract runs to k+l = 6 at N <= 4
    rng = random.Random(977)
    for n in (2, 4):
        for k_len in range(7):
            for l_len in range(7 - k_len):
                if k_len + l_len < 5:
                    continue
                kw = "".join(rng.choice("ob") for _ in range(k_len))
                lw = "".join(rng.choice("ob") for _ in range(l_len))
                entries = [rng.randrange(-2, 3) for _ in range(n ** (k_len + l_len))]
                T = ExactMatrix(n**l_len, n**k_len, entries)
                xi, word = frobenius_to_fix(T, kw, lw, n)
                assert len(word) == k_len + l_len
                assert frobenius_to_hom(xi, kw, lw, n) == T


def test_frobenius_shape_mismatch():
    with pytest.raises(DomainError):
        frobenius_to_fix(ExactMatrix.identity(3), "oo", "o", 3)


def test_dense_vectors_are_columns():
    # partition vectors, fixed vectors and reshuffled operators are all
    # N^k x 1 matrices; frobenius_to_hom refuses any other shape
    vec = partition_vector(parse_partition("12|3"), 3)
    assert (vec.rows, vec.cols) == (27, 1)
    for word, source in (("ooo", OracleGroup.symmetric(3)), ("ob", dual_z2(3))):
        for xi in fixed_space(source, word):
            assert (xi.rows, xi.cols) == (3 ** len(word), 1)
    xi, _ = frobenius_to_fix(ExactMatrix.identity(3), "o", "o", 3)
    assert (xi.rows, xi.cols) == (9, 1)
    assert frobenius_to_hom(xi, "o", "o", 3) == ExactMatrix.identity(3)
    for wrong in (ExactMatrix(27, 1, (0,) * 27), xi.transpose()):
        with pytest.raises(DomainError):
            frobenius_to_hom(wrong, "o", "o", 3)


def test_med_first_relation_is_row_sum():
    system = relations_med(S4, I12_4, 2)
    first = system.relations[0]
    assert first.left_word == "o" and first.right_word == ""
    assert first.coefficients.entries == (1, 1, 1, 1)
    assert first.rhs == ScaledScalar(Fraction(2), 1, 2)  # sqrt(2)


def test_med_unit_length_relation_for_o_family():
    system = relations_med(CategorySpec("O", 3), IndexSet.parse("1", 3), 2)
    assert [r.left_word for r in system.relations] == ["oo"]
    rel = system.relations[0]
    assert rel.coefficients.entries == partition_vector(parse_partition("12"), 3).entries
    assert rel.rhs == 1


def test_trivial_systems_at_zero_bounds():
    for build in (
        lambda: relations_med(S4, I12_4, 0),
        lambda: relations_max(S4, I12_4, 0),
        lambda: relations_hom(S4, I12_4, 0, 0),
    ):
        system = build()
        assert len(system.relations) == 1
        rel = system.relations[0]
        assert rel.left_word == rel.right_word == ""
        assert rel.coefficients.entries == (1,)
        assert rel.rhs == 1


def test_max_row_relation_values():
    system = relations_max(S4, I12_4, 1)
    rel = system.relations[0]
    assert rel.left_word == "o"
    assert all(x == Fraction(1, 4) for x in rel.coefficients.entries)
    assert rel.rhs == ScaledScalar(Fraction(1, 2), 1, 2)  # sqrt(2)/4


def test_max_row_count_o3():
    system = relations_max(CategorySpec("O", 3), IndexSet.parse("1", 3), 2)
    counts = {}
    for rel in system.relations:
        counts[rel.left_word] = counts.get(rel.left_word, 0) + 1
    assert counts == {"o": 3, "oo": 9}


def test_hom_unit_relation():
    system = relations_hom(S4, I12_4, 1, 1)
    pairs = [(r.left_word, r.right_word) for r in system.relations]
    assert ("o", "o") in pairs
    for rel in system.relations:
        if (rel.left_word, rel.right_word) == ("o", "o") and rel.coefficients.is_identity():
            assert rel.rhs == 1
            break
    else:
        pytest.fail("identity intertwiner relation missing")


def test_hom_all_ones_relation_s3():
    I1 = IndexSet.parse("1", 3)
    system = relations_hom(S3, I1, 1, 1)
    ones = [
        r
        for r in system.relations
        if (r.left_word, r.right_word) == ("o", "o")
        and all(x == 1 for x in r.coefficients.entries)
    ]
    assert len(ones) == 1
    assert ones[0].rhs == 1


def test_hom_with_empty_right_side_equals_med():
    med = relations_med(S4, I12_4, 2)
    hom = relations_hom(S4, I12_4, 0, 2)
    med_payload = [r.to_json() for r in med.relations]
    hom_payload = [r.to_json() for r in hom.relations]
    assert med_payload == hom_payload


def rhs_over_I(T: ExactMatrix, I: IndexSet, k: int, l: int) -> ScaledScalar:
    """m**(-(k+l)/2) times the sum of T over I^l x I^k."""
    total = sum(T.at(b, c) for b in I.flat_indices(l) for c in I.flat_indices(k))
    return ScaledScalar(Fraction(total), k + l, I.m)


def test_rhs_recomputable_invariant():
    for system in (
        relations_med(S4, I12_4, 2),
        relations_max(S4, I12_4, 2),
        relations_hom(S4, I12_4, 2, 1),
    ):
        for rel in system.relations:
            k, l = len(rel.right_word), len(rel.left_word)
            assert rhs_over_I(rel.coefficients, system.I, k, l) == rel.rhs


def test_verify_relations_all_forms_pass_on_oracle():
    real = OracleRealization(OracleGroup.symmetric(4), I12_4)
    for system in (
        relations_med(S4, I12_4, 3),
        relations_max(S4, I12_4, 2),
        relations_hom(S4, I12_4, 2, 1),
    ):
        report = verify_relations(system, real)
        assert report["passed"], report


def test_verify_relations_hom_s3_full_index_set():
    I = IndexSet.parse("1,2,3", 3)
    real = OracleRealization(OracleGroup.symmetric(3), I)
    report = verify_relations(relations_hom(S3, I, 2, 2), real)
    assert report["passed"]


def test_verify_relations_on_dual_realization():
    z2 = dual_z2(2)
    I1 = IndexSet.parse("1", 2)
    spec = CategorySpec("U+", 2)
    real = OracleRealization(z2, I1)
    report = verify_relations(relations_med(spec, I1, 2), real)
    assert report["passed"]


def test_verify_relations_across_families_on_signed_permutations():
    # signed permutations are orthogonal and unitary, so the O- and
    # U-category relations must hold on that oracle as well
    from qhs.oracle import OracleGroup as OG

    I = IndexSet.parse("1", 3)
    real = OracleRealization(OG.hyperoctahedral(3), I)
    for spec in (CategorySpec("O", 3), CategorySpec("U", 3), CategorySpec("O+", 3)):
        report = verify_relations(relations_med(spec, I, 2), real)
        assert report["passed"], str(spec)
        report = verify_relations(relations_hom(spec, I, 1, 1), real)
        assert report["passed"], str(spec)


def _ref_first_failure(rel, real):
    """Witness of the first element where the relation fails, evaluating
    every coefficient at every element in turn."""
    size = len(rel.left_word) + len(rel.right_word)
    rhs = rel.rhs.rescale(size)
    indices = list(product(range(real.N), repeat=size))
    for gi, c in enumerate(real.source.coordinate_table(real.I)):
        lhs = sum(
            (val * prod(c[t] for t in idx) for idx, val in zip(indices, rel.coefficients.entries)),
            Fraction(0),
        )
        if lhs != rhs:
            return {"element": gi, "lhs_scaled": str(lhs), "rhs_scaled": str(rhs)}
    return None


def test_corrupted_relation_fails_with_witness():
    # (group, spec, max_k, coefficient to corrupt, by how much): neither
    # corruption shows at element 0, the identity
    cases = [
        (OracleGroup.symmetric(4), S4, 1, 3, 1),
        (OracleGroup.hyperoctahedral(4), CategorySpec("O", 4), 2, 7, -3),
    ]
    for group, spec, max_k, flat, delta in cases:
        system = relations_med(spec, I12_4, max_k)
        rel = system.relations[-1]
        bad_entries = list(rel.coefficients.entries)
        bad_entries[flat] += delta
        bad = Relation(
            rel.left_word,
            rel.right_word,
            ExactMatrix(rel.coefficients.rows, 1, bad_entries),
            rel.rhs,
        )
        broken = type(system)(system.spec, system.I, system.provenance, (bad,))
        real = OracleRealization(group, I12_4)
        report = verify_relations(broken, real)
        assert not report["passed"]
        witness = report["relations"][0]["witness"]
        assert witness == _ref_first_failure(bad, real)
        assert witness["element"] != 0


def test_incompatible_oracle_rejected():
    real = OracleRealization(OracleGroup.hyperoctahedral(4), I12_4)
    with pytest.raises(IncompatibleOracleError):
        verify_relations(relations_med(S4, I12_4, 1), real)
    real3 = OracleRealization(OracleGroup.symmetric(3), IndexSet.parse("1,2", 3))
    with pytest.raises(IncompatibleOracleError):
        verify_relations(relations_med(S4, I12_4, 1), real3)
    # A rational reflection fixing (1,1,1): it fixes the S(3) vectors of
    # lengths 1 and 2 but not the one-block vector of length 3.
    third = Fraction(1, 3)
    householder = OracleGroup.from_generators(
        [[[2 * third, -third, 2 * third], [-third, 2 * third, 2 * third],
          [2 * third, 2 * third, -third]]]
    )
    I12_3 = IndexSet.parse("1,2", 3)
    with pytest.raises(IncompatibleOracleError, match="'ooo'"):
        verify_relations(relations_med(S3, I12_3, 3), OracleRealization(householder, I12_3))


def test_med_spans_max():
    report = med_spans_max(S4, I12_4, 3)
    assert report["passed"]
    assert all(entry["contained"] for entry in report["words"])


def _ref_relations_max(spec, I, max_k):
    """relations_max row by row: T is row r of the projection, the rhs its
    sum over I^k, one new Relation per row."""
    words = [w for w in colored_words(max_k)[1:] if "b" not in w or not spec.self_conjugate]
    rels = []
    for word in words:
        P = projection_P(spec, word)
        i_flats = I.flat_indices(len(word))
        for r in range(P.rows):
            row = P.row(r)
            q = sum((row[j] for j in i_flats), Fraction(0))
            T = ExactMatrix(P.cols, 1, row)
            rels.append(Relation(word, "", T, ScaledScalar(q, len(word), I.m)))
    return RelationSystem(spec, I, "max-form", tuple(rels))


@pytest.mark.parametrize(
    "spec_text, members, max_k",
    [("S(3)", (0, 1), 3), ("S+(4)", (1, 2), 3), ("O(3)", (0,), 3), ("U(2)", (1,), 3)],
)
def test_max_form_rows_match_the_per_row_reference(spec_text, members, max_k):
    # one Relation per kernel, repeated in row order: the same system, the
    # same bytes, and every row of a kernel the very object of its first row
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(spec.N, members)
    system = relations_max(spec, I, max_k)
    reference = _ref_relations_max(spec, I, max_k)
    assert system == reference
    assert json.dumps(system.to_json()) == json.dumps(reference.to_json())
    words = list(dict.fromkeys(rel.left_word for rel in system.relations))
    assert any("b" in w for w in words) == (not spec.self_conjugate)
    pos = 0
    for word in words:
        kernels = kernel_ids(spec.N, len(word))
        rows = system.relations[pos : pos + len(kernels)]
        pos += len(kernels)
        first = {}
        for kernel, rel in zip(kernels, rows):
            assert rel.left_word == word
            assert rel is first.setdefault(kernel, rel)
        assert len({id(rel) for rel in rows}) == len(set(kernels))
    assert pos == len(system.relations)


@pytest.mark.parametrize(
    "source, spec_text",
    [(OracleGroup.symmetric(3), "S(3)"), (dual_z2(3), "U(3)")],
    ids=["SN(3)", "dualZ2(3)"],
)
def test_verdicts_of_distinct_copies_keep_their_bytes(source, spec_text):
    # value-equal copies share nothing, so each is evaluated on its own
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(3, (0, 1))
    system = relations_max(spec, I, 3)
    copies = tuple(Relation.from_json(rel.to_json()) for rel in system.relations)
    rebuilt = RelationSystem(system.spec, system.I, system.provenance, copies)
    assert rebuilt == system
    assert len({id(rel) for rel in copies}) == len(copies)
    real = OracleRealization(source, I)
    report = verify_relations(system, real)
    assert report["passed"]
    assert json.dumps(verify_relations(rebuilt, real)) == json.dumps(report)


def test_one_corrupted_occurrence_of_a_shared_row_fails_alone():
    # the second of three occurrences of one kernel's row gets rhs + 1/3:
    # the first and third stay the shared object and pass
    I = IndexSet.of(3, (0, 1))
    system = relations_max(S3, I, 3)
    rels = system.relations
    shared = next(rel for rel in rels if sum(other is rel for other in rels) >= 3)
    first, bad_pos, third = [pos for pos, rel in enumerate(rels) if rel is shared][:3]
    rhs = ScaledScalar(shared.rhs.q + Fraction(1, 3), shared.rhs.s, shared.rhs.m)
    bad = Relation(shared.left_word, shared.right_word, shared.coefficients, rhs)
    broken = RelationSystem(S3, I, "max-form", rels[:bad_pos] + (bad,) + rels[bad_pos + 1 :])
    real = OracleRealization(OracleGroup.symmetric(3), I)
    report = verify_relations(broken, real)
    failed = [entry for entry in report["relations"] if not entry["passed"]]
    assert [entry["index"] for entry in failed] == [bad_pos]
    assert failed[0]["witness"] == _ref_first_failure(bad, real)
    assert [entry["index"] for entry in report["relations"]] == list(range(len(rels)))
    assert report["relations"][first]["passed"] and report["relations"][third]["passed"]
    assert "witness" not in report["relations"][third]


def test_cached_compatibility_verdict_still_refuses(cold_caches):
    # HN(3) does not fix the all-ones vector, so S(3) is refused on it, on
    # the second call from the cached verdict
    I = IndexSet.of(3, (0, 1))
    system = relations_med(S3, I, 2)
    real = OracleRealization(OracleGroup.hyperoctahedral(3), I)
    for _ in range(2):
        with pytest.raises(IncompatibleOracleError, match="at word 'o'$"):
            verify_relations(system, real)
    assert _fixes_category.cache_info().hits >= 1


def test_relation_system_json_roundtrip():
    system = relations_hom(S4, I12_4, 1, 1)
    data = system.to_json()
    back = parse_relation_system(data)
    assert back.to_json() == data


def test_max_form_json_holds_one_dict_per_relation():
    # the rows of one kernel share one Relation, and so one dict
    system = relations_max(S3, IndexSet.parse("1,2", 3), 3)
    data = system.to_json()["relations"]
    assert len(data) == len(system.relations)
    distinct = {id(rel): rel for rel in system.relations}
    assert len({id(entry) for entry in data}) == len(distinct) < len(data)
    for rel, entry in zip(system.relations, data):
        assert entry is data[system.relations.index(rel)]
        assert entry == rel.to_json()


def test_parse_rejects_coefficients_of_the_wrong_shape():
    data = relations_med(S3, IndexSet.parse("1,2", 3), 2).to_json()
    pos = next(p for p, rel in enumerate(data["relations"]) if rel["left_word"] == "oo")
    assert len(data["relations"][pos]["T"]) == 9
    relabelled = json.loads(json.dumps(data))
    relabelled["relations"][pos].update(left_word="o", right_word="o")
    with pytest.raises(ParseError, match=rf"relation {pos}: T is 9x1, .* need 3x3"):
        parse_relation_system(relabelled)
    truncated = json.loads(json.dumps(data))
    del truncated["relations"][pos]["T"][-1]
    with pytest.raises(ParseError, match=rf"relation {pos}: T is 8x1, .* need 9x1"):
        parse_relation_system(truncated)


# (oracle, a spec whose category vectors it fixes, I members, max-k, max-l)
PARTITION_CASES = [
    ("SN(3)", "S(3)", (0, 1), 2, 2),
    ("SN(4)", "S(4)", (0, 2), 2, 1),
    ("HN(3)", "O(3)", (0,), 2, 2),
    ("HN(4)", "O(4)", (1, 2), 2, 2),
    ("householder-S3", "O(3)", (0, 1), 2, 2),
    ("dualZ2(3)", "U(3)", (0, 1), 2, 2),
    ("dualS3(12,13,23)", "U+(3)", (0, 2), 2, 2),
]


@pytest.mark.parametrize("literal, spec_text, members, max_k, max_l", PARTITION_CASES)
def test_partition_relations_verify_like_their_dense_operators(
    literal, spec_text, members, max_k, max_l
):
    # every partition of each word pair of the hom system, not only the
    # category's, with its own rhs m^|pi|, doubled, negated and + 1/3: the
    # report equals, byte for byte and witnesses included, that of the same
    # relations rebuilt with a dense T
    source = householder_conjugated_s3() if literal == "householder-S3" else parse_oracle(literal)
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(spec.N, members)
    pairs = dict.fromkeys(
        (rel.left_word, rel.right_word) for rel in relations_hom(spec, I, max_k, max_l).relations
    )
    rels = []
    for lw, kw in pairs:
        L = len(lw) + len(kw)
        for part in all_partitions(L):
            q = Fraction(I.m**part.block_count)
            for value in (q, 2 * q, -q, q + Fraction(1, 3)):
                rels.append(Relation.of_partition(lw, kw, part, spec.N, ScaledScalar(value, L, I.m)))
    dense = [Relation(rel.left_word, rel.right_word, rel.coefficients, rel.rhs) for rel in rels]
    real = OracleRealization(source, I)
    system = RelationSystem(spec, I, "hom-form", tuple(rels))
    reference = RelationSystem(spec, I, "hom-form", tuple(dense))
    assert system == reference
    report = verify_relations(system, real)
    assert json.dumps(report) == json.dumps(verify_relations(reference, real))
    failed = [entry for entry in report["relations"] if not entry["passed"]]
    assert len(failed) >= len(rels) // 2 and len(failed) < len(rels)


def test_a_partition_relation_equals_its_json_copy():
    for rel in relations_hom(CategorySpec("U", 3), IndexSet.of(3, (0, 1)), 2, 1).relations:
        copy = Relation.from_json(rel.to_json())
        assert rel.partition is not None and copy.partition is None
        assert copy == rel and rel == copy and hash(copy) == hash(rel)


@pytest.fixture
def dense_builders(monkeypatch):
    """Every call of partition_vector, frobenius_to_hom and
    hom_operator_space, recorded by name, through any module holding one."""
    calls = []
    for name, module in (
        ("partition_vector", partitions),
        ("frobenius_to_hom", frobenius),
        ("hom_operator_space", opspaces),
    ):
        original = getattr(module, name)

        def recorded(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for holder in (partitions, frobenius, opspaces, relations):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, recorded)
    return calls


@pytest.mark.parametrize(
    "literal, spec_text", [("SN(3)", "S(3)"), ("HN(3)", "O(3)"), ("dualZ2(3)", "U(3)")]
)
def test_partition_systems_build_and_verify_without_dense_operators(
    cold_caches, dense_builders, literal, spec_text
):
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(3, (0, 1))
    real = OracleRealization(parse_oracle(literal), I)
    for system in (relations_med(spec, I, 3), relations_hom(spec, I, 2, 2)):
        assert verify_relations(system, real)["passed"]
        assert dense_builders == []
    system.to_json()  # printing builds each T, through the recorded builders
    assert set(dense_builders) == {"partition_vector", "frobenius_to_hom"}


def test_dense_guard_fires_at_verification_and_output_not_at_build(cold_caches, monkeypatch):
    # a guard of 80 refuses N^k = 81 at N = 3, k = 4; systems with words of
    # that length still build, and verifying or printing them is refused
    # before any N^4 expansion: a signed index map, a dense push or a dual's
    # word values
    monkeypatch.setattr(partitions, "DENSE_GUARD", 80)
    lengths = []
    tensor_entries, push = oracle.tensor_entries, oracle._apply_tensor_power
    word_values = oracle.GroupDualData.word_values
    monkeypatch.setattr(oracle, "tensor_entries", lambda g, k: lengths.append(k) or tensor_entries(g, k))
    monkeypatch.setattr(
        oracle, "_apply_tensor_power", lambda g, v, n, k: lengths.append(k) or push(g, v, n, k)
    )
    monkeypatch.setattr(
        oracle.GroupDualData,
        "word_values",
        lambda self, word, *members: lengths.append(len(word)) or word_values(self, word, *members),
    )
    I = IndexSet.of(3, (0, 1))
    cases = (("HN(3)", "O(3)"), ("householder-S3", "O(3)"), ("dualZ2(3)", "U(3)"))
    for literal, spec_text in cases:
        source = householder_conjugated_s3() if literal == "householder-S3" else parse_oracle(literal)
        spec = CategorySpec.parse(spec_text)
        real = OracleRealization(source, I)
        for system in (relations_med(spec, I, 4), relations_hom(spec, I, 2, 2)):
            assert max(len(rel.left_word + rel.right_word) for rel in system.relations) == 4
            with pytest.raises(ResourceGuardError, match=r"3\^4"):
                verify_relations(system, real)
            with pytest.raises(ResourceGuardError, match=r"3\^4"):
                system.to_json()
            assert not any("coefficients" in vars(rel) for rel in system.relations)  # no T built
    assert set(lengths) == {1, 2}
