"""Relation checks with no N^k support and no dense projection.

Compatibility of a classical oracle of monomial generators is decided from
the blocks of each partition (`oracle.fixes_partitions`), and max-form rows
are held as integer weights over the word's selected partitions.  Both are
checked here against the dense paths they replace: `oracle.fixes` on each
`partition_support`, and the rows of `weingarten.projection_P`.
"""

import json
import random
from fractions import Fraction

import pytest

from qhs import oracle, relations, weingarten
from qhs.exact import ExactMatrix, ScaledScalar
from qhs.oracle import OracleGroup, OracleRealization, fixes, fixes_partitions, parse_oracle
from qhs.partitions import CategorySpec, all_partitions, colored_words, partition_support
from qhs.relations import Relation, RelationSystem, relations_max, verify_relations
from qhs.weingarten import IndexSet, projection_P
from test_oracle import householder_conjugated_s3


def _signed_permutation(perm, signs) -> ExactMatrix:
    """The matrix with entry signs[c] at (perm[c], c)."""
    n = len(perm)
    return ExactMatrix(n, n, [signs[c] if perm[c] == r else 0 for r in range(n) for c in range(n)])


def _random_signed_permutations(rng, n: int) -> list:
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(n))
        rng.shuffle(perm)
        gens.append(_signed_permutation(perm, [rng.choice((1, -1)) for _ in range(n)]))
    return gens


def _support_verdict(source, part) -> bool:
    flats = partition_support(part, source.N)
    return fixes(source, "o" * part.point_count, [(flats, [1] * len(flats))])


def _verdicts(source, max_k: int = 5) -> dict:
    """(block verdict, support verdict) per partition of every k <= max_k."""
    return {
        part: (
            fixes_partitions(source, "o" * part.point_count, [part]),
            _support_verdict(source, part),
        )
        for k in range(max_k + 1)
        for part in all_partitions(k)
    }


def test_block_verdict_matches_the_support_push_on_random_signed_permutations():
    # 15 seeded generator sets per N <= 4, every partition of k <= 5:
    # 60 * 76 = 4,560 cases, with both verdicts present
    rng = random.Random(2026)
    seen = set()
    cases = 0
    for n in range(1, 5):
        for _ in range(15):
            group = OracleGroup.from_generators(_random_signed_permutations(rng, n))
            for part, (block, support) in _verdicts(group).items():
                assert block == support, (n, group.generators, part)
                seen.add(block)
                cases += 1
    assert cases == 4560
    assert seen == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minus_identity_fixes_exactly_the_even_partition_vectors(n):
    minus = OracleGroup.from_generators([_signed_permutation(range(n), [-1] * n)])
    for part, (block, support) in _verdicts(minus).items():
        assert block == support == (part.point_count % 2 == 0)


def test_one_flipped_sign_changes_a_verdict_on_both_paths():
    # SN(3)'s generators fix every partition vector; with one entry of one
    # generator negated, the block rule and the support push still agree
    # and now refuse, among others, the all-ones vector at k = 1
    perms = [(1, 0, 2), (0, 2, 1)]
    plain = OracleGroup.from_generators([_signed_permutation(p, [1, 1, 1]) for p in perms])
    flipped = OracleGroup.from_generators(
        [_signed_permutation(perms[0], [1, -1, 1]), _signed_permutation(perms[1], [1, 1, 1])]
    )
    before, after = _verdicts(plain), _verdicts(flipped)
    assert all(block and support for block, support in before.values())
    assert all(block == support for block, support in after.values())
    changed = [part for part in before if before[part] != after[part]]
    assert all_partitions(1)[0] in changed
    assert any(block for block, _ in after.values())  # not every verdict flips


def test_block_rule_skips_the_supports_only_for_monomial_oracles(cold_caches, monkeypatch):
    # the support path reads each partition_support; HN(3) never does, the
    # householder group and a dual do
    listed = []
    real = oracle.partition_support
    recorded = lambda part, n: listed.append(part) or real(part, n)
    monkeypatch.setattr(oracle, "partition_support", recorded)
    parts = all_partitions(3)
    assert not fixes_partitions(parse_oracle("HN(3)"), "ooo", parts)
    assert fixes_partitions(parse_oracle("HN(3)"), "oooo", all_partitions(4)[:1])
    assert listed == []
    assert not fixes_partitions(householder_conjugated_s3(), "ooo", parts)
    assert listed
    listed.clear()
    assert not fixes_partitions(parse_oracle("dualZ2(3)"), "ooo", parts)
    assert listed


# every family at small N; S+ and O+ at N = 4, where they differ from S and O
PROJECTION_SPECS = ["S(3)", "O(3)", "U(2)", "S+(4)", "O+(4)", "U+(2)", "U(3)", "S(2)"]


@pytest.mark.parametrize("spec_text", PROJECTION_SPECS)
def test_weight_held_rows_are_the_projection_rows(spec_text):
    # T, built on first read from the weights, is row r of the projection
    # entry for entry (Fractions with the same text), and the rhs is the
    # row's sum over I^k
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(spec.N, (0,))
    system = relations_max(spec, I, 3)
    pos = 0
    for word in [w for w in colored_words(3)[1:] if "b" not in w or not spec.self_conjugate]:
        P = projection_P(spec, word)
        i_flats = I.flat_indices(len(word))
        for r in range(P.rows):
            rel = system.relations[pos]
            pos += 1
            assert rel.left_word == word and rel.right_word == ""
            assert rel.terms is not None
            row = P.row(r)
            assert rel.coefficients.entries == row
            assert rel.coefficients.to_string_rows() == ExactMatrix(P.cols, 1, row).to_string_rows()
            q = sum((row[j] for j in i_flats), Fraction(0))
            assert rel.rhs == ScaledScalar(q, len(word), I.m)
    assert pos == len(system.relations)


def _dense_copy(system: RelationSystem) -> RelationSystem:
    """The system with every distinct relation object rebuilt with a dense T;
    repeats stay one object."""
    copies = {}
    for rel in system.relations:
        if id(rel) not in copies:
            copies[id(rel)] = Relation(rel.left_word, rel.right_word, rel.coefficients, rel.rhs)
    rels = tuple(copies[id(rel)] for rel in system.relations)
    return RelationSystem(system.spec, system.I, system.provenance, rels)


@pytest.mark.parametrize(
    "literal, spec_text, members",
    [
        ("SN(3)", "S(3)", (0, 1)),
        ("HN(3)", "O(3)", (0,)),
        ("dualZ2(3)", "U(3)", (0, 1)),
        ("dualS3(12,13,23)", "U+(3)", (0, 2)),
    ],
)
def test_weight_held_rows_verify_like_their_dense_copies(literal, spec_text, members):
    # the max system, with one row's rhs raised by 1/3 in a weight-held
    # relation of its own: the report equals that of the dense copies byte
    # for byte, the tampered row's witness included
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(spec.N, members)
    system = relations_max(spec, I, 3)
    # the first relation with the most terms
    pos, rel = max(enumerate(system.relations), key=lambda pair: len(pair[1].terms))
    k = len(rel.left_word)
    rhs = ScaledScalar(rel.rhs.rescale(k) + Fraction(1, 3), k, I.m)
    parts, weights = zip(*rel.terms)
    bad = Relation.of_weights(rel.left_word, "", parts, weights, rel.denominator, spec.N, rhs)
    rels = system.relations[:pos] + (bad,) + system.relations[pos + 1 :]
    tampered = RelationSystem(spec, I, system.provenance, rels)
    real = OracleRealization(parse_oracle(literal), I)
    for held, dense in ((system, _dense_copy(system)), (tampered, _dense_copy(tampered))):
        assert held == dense
        report = verify_relations(held, real)
        assert json.dumps(report) == json.dumps(verify_relations(dense, real))
    assert verify_relations(system, real)["passed"]
    failed = [entry for entry in report["relations"] if not entry["passed"]]
    assert [entry["index"] for entry in failed] == [pos]
    assert "witness" in failed[0]


@pytest.mark.parametrize("literal, spec_text", [("SN(3)", "S(3)"), ("dualZ2(3)", "U(3)")])
def test_max_systems_build_and_verify_without_projection_or_T(
    cold_caches, monkeypatch, literal, spec_text
):
    # neither the projection nor a dense T's common denominator is computed
    def refused(*args):
        raise AssertionError("a dense path ran")

    monkeypatch.setattr(weingarten, "_projection", refused)
    monkeypatch.setattr(relations, "common_denominator", refused)
    spec = CategorySpec.parse(spec_text)
    I = IndexSet.of(3, (0, 1))
    system = relations_max(spec, I, 3)
    assert verify_relations(system, OracleRealization(parse_oracle(literal), I))["passed"]
    assert not any("coefficients" in vars(rel) for rel in system.relations)
