from fractions import Fraction
from itertools import product

import pytest

from qhs.exact import DomainError, ScaledScalar
from qhs.oracle import OracleGroup, brute_integrate_G
from qhs.partitions import CategorySpec, enumerate_category, partition_vector
from qhs.weingarten import (
    IndexSet,
    K_vector,
    ergodicity_check,
    gram_weingarten,
    integrate_G,
    integrate_X,
    moment_table,
    projection_P,
)

S4 = CategorySpec("S", 4)
O3 = CategorySpec("O", 3)
I12 = IndexSet.parse("1,2", 4)


def test_gram_single_pairing():
    data = gram_weingarten(O3, "oo")
    assert data.gram.to_rows() == [[3]]
    assert data.weingarten.to_rows() == [[Fraction(1, 3)]]


def test_gram_o4_three_pairings():
    data = gram_weingarten(CategorySpec("O", 4), "oooo")
    assert data.gram.to_rows() == [[16, 4, 4], [4, 16, 4], [4, 4, 16]]
    assert (data.weingarten * data.gram).is_identity()
    assert (data.gram * data.weingarten).is_identity()


def test_gram_s4_k1():
    data = gram_weingarten(S4, "o")
    assert data.gram.to_rows() == [[4]]
    assert data.weingarten.to_rows() == [[Fraction(1, 4)]]


def test_gram_matches_entrywise_inner_products():
    # both halves of the symmetric Gram matrix, on non-palindromic words too
    for family, n, word in (
        ("S", 3, "oooo"),
        ("O", 4, "oooo"),
        ("U+", 3, "obob"),
        ("U", 3, "oobb"),
        ("U+", 3, "oobb"),
        ("S+", 4, "ooooo"),
    ):
        data = gram_weingarten(CategorySpec(family, n), word)
        sel = data.basis.selected
        for a, (_, va) in enumerate(sel):
            for b, (_, vb) in enumerate(sel):
                assert data.gram.at(a, b) == va.dot(vb)


def test_projection_s4_k1_uniform():
    P = projection_P(S4, "o")
    assert all(x == Fraction(1, 4) for x in P.entries)
    # cross-check against brute-force averaging over the 24 permutations
    sn4 = OracleGroup.symmetric(4)
    for i in range(4):
        for j in range(4):
            assert P.at(i, j) == brute_integrate_G(sn4, "o", (i,), (j,))


def test_projection_o3_k2_entry():
    P = projection_P(O3, "oo")
    assert P.at(0, 4) == Fraction(1, 3)  # row (0,0), column (1,1) at N=3
    assert P.at(0, 0) == Fraction(1, 3)


def test_projection_empty_word():
    P = projection_P(S4, "")
    assert P.to_rows() == [[1]]


def test_integrate_g_examples():
    assert integrate_G(S4, "o", (0,), (0,)) == Fraction(1, 4)
    assert integrate_G(S4, "oo", (0, 1), (0, 1)) == Fraction(1, 12)
    assert integrate_G(O3, "oo", (0, 0), (0, 0)) == Fraction(1, 3)


def test_integrate_g_bad_index():
    with pytest.raises(DomainError):
        integrate_G(S4, "o", (4,), (0,))


def test_projection_idempotent_and_fixes_members():
    for spec, word in ((S4, "oo"), (O3, "oo"), (CategorySpec("U", 3), "ob")):
        P = projection_P(spec, word)
        assert P * P == P
        for part in enumerate_category(spec, word):
            xi = partition_vector(part, spec.N).as_column()
            assert P * xi == xi


def test_k_vector_examples():
    assert K_vector(S4, "o", I12) == [ScaledScalar(Fraction(2), 1, 2)]
    ks = K_vector(S4, "oo", I12)
    # canonical order: the full block 12 first, then 1|2
    assert ks[0] == ScaledScalar(Fraction(1), 0, 2)  # count 2 at scale 1/m
    assert ks[1] == ScaledScalar(Fraction(2), 0, 2)  # count 4 at scale 1/m
    full = IndexSet.parse("1,2,3,4", 4)
    assert K_vector(S4, "", full) == [ScaledScalar(Fraction(1), 0, 4)]


def test_integrate_x_examples():
    v = integrate_X(S4, I12, "o", (0,))
    assert v == ScaledScalar(Fraction(1, 2), 1, 2)  # sqrt(2)/4
    assert v.value() == pytest.approx(2**0.5 / 4)
    assert integrate_X(S4, I12, "", ()) == 1
    full = IndexSet.parse("1,2,3,4", 4)
    assert integrate_X(S4, full, "o", (0,)) == ScaledScalar(Fraction(1, 2), 0, 4)


def test_scaled_moment_always_rational():
    for word in ("", "o", "oo", "ob", "oob"):
        for idx in product(range(4), repeat=len(word)):
            v = integrate_X(S4, I12, word, idx)
            v.rescale(len(word))  # must not raise


def test_sphere_normalisation_sums_to_one():
    for spec, I in ((S4, I12), (O3, IndexSet.parse("1", 3)), (CategorySpec("U+", 3), IndexSet.parse("1,2", 3))):
        total = ScaledScalar(Fraction(0), 0, I.m)
        for i in range(spec.N):
            total = total + integrate_X(spec, I, "ob", (i, i))
        assert total == 1


def test_moment_table_empty_word_is_one():
    table = moment_table(S4, I12, ["", "o"])
    assert table[("", ())] == 1
    assert len(table) == 5


def test_ergodicity_classical_and_free():
    for word in ("", "o", "oo", "ooo"):
        assert ergodicity_check(S4, I12, word)["passed"]
    up3 = CategorySpec("U+", 3)
    I1 = IndexSet.parse("1", 3)
    for word in ("", "o", "b", "ob", "bo", "oo", "oob"):
        assert ergodicity_check(up3, I1, word)["passed"]


def test_ergodicity_report_shape():
    report = ergodicity_check(S4, I12, "oo")
    assert report["spec"] == "S(4)"
    assert report["I"] == "1,2"
    assert report["counterexample"] is None


def test_index_set_parsing():
    assert IndexSet.parse("1,2", 4).sorted_members == (0, 1)
    assert str(IndexSet.parse("2,1", 4)) == "1,2"
    with pytest.raises(Exception):
        IndexSet.parse("0,1", 4)
    with pytest.raises(Exception):
        IndexSet.parse("5", 4)


def test_gram_cache_shares_selfconjugate_colorings():
    a = projection_P(S4, "oo")
    b = projection_P(S4, "ob")
    assert a is b
    u3 = CategorySpec("U", 3)
    assert projection_P(u3, "oo") is not projection_P(u3, "ob")
