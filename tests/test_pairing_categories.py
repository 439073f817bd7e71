"""The categories built by construction, and the moments shared by the
words of one letter-order class.

S+, O, O+, U and U+ are enumerated point by point, never by filtering
all_partitions(k); their lists must still equal the filtered ones.  A U or
U+ point query reads the moment of its class representative (the sorted
word for U, the least rotation for U+); it must equal the sum read off the
word's own Gram data.
"""

import random
from fractions import Fraction

import pytest

from qhs import partitions, weingarten
from qhs.cli import main
from qhs.exact import ResourceGuardError, ScaledScalar
from qhs.partitions import (
    CategorySpec,
    all_partitions,
    category_size,
    colored_words,
    enumerate_category,
    fix_basis,
)
from qhs.relations import relations_med
from qhs.weingarten import IndexSet, ergodicity_check, integrate_G, integrate_X
from test_partitions import is_noncrossing, is_pairing

PAIRING_FAMILIES = ("O", "O+", "U", "U+")


def _filtered(parts, family: str, word: str) -> list:
    """The category's members as the filters of all_partitions give them."""
    return [
        p for p in parts
        if (family[0] == "S" or is_pairing(p))
        and (not family.endswith("+") or is_noncrossing(p))
        and (family[0] != "U" or all(word[a] != word[b] for a, b in p.blocks))
    ]


def _check_enumerators(parts, words, families=PAIRING_FAMILIES):
    for family in families:
        spec = CategorySpec(family, 2)
        expected = {}  # colors are invisible to S, S+, O and O+: one filter per length
        for word in words:
            key = word if family[0] == "U" else len(word)
            if key not in expected:
                expected[key] = _filtered(parts, family, word)
            assert enumerate_category(spec, word) == expected[key], (family, word)
            assert category_size(spec, word) == len(expected[key]), (family, word)


def test_pairing_enumerators_equal_the_filters_up_to_8_letters():
    for k in range(9):
        pairings = [p for p in all_partitions(k) if is_pairing(p)]
        _check_enumerators(pairings, [w for w in colored_words(k) if len(w) == k])


def test_s_and_s_plus_enumerators_equal_all_partitions_and_its_filter_up_to_8_letters():
    # S+ is built by the noncrossing rule, never by filtering all_partitions(k)
    for k in range(9):
        words = [w for w in colored_words(k) if len(w) == k]
        _check_enumerators(all_partitions(k), words, ("S", "S+"))


@pytest.mark.usefixtures("cold_caches")
def test_pairing_enumerators_equal_the_filters_on_sampled_long_words():
    rng = random.Random(29)
    for k in (9, 10):
        # uncached: the Bell(k) list is the reference only; its members are
        # interned while the test runs, and cold_caches drops them after it
        pairings = [p for p in all_partitions.__wrapped__(k) if is_pairing(p)]
        # as many of each color as k allows, then any coloring
        balanced = ["".join(rng.sample("ob" * (k // 2) + "o" * (k % 2), k)) for _ in range(12)]
        words = balanced + ["".join(rng.choice("ob") for _ in range(k)) for _ in range(4)]
        _check_enumerators(pairings, words + ["o" * k, ("ob" * k)[:k]])


def test_s_families_are_counted_as_they_are_listed():
    for family in ("S", "S+"):
        for k in range(9):
            spec = CategorySpec(family, 3)
            assert category_size(spec, "o" * k) == len(enumerate_category(spec, "o" * k))


@pytest.fixture
def bell_lists_refused(monkeypatch):
    """all_partitions(k) raises for k >= 9, wherever qhs reads it."""
    real = partitions.all_partitions

    def refused(k):
        if k >= 9:
            raise AssertionError(f"all_partitions({k}) was listed")
        return real(k)

    monkeypatch.setattr(partitions, "all_partitions", refused)


@pytest.mark.usefixtures("cold_caches", "bell_lists_refused")
def test_pairing_moments_and_relations_list_no_bell_sized_object():
    o3, u2 = CategorySpec("O+", 3), CategorySpec("U+", 2)
    ones10, ones12 = (0,) * 10, (0,) * 12
    mixed = ((0, 1, 1, 0, 0, 0, 1, 1, 0, 0), (0, 0, 1, 1, 0, 1, 1, 0, 0, 0))
    # the 10-letter values are those of the filters of all_partitions(10)
    assert integrate_G(o3, "o" * 10, ones10, ones10) == Fraction(26, 693)
    assert integrate_G(o3, "o" * 10, *mixed) == Fraction(1, 1008)
    assert integrate_G(u2, "ob" * 5, ones10, ones10) == Fraction(1, 6)
    assert integrate_G(u2, "ob" * 5, *mixed) == Fraction(1, 60)
    assert integrate_G(u2, "oobbobbobo", ones10, ones10) == Fraction(1, 18)
    # past the Bell(12) guard, which refused these words while they were filtered
    assert integrate_G(o3, "o" * 12, ones12, ones12) == Fraction(111, 4466)
    assert integrate_G(u2, "ob" * 6, ones12, ones12) == Fraction(1, 7)
    assert integrate_X(u2, IndexSet.of(2, (0,)), "ob" * 6, ones12) == ScaledScalar(
        Fraction(1, 7), 12, 1
    )
    system = relations_med(o3, IndexSet.of(3, (0, 1)), max_k=10)
    assert len(system.relations) == 64
    assert max(len(rel.left_word) for rel in system.relations) == 10
    # ergodicity walks the kernels in hits, not the Bell(k) list
    for spec, words in ((o3, ("o" * 10, "o" * 12)), (u2, ("ob" * 5, "ob" * 6))):
        for word in words:
            assert ergodicity_check(spec, IndexSet.of(spec.N, (0, 1)), word)["passed"], (spec, word)


@pytest.mark.parametrize(
    "spec, word, count",
    [("O(3)", "o" * 14, 135135), ("U+(2)", "ob" * 12, 208012)],
)
def test_long_pairing_words_are_refused_before_any_enumeration(
    monkeypatch, capsys, spec, word, count
):
    def never(*args):
        raise AssertionError("the category was enumerated")

    monkeypatch.setattr(partitions, "_category", never)
    what = f"the Gram matrix of {count} candidate partitions has "
    with pytest.raises(ResourceGuardError, match=what):
        fix_basis(CategorySpec.parse(spec), word)
    ones = ",".join("1" * len(word))
    code = main(["integrate-g", "--spec", spec, "--word", word, "--row", ones, "--col", ones])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"resource-guard-exceeded: {what}")


def test_letter_classes():
    assert weingarten._letter_class("U", "bobo") == ("oobb", [1, 3, 0, 2])
    assert weingarten._letter_class("U+", "obob") == ("bobo", [1, 2, 3, 0])
    assert weingarten._letter_class("U+", "oobo") == ("booo", [2, 3, 0, 1])
    assert weingarten._letter_class("U+", "") == ("", [])
    assert weingarten._letter_class("O", "oooo") == ("oooo", None)


def test_a_u_plus_word_is_rotated_never_sorted():
    u2, ones = CategorySpec("U+", 2), (0,) * 4
    assert integrate_G(u2, "obob", ones, ones) == Fraction(1, 3)
    assert integrate_G(u2, "oobb", ones, ones) == Fraction(1, 4)


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("family, classes", [("U", 5), ("U+", 6)])
def test_one_gram_per_letter_order_class(family, classes):
    # the 16 words of 4 letters fall into 5 sorted words and 6 necklaces
    spec = CategorySpec(family, 2)
    for word in colored_words(4)[-16:]:
        integrate_G(spec, word, (0, 1, 1, 0), (0, 0, 1, 1))
        integrate_X(spec, IndexSet.of(2, (0,)), word, (1, 1, 0, 1))
    assert weingarten._gram_data.cache_info().currsize == classes


def _own_sums(spec: CategorySpec, word: str, kernels: list) -> tuple:
    """Per kernel a, the sum of the Weingarten rows of the selected
    partitions below it, read straight off the word's own Gram data."""
    data = weingarten._gram_data(spec.family, spec.N, word)
    wrows, hits = data.weingarten_rows, data.hits
    sums = {a: [sum(col) for col in zip(*(wrows[t] for t in hits.get(a, ())))] for a in kernels}
    return data, sums


@pytest.mark.parametrize("family", ["U", "U+"])
@pytest.mark.parametrize("n, max_len", [(1, 6), (2, 6), (3, 4)])
def test_shared_moments_equal_each_words_own(family, n, max_len):
    spec = CategorySpec(family, n)
    for word in colored_words(max_len):
        k = len(word)
        kernels = [bytes(p.block_index) for p in all_partitions(k) if p.block_count <= n]
        data, sums = _own_sums(spec, word, kernels)
        for a in kernels:
            row = sums[a]
            for b in kernels:
                own = Fraction(sum(row[u] for u in data.hits.get(b, ())) if row else 0,
                               data.denominator)
                assert integrate_G(spec, word, tuple(a), tuple(b)) == own, (word, a, b)
            for m in range(1, n + 1):
                sizes = [m**part.block_count for part in data.basis.selected]
                own = Fraction(sum(map(int.__mul__, row, sizes)), data.denominator)
                found = integrate_X(spec, IndexSet.of(n, range(m)), word, tuple(a))
                assert found == ScaledScalar(own, k, m), (word, m, a)
