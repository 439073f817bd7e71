from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from qhs.exact import Echelon, ParseError, ResourceGuardError, flat_index
from qhs.partitions import (
    FAMILIES,
    SELF_CONJUGATE_FAMILIES,
    CategorySpec,
    SetPartition,
    all_partitions,
    bell,
    coarsenings,
    colored_words,
    conjugate_word,
    enumerate_category,
    fix_basis,
    format_partition,
    kernel_ids,
    kernel_position,
    parse_partition,
    partition_support,
    partition_vector,
    select_basis,
)

words = st.text(alphabet="ob", max_size=8)


# References for the tests, kept out of qhs, which never reads them.
def is_pairing(p: SetPartition) -> bool:
    return all(len(b) == 2 for b in p.blocks)


def is_noncrossing(p: SetPartition) -> bool:
    bi = p.block_index
    return not any(
        bi[a] == bi[c] and bi[b] == bi[d] and bi[a] != bi[b]
        for a, b, c, d in combinations(range(p.point_count), 4)
    )


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """The finest partition coarser than both: two points share a block iff
    a chain of blocks of p and q links them."""
    label = list(range(p.point_count))
    changed = True
    while changed:  # spread the least label over each block until none moves
        changed = False
        for block in p.blocks + q.blocks:
            low = min(label[x] for x in block)
            for x in block:
                changed |= label[x] != low
                label[x] = low
    classes = {}
    for x, v in enumerate(label):
        classes.setdefault(v, []).append(x)
    return SetPartition.from_blocks(p.point_count, classes.values())


@given(words)
def test_conjugation_is_an_involution(word):
    assert conjugate_word(conjugate_word(word)) == word


@given(words)
def test_conjugation_reverses_and_flips(word):
    conj = conjugate_word(word)
    assert len(conj) == len(word)
    for i, ch in enumerate(word):
        assert conj[len(word) - 1 - i] != ch


@st.composite
def indices(draw):
    n = draw(st.integers(1, 5))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=6))
    return n, tuple(idx)


@given(indices())
def test_kernel_position_matches_the_dense_table(case):
    # kernel_ids is the reference: every index's kernel, read off a full scan
    n, idx = case
    assert kernel_position(idx) == kernel_ids(n, len(idx))[flat_index(idx, n)]


@pytest.mark.parametrize("n, k", [(2, 8), (4, 5), (40, 3)])
def test_kernel_ids_is_the_kernel_of_every_index(n, k):
    # flat order is product order; the unmemoised lookup leaves the memo as it was
    position = kernel_position.__wrapped__
    assert kernel_ids(n, k) == tuple(map(position, product(range(n), repeat=k)))


def test_kernel_position_is_the_first_appearance_order():
    assert kernel_position((7, 2, 7)) == bytes(parse_partition("13|2").block_index)
    assert kernel_position((5, 5, 1, 0)) == bytes(parse_partition("12|3|4").block_index)
    assert kernel_position(()) == b""


def test_kernel_names_list_no_partitions_of_the_word():
    # all_partitions(12) is past the guard; a kernel is named by its string alone
    with pytest.raises(ResourceGuardError):
        all_partitions(12)
    assert kernel_position(tuple(range(12))) == bytes(range(12))
    assert kernel_position((3,) * 12) == bytes(12)
    pairing = SetPartition.from_blocks(12, [(p, p + 1) for p in range(0, 12, 2)])
    above = coarsenings(pairing)
    assert len(above) == len(set(above)) == bell(6)
    assert above[0] == bytes(12) and above[-1] == bytes(pairing.block_index)
    # a name is one byte per point, so 256 distinct values is the most a name holds
    assert kernel_position(tuple(range(256))) == bytes(range(256))
    with pytest.raises(ResourceGuardError):
        kernel_position(tuple(range(257)))


def test_kernel_ids_leaves_the_support_cache_empty():
    # kernel_ids is itself the cache of the supports it writes
    kernel_ids.cache_clear()
    partition_support.cache_clear()
    kid = kernel_ids(4, 5)
    assert partition_support.cache_info().currsize == 0
    # one shared name per kernel
    assert len({id(a) for a in kid}) == len(set(kid)) == 51


def test_partition_literals_roundtrip():
    for text in ("", "123", "12|34", "1|2|3", "14|2|3"):
        assert format_partition(parse_partition(text)) == text


def test_bad_literals_rejected():
    with pytest.raises(ParseError):
        parse_partition("13")  # does not cover 1..k
    with pytest.raises(ParseError):
        parse_partition("1a")


def test_canonical_enumeration_order_k3():
    assert [format_partition(p) for p in all_partitions(3)] == [
        "123",
        "12|3",
        "13|2",
        "1|23",
        "1|2|3",
    ]


def test_enumerate_s_family_counts_bell():
    spec = CategorySpec("S", 4)
    assert len(enumerate_category(spec, "ooo")) == 5


def test_enumerate_noncrossing_pairings_k4():
    spec = CategorySpec("O+", 4)
    pairs = enumerate_category(spec, "oooo")
    assert [format_partition(p) for p in pairs] == ["12|34", "14|23"]


def test_enumerate_unitary_needs_color_match():
    spec = CategorySpec("U", 3)
    assert enumerate_category(spec, "oo") == []
    matched = enumerate_category(spec, "ob")
    assert [format_partition(p) for p in matched] == ["12"]


def test_enumerate_pairings_odd_length_empty():
    assert enumerate_category(CategorySpec("O", 3), "ooo") == []


def test_partition_vector_examples():
    ones = partition_vector(SetPartition.from_blocks(1, [(0,)]), 3)
    assert ones.entries == (1, 1, 1)
    free = partition_vector(parse_partition("1|2"), 2)
    assert free.entries == (1, 1, 1, 1)
    diag = partition_vector(parse_partition("12"), 2)
    assert diag.entries == (1, 0, 0, 1)


def test_partition_support_lists_the_indices_constant_on_blocks():
    # against a brute-force scan of N^k in flat (product) order, and against
    # the support of the dense vector, for every partition of k <= 5 points
    for k in range(6):
        for n in range(1, 5):
            indices = list(product(range(n), repeat=k))
            for part in all_partitions(k):
                constant = [
                    f for f, idx in enumerate(indices)
                    if all(idx[p] == idx[block[0]] for block in part.blocks for p in block)
                ]
                support = partition_support(part, n)
                assert len(support) == n**part.block_count
                assert sorted(support) == constant, (str(part), n)
                vec = partition_vector(part, n).entries
                assert [f for f, x in enumerate(vec) if x] == constant and set(vec) <= {0, 1}


def test_join_examples():
    a = parse_partition("12|34")
    b = parse_partition("13|24")
    assert format_partition(join(a, b)) == "1234"
    top = parse_partition("1234")
    assert join(a, top) == top
    assert join(a, a) == a


def test_a_partition_is_held_as_its_restricted_growth_string():
    part = SetPartition.from_blocks(4, [(3, 1), (0, 2)])
    assert part.block_index == b"\x00\x01\x00\x01" and part.blocks == ((0, 2), (1, 3))
    assert (part.point_count, part.block_count) == (4, 2)
    assert part == parse_partition("13|24") and hash(part) == hash(part.block_index)
    for bad in (b"\x01", b"\x00\x02", b"\x00\x01\x03"):
        with pytest.raises(ValueError, match="not a restricted growth string"):
            SetPartition(bad)
    # overlapping, missing, negative and out-of-range points
    for blocks in ([(0, 1), (1, 2)], [(0,), (2,)], [(0, 1), (-1,)], [(0, 1, 2, 3)]):
        with pytest.raises(ValueError, match="do not partition"):
            SetPartition.from_blocks(3, blocks)


@pytest.mark.parametrize("k", range(6))
def test_join_block_count_matches_join(k):
    parts = all_partitions(k)
    for a in parts:
        for b in parts:
            assert a.join_block_count(b) == join(a, b).block_count, (a, b)


def partitions_of(k):
    return st.sampled_from(all_partitions(k))


@given(st.integers(min_value=0, max_value=5), st.data())
def test_join_lattice_properties(k, data):
    a = data.draw(partitions_of(k))
    b = data.draw(partitions_of(k))
    c = data.draw(partitions_of(k))
    assert join(a, b) == join(b, a)
    assert join(a, a) == a
    assert join(join(a, b), c) == join(a, join(b, c))
    assert join(a, b).block_count <= min(a.block_count, b.block_count)
    assert bytes(join(a, b).block_index) in coarsenings(a)


def test_select_basis_keeps_all_when_n_large():
    spec = CategorySpec("S", 4)
    basis = fix_basis(spec, "oo")
    assert basis.dimension == 2
    assert basis.independent == (0, 1)
    # full independence whenever N >= k
    assert fix_basis(spec, "oooo").dimension == 15
    assert fix_basis(CategorySpec("S", 3), "ooo").dimension == 5


def test_select_basis_drops_dependent_vectors_at_small_n():
    spec = CategorySpec("S", 2)
    basis = fix_basis(spec, "ooo")
    assert len(basis.members) == 5
    assert basis.dimension == 4
    # greedy scan keeps the earliest partitions that raise the rank
    assert basis.independent == (0, 1, 2, 3)


def test_select_basis_equals_the_full_greedy_scan():
    """The eliminating scan over every member's zeta row, Bell(k) wide,
    which keeps a member iff its row raises the rank, picks the same basis."""
    for family in FAMILIES:
        for word in colored_words(6):
            if family in SELF_CONJUGATE_FAMILIES and "b" in word:
                continue
            members = enumerate_category(CategorySpec(family, 1), word)
            kernels = all_partitions(len(word))
            for n in range(1, 5):
                span = Echelon()
                keep = tuple(
                    t for t, part in enumerate(members)
                    if span.add([
                        int(bytes(c.block_index) in coarsenings(part) and c.block_count <= n)
                        for c in kernels
                    ])
                )
                assert select_basis(members, n).independent == keep, (family, n, word)


def test_select_basis_empty_input():
    basis = select_basis([], 3)
    assert basis.dimension == 0 and basis.members == ()


def test_pairing_and_crossing_predicates():
    assert is_pairing(parse_partition("12|34"))
    assert not is_pairing(parse_partition("123"))
    assert is_noncrossing(parse_partition("12|34"))
    assert not is_noncrossing(parse_partition("13|24"))


def test_spec_parsing():
    assert str(CategorySpec.parse("S+(4)")) == "S+(4)"
    assert CategorySpec.parse("U(3)").N == 3
    with pytest.raises(ParseError):
        CategorySpec.parse("Q(4)")
    with pytest.raises(ParseError):
        CategorySpec.parse("S(x)")
