import json
import math
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, product

import pytest

from qhs.exact import (
    ClosureCapError,
    DomainError,
    ExactMatrix,
    ParseError,
    ScaledScalar,
    rank_nullspace,
)
from qhs.oracle import (
    GroupDualData,
    OracleGroup,
    OracleRealization,
    brute_integrate_G,
    build_group,
    dual_matrix_moment,
    dual_s3,
    dual_X_moment,
    dual_z2,
    fixed_space,
    fixes,
    hom_dimension,
    normal_closure_compare,
    orbit_moment,
    parse_oracle,
    tensor_entries,
)
from qhs.opspaces import grid_cells, hom_operator_space
from qhs.partitions import colored_words, parse_partition, partition_vector
from qhs.weingarten import IndexSet


def averaging_operator(source, word: str) -> ExactMatrix:
    """The Haar average of the word's tensor representation, as a dense
    matrix: the definition the fixed spaces are checked against."""
    size = source.N ** len(word)
    entries = [0] * (size * size)
    if isinstance(source, OracleGroup):
        for (fi, fj), val in source.moment_table(len(word)).items():
            entries[fi * size + fj] = val
    else:
        for flat, value in enumerate(source.word_values(word)):
            if value == source.identity:
                entries[flat * size + flat] = 1
    return ExactMatrix(size, size, entries)


def tensor_power(g: ExactMatrix, k: int) -> ExactMatrix:
    """g tensor ... tensor g (k factors), dense; the 1 x 1 identity at k = 0."""
    return reduce(ExactMatrix.kron, (g,) * k, ExactMatrix.identity(1))


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


def dual_integrate_G(dual: GroupDualData, word: str, row: tuple, col: tuple) -> Fraction:
    """Dual moments: off-diagonal entries vanish, diagonal ones reduce words."""
    if row != col:
        return Fraction(0)
    return Fraction(int(dual.word_value(word, row) == dual.identity))


def test_symmetric_group_order():
    assert len(OracleGroup.symmetric(4)) == 24
    assert len(build_group("SN(3)")) == 6


def test_hyperoctahedral_order():
    assert len(build_group("HN(2)")) == 8
    assert len(OracleGroup.hyperoctahedral(3)) == 48


def test_closure_of_nonclosed_generators():
    cycle = ExactMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    group = OracleGroup.from_generators([cycle])
    assert len(group) == 3


def test_closure_cap_enforced(monkeypatch):
    monkeypatch.setenv("QHS_MAX_CLOSURE", "10")
    with pytest.raises(ClosureCapError):
        OracleGroup.symmetric(4)


@pytest.mark.parametrize("family", ["SN", "HN"])
def test_empty_permutation_groups_are_rejected(family):
    with pytest.raises(ParseError, match=f"^{family} needs n >= 1$"):
        build_group(f"{family}(0)")
    constructor = OracleGroup.symmetric if family == "SN" else OracleGroup.hyperoctahedral
    with pytest.raises(ParseError, match=f"^{family} needs n >= 1$"):
        constructor(0)


def test_closure_keeps_breadth_first_insertion_order():
    # element order is output: classical evaluation points are labelled by position
    sn3 = [
        (1, 0, 0, 0, 1, 0, 0, 0, 1),
        (0, 1, 0, 1, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 1, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 1, 0, 1, 0, 0),
    ]
    assert [g.entries for g in OracleGroup.symmetric(3).elements] == sn3
    dual = dual_s3([(1, 2), (1, 3), (2, 3)])
    assert dual.subgroup(dual.generators[:2]) == [
        (0, 1, 2), (1, 0, 2), (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1)
    ]
    assert dual.subgroup(dual.generators[2:]) == [(0, 1, 2), (0, 2, 1)]


def test_closure_cap_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("QHS_MAX_CLOSURE", "5")
    with pytest.raises(ClosureCapError):
        build_group("SN(4)")
    monkeypatch.setenv("QHS_MAX_CLOSURE", "50")
    assert len(build_group("SN(4)")) == 24


def test_gens_file_roundtrip(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[["0", "1"], ["1", "0"]]]), encoding="utf-8")
    group = build_group(f"gens({path})")
    assert len(group) == 2


@pytest.mark.parametrize("content", ["[]", "[[]]"])
def test_gens_file_without_a_size_is_rejected(tmp_path, content):
    # no generator, or a 0 x 0 one, fixes no N >= 1; SN(1) still closes over []
    path = tmp_path / "empty.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError):
        build_group(f"gens({path})")
    assert OracleGroup.from_generators([]).N == 1


def test_non_orthogonal_generator_rejected():
    shear = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(DomainError):
        OracleGroup.from_generators([shear])


def test_brute_moments():
    sn4 = OracleGroup.symmetric(4)
    assert brute_integrate_G(sn4, "o", (0,), (0,)) == Fraction(1, 4)
    assert brute_integrate_G(sn4, "oo", (0, 1), (0, 1)) == Fraction(1, 12)
    assert brute_integrate_G(sn4, "", (), ()) == 1


def test_brute_moments_signed():
    hn2 = OracleGroup.hyperoctahedral(2)
    # odd moments vanish under the sign flip
    assert brute_integrate_G(hn2, "o", (0,), (0,)) == 0
    assert brute_integrate_G(hn2, "oo", (0, 0), (0, 0)) == Fraction(1, 2)


def test_dual_integrate():
    z2 = dual_z2(2)
    assert dual_integrate_G(z2, "oo", (0, 0), (0, 0)) == 1
    assert dual_integrate_G(z2, "o", (0,), (0,)) == 0
    assert dual_integrate_G(z2, "oo", (0, 0), (0, 1)) == 0


def test_fixed_space_dimensions():
    sn4 = OracleGroup.symmetric(4)
    assert len(fixed_space(sn4, "oo")) == 2
    assert len(fixed_space(sn4, "ooo")) == 5
    z2 = dual_z2(2)
    vecs = fixed_space(z2, "oo")
    assert [v.entries for v in vecs] == [
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_oracles_are_frozen_values():
    group = OracleGroup.symmetric(3)
    with pytest.raises(AttributeError):
        group.name = "other"
    with pytest.raises(AttributeError):
        group.elements = ()
    dual = dual_z2(2)
    with pytest.raises(AttributeError):
        dual.identity = (1, 1)
    with pytest.raises(TypeError):
        dual.index[(1, 1)] = 0
    # classical oracles are equal by their generators, so two parses of one
    # literal share every cached table; a dual is equal only to itself
    first, second = parse_oracle("SN(3)"), parse_oracle("SN(3)")
    assert first == second and hash(first) == hash(second) and first is not second
    assert first.moment_table(2) is second.moment_table(2)
    I = IndexSet.of(3, [0, 1])
    assert first.coordinate_table(I) is second.coordinate_table(I)
    assert OracleGroup.symmetric(3) != OracleGroup.hyperoctahedral(3)
    assert dual == dual and dual != dual_z2(2)
    assert dual.regular_matrix((1, 0)) is dual.regular_matrix((1, 0))


def test_cold_caches_empties_method_caches_and_every_module(request):
    # cached methods live in class dicts, and frobenius has a cache of its own
    from qhs.frobenius import frobenius_map

    group, dual = OracleGroup.symmetric(2), dual_z2(2)
    group.moment_table(1)
    group.coordinate_table(IndexSet.of(2, [0]))
    dual.regular_matrix(dual.identity)
    frobenius_map(2, 1, 1)
    request.getfixturevalue("cold_caches")
    for cached in (
        OracleGroup.moment_table, OracleGroup.coordinate_table,
        GroupDualData.regular_matrix, frobenius_map,
    ):
        assert cached.cache_info().currsize == 0, cached


def test_hom_space_dimensions():
    assert hom_operator_space(OracleGroup.symmetric(3), "o", "o").dimension == 2
    assert hom_operator_space(OracleGroup.hyperoctahedral(3), "o", "o").dimension == 1
    assert hom_operator_space(OracleGroup.symmetric(3), "", "").dimension == 1


def oracle_source(literal):
    if literal == "householder-S3":
        return householder_conjugated_s3()
    if literal == "no-generators":
        return OracleGroup.from_generators([])
    if literal == "dualZ4(1,3)":
        return cyclic_dual(4, [1, 3])
    return parse_oracle(literal)


@pytest.mark.parametrize(
    "literal",
    [
        "dualZ2(3)",
        "dualZ2(4)",
        "dualS3(12,13,23)",
        "SN(3)",
        "SN(4)",
        "HN(3)",
        "householder-S3",
        "no-generators",
    ],
)
def test_fixed_space_is_the_nullspace_of_the_average(literal):
    # classical bases come from the generators' equations and a dual's from
    # its word values; the dense nullspace of (average - identity) is the
    # definition both must reproduce exactly
    source = oracle_source(literal)
    for word in colored_words(3):
        op = averaging_operator(source, word)
        _, basis, _ = rank_nullspace(op - ExactMatrix.identity(op.rows))
        fixed = fixed_space(source, word)
        assert [(xi.rows, xi.cols) for xi in fixed] == [(op.rows, 1)] * len(basis)
        assert [xi.entries for xi in fixed] == basis
        assert [list(map(type, xi.entries)) for xi in fixed] == [list(map(type, v)) for v in basis]


def test_fixed_space_is_shared_by_equal_oracles():
    # cached by the oracle, equal by its generators, so two parses of one
    # literal share it
    assert fixed_space(parse_oracle("SN(3)"), "ob") is fixed_space(build_group("SN(3)"), "oo")
    assert fixed_space(OracleGroup.from_generators([]), "ooo") == (ExactMatrix(1, 1, (1,)),)


@pytest.mark.parametrize(
    "literal",
    ["SN(3)", "HN(3)", "dualZ2(3)", "dualS3(12,13,23)", "householder-S3", "dualZ4(1,3)"],
)
def test_hom_dimension_counts_the_intertwiners(literal):
    # the character average (classical) and the word-value pairs (dual)
    # count what the hom space spans, without reading any fixed vector
    source = oracle_source(literal)
    for k_word, l_word in grid_cells(3):
        hom = hom_operator_space(source, k_word, l_word)
        assert hom_dimension(source, k_word, l_word) == hom.dimension


def test_averaging_operator_idempotent():
    for source in (OracleGroup.symmetric(3), dual_z2(2)):
        for word in ("oo", "ob"):
            op = averaging_operator(source, word)
            assert op * op == op


def test_orbit_moments():
    sn4 = OracleGroup.symmetric(4)
    I = IndexSet.parse("1,2", 4)
    assert orbit_moment(sn4, I, "o", (0,)) == ScaledScalar(Fraction(1, 2), 1, 2)
    full = IndexSet.parse("1,2,3,4", 4)
    assert orbit_moment(sn4, full, "o", (0,)) == ScaledScalar(Fraction(1, 2), 0, 4)
    assert orbit_moment(sn4, I, "", ()) == 1


def test_dual_moments_and_matrix_crosscheck():
    z2 = dual_z2(2)
    I1 = IndexSet.parse("1", 2)
    assert dual_X_moment(z2, I1, "oo", (0, 0)) == 1
    assert dual_X_moment(z2, I1, "oo", (1, 1)) == 0
    assert dual_X_moment(z2, I1, "o", (0,)) == 0
    for word in ("", "o", "b", "oo", "ob", "bob"):
        for idx in product(range(2), repeat=len(word)):
            assert dual_X_moment(z2, I1, word, idx) == dual_matrix_moment(
                z2, I1, word, idx
            )


def test_normal_closure_compare():
    s3 = dual_s3([(1, 2), (1, 3), (2, 3)])
    report = normal_closure_compare(s3, IndexSet.parse("1", 3))
    assert (report["subgroup_order"], report["normal_closure_order"]) == (2, 6)
    assert report["proper"] is True
    z2 = dual_z2(2)
    assert normal_closure_compare(z2, IndexSet.parse("1", 2))["proper"] is False
    assert normal_closure_compare(z2, IndexSet.parse("1,2", 2))["proper"] is False


def test_dual_generators_must_generate():
    z2 = dual_z2(2)
    with pytest.raises(DomainError):
        GroupDualData(
            z2.elements,
            z2.multiply,
            z2.invert,
            z2.identity,
            [(1, 0), (1, 0)],
        )


def test_realization_validates_sphere_relation():
    sn4 = OracleGroup.symmetric(4)
    real = OracleRealization(sn4, IndexSet.parse("1,2", 4))
    assert real.classical
    dual = OracleRealization(dual_z2(2), IndexSet.parse("1", 2))
    assert not dual.classical
    with pytest.raises(DomainError):
        OracleRealization(sn4, IndexSet.parse("1", 3))


def test_parse_oracle_literals():
    assert len(parse_oracle("SN(3)")) == 6
    assert parse_oracle("dualZ2(3)").N == 3
    assert parse_oracle("dualS3(12,13,23)").N == 3
    with pytest.raises(Exception):
        parse_oracle("XX(3)")


def test_moment_table_matches_weingarten_s5():
    # the S-family Weingarten data must reproduce brute-force averaging at
    # N=5 as well; full sweep through k=3 plus a slice of k=4
    from qhs.partitions import CategorySpec
    from qhs.weingarten import integrate_G

    s5 = CategorySpec("S", 5)
    sn5 = OracleGroup.symmetric(5)
    for k in range(4):
        for i in product(range(5), repeat=k):
            for j in product(range(5), repeat=k):
                assert integrate_G(s5, "o" * k, i, j) == brute_integrate_G(
                    sn5, "o" * k, i, j
                )
    idx = (0, 1, 2, 0)
    for j in product(range(5), repeat=4):
        assert integrate_G(s5, "oooo", idx, j) == brute_integrate_G(
            sn5, "oooo", idx, j
        )


def test_fixed_space_dimension_matches_partition_span():
    from qhs.partitions import CategorySpec, fix_basis

    for n in (3, 4):
        group = OracleGroup.symmetric(n)
        spec = CategorySpec("S", n)
        for k in range(4):
            assert len(fixed_space(group, "o" * k)) == fix_basis(spec, "o" * k).dimension


def householder_reflection():
    # reflection along (1,2,2) keeps entries rational but nothing monomial
    v = (1, 2, 2)
    return ExactMatrix.from_rows(
        [[Fraction(int(r == c)) - Fraction(2 * v[r] * v[c], 9) for c in range(3)] for r in range(3)]
    )


def householder_conjugated_s3():
    h = householder_reflection()
    swap01 = ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap12 = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    return OracleGroup.from_generators([h * swap01 * h, h * swap12 * h])


def test_generic_rational_group_uses_dense_paths():
    group = householder_conjugated_s3()
    assert len(group) == 6
    assert any(monomial_form(g) is None for g in group.elements)
    assert brute_integrate_G(group, "", (), ()) == 1
    op = averaging_operator(group, "oo")
    assert op * op == op
    # invariant-space dimensions are conjugation invariants of S_3
    assert len(fixed_space(group, "o")) == 1
    assert len(fixed_space(group, "oo")) == 2
    # Fraction rows in, primitive integer invariant vectors out
    for word in ("o", "oo"):
        op = averaging_operator(group, word)
        for xi in fixed_space(group, word):
            assert all(isinstance(x, int) for x in xi.entries)
            assert math.gcd(*xi.entries) == 1
            assert op * xi == xi


def test_dense_moment_table_is_the_conjugated_monomial_table():
    # the Householder group is h S_3 h with h = h^T = h^-1, so its averaged
    # g^(tensor k) is h^(tensor k) A h^(tensor k) for SN(3)'s average A
    group = householder_conjugated_s3()
    h = householder_reflection()
    assert h * h == ExactMatrix.identity(3) and h == h.transpose()
    sn3 = OracleGroup.symmetric(3)
    assert all(monomial_form(g) is not None for g in sn3.elements)
    assert any(monomial_form(g) is None for g in group.elements)
    for k in range(4):
        hk = tensor_power(h, k)
        expected = hk * averaging_operator(sn3, "o" * k) * hk
        assert averaging_operator(group, "o" * k) == expected


@pytest.mark.parametrize("literal", ["SN(3)", "HN(3)", "householder-S3"])
def test_tensor_entries_are_the_nonzero_entries_of_the_tensor_power(literal):
    # entry for entry against the dense Kronecker chain, each listed once;
    # at k = 1 the columns read 0..N-1 exactly when g is monomial
    for g in oracle_source(literal).generators:
        n = g.rows
        assert (tensor_entries(g, 1)[1] == list(range(n))) == (monomial_form(g) is not None)
        for k in range(4):
            rows, cols, vals = tensor_entries(g, k)
            dense = tensor_power(g, k)
            nonzero = {(f // dense.cols, f % dense.cols): x for f, x in enumerate(dense.entries) if x}
            assert len(rows) == len(cols) == len(vals) == len(nonzero)
            assert dict(zip(zip(rows, cols), vals)) == nonzero
            if monomial_form(g) is not None:  # one entry per column, in column order
                assert cols == list(range(n**k))


def sparse(vec: ExactMatrix) -> tuple:
    """A dense column as the (flats, values) of its nonzero entries."""
    flats = [f for f, x in enumerate(vec.entries) if x]
    return flats, [vec.entries[f] for f in flats]


def test_fixes_reads_each_kind_of_generator():
    # signed index maps (SN, HN), the dense axis-by-axis product (Householder),
    # and word values on the support (a dual), each accepting its own fixed
    # vectors and rejecting one it moves
    ones = sparse(ExactMatrix(3, 1, (1, 1, 1)))
    assert fixes(OracleGroup.symmetric(3), "o", [ones])
    assert not fixes(OracleGroup.hyperoctahedral(3), "o", [ones])
    group = householder_conjugated_s3()
    assert fixes(group, "oo", map(sparse, fixed_space(group, "oo")))
    assert not fixes(group, "o", [ones])
    dual = dual_z2(2)
    assert fixes(dual, "oo", map(sparse, fixed_space(dual, "oo")))
    assert not fixes(dual, "oo", [sparse(ExactMatrix(4, 1, (0, 1, 0, 0)))])
    # values count, not only supports: e_1 - e_2 is moved by a swap, and
    # the signed difference of two pairing vectors is fixed by HN(3)
    assert not fixes(OracleGroup.symmetric(3), "o", [([0, 1], [1, -1])])
    pairings = [partition_vector(parse_partition(text), 3).entries for text in ("12|34", "13|24")]
    signed = ExactMatrix(81, 1, [a - b for a, b in zip(*pairings)])
    assert {-1, 1} <= set(signed.entries)
    assert fixes(OracleGroup.hyperoctahedral(3), "oooo", [sparse(signed)])


def cyclic_dual(order, generators):
    """Z_order with listed generators; exercises non-involutive inversion."""
    return GroupDualData(
        range(order),
        lambda a, b: (a + b) % order,
        lambda a: (-a) % order,
        0,
        generators,
    )


def test_colored_words_on_non_involutive_dual():
    z4 = cyclic_dual(4, [1, 3])
    I = IndexSet.parse("1,2", 2)
    # g1 has order four: oo does not reduce, ob does, oooo does
    assert dual_X_moment(z4, I, "oo", (0, 0)) == 0
    assert dual_X_moment(z4, I, "ob", (0, 0)) == ScaledScalar(Fraction(1), 2, 2)
    assert dual_X_moment(z4, I, "oooo", (0, 0, 0, 0)) == ScaledScalar(
        Fraction(1), 4, 2
    )
    # g1*g2 = 1 + 3 = 0: mixed indices can reduce too
    assert dual_X_moment(z4, I, "oo", (0, 1)) == ScaledScalar(Fraction(1), 2, 2)
    for word in ("o", "b", "oo", "ob", "bo", "ooo", "oob", "bbb"):
        for idx in product(range(2), repeat=len(word)):
            assert dual_X_moment(z4, I, word, idx) == dual_matrix_moment(
                z4, I, word, idx
            )
    assert len(fixed_space(z4, "oo")) == 2  # g_i + g_j = 0: (1,2) and (2,1)
    assert len(fixed_space(z4, "ob")) == 2  # g_i - g_j = 0: the diagonal pairs


def test_ergodicity_identity_holds_on_pure_oracle_data():
    # the averaged-coaction identity restated with brute-force data only:
    # sum_j P[i,j] * M_j == m^(-k/2) * sum_{j in I^k} P[i,j]
    group = OracleGroup.symmetric(4)
    I = IndexSet.parse("1,2", 4)
    m = I.m
    for k in (1, 2):
        table = group.moment_table(k)
        tuples = list(product(range(4), repeat=k))
        moments = [orbit_moment(group, I, "o" * k, j).rescale(k) for j in tuples]
        i_flats = {
            fj for fj, j in enumerate(tuples) if all(t in I.members for t in j)
        }
        for fi in range(len(tuples)):
            lhs = sum(
                table.get((fi, fj), Fraction(0)) * moments[fj]
                for fj in range(len(tuples))
            )
            rhs = sum(table.get((fi, fj), Fraction(0)) for fj in i_flats)
            assert lhs == rhs


@pytest.mark.parametrize(
    "make",
    [lambda: dual_z2(3), lambda: dual_s3([(1, 2), (1, 3), (2, 3)]), lambda: cyclic_dual(4, [1, 3])],
    ids=["dualZ2(3)", "dualS3(12,13,23)", "Z4<1,3>"],
)
def test_word_values_are_the_word_value_of_each_index_in_flat_order(make):
    # over every member subset, so that member order and black inverses both show
    dual = make()
    subsets = [None] + [
        members for size in range(1, dual.N + 1) for members in combinations(range(dual.N), size)
    ]
    for word in colored_words(3):
        for members in subsets:
            over = range(dual.N) if members is None else members
            expected = [dual.word_value(word, idx) for idx in product(over, repeat=len(word))]
            assert dual.word_values(word, members) == expected, (word, members)
        # fixes reads word_values once; the reference asks word_value per support index
        size = dual.N ** len(word)
        units = [ExactMatrix(size, 1, [int(f == hit) for f in range(size)]) for hit in range(size)]
        for vec in [*units, ExactMatrix(size, 1, [1] * size), *fixed_space(dual, word)]:
            support = compress(product(range(dual.N), repeat=len(word)), vec.entries)
            expected = all(dual.word_value(word, idx) == dual.identity for idx in support)
            assert fixes(dual, word, [sparse(vec)]) == expected, (word, vec.entries)
