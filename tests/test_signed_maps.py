"""Monomial oracles through their signed index maps: the closure over the
generators' signed column maps and the fixed spaces by signed orbits, each
against the matrix path that other generator sets keep."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from qhs.cli import main
from qhs.exact import ClosureCapError, ExactMatrix, ResourceGuardError
from qhs.oracle import (
    OracleGroup,
    _closure,
    _stacked_basis,
    build_group,
    fixed_space,
    hom_dimension,
    tensor_entries,
)

from test_oracle import householder_conjugated_s3


def signed_permutation(perm, signs) -> ExactMatrix:
    """g e_c = signs[c] e_perm[c], with int entries."""
    n = len(perm)
    return ExactMatrix(n, n, [signs[c] if perm[c] == r else 0 for r in range(n) for c in range(n)])


def random_generator_sets(count=120, seed=2028):
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(1, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(n))
            rng.shuffle(perm)
            gens.append(signed_permutation(perm, [rng.choice((1, -1)) for _ in range(n)]))
        sets.append(gens)
    return sets


RANDOM_SETS = random_generator_sets()


def unsigned_orbit_count(group: OracleGroup, k: int) -> int:
    """Orbits of the flat indices under the generators' index maps, by
    union-find, with the signs ignored."""
    parent = list(range(group.N**k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in group.generators:
        rows, cols, _ = tensor_entries(g, k)
        for r, c in zip(rows, cols):
            parent[find(r)] = find(c)
    return len({find(x) for x in range(len(parent))})


def matrix_closure(n, generators, cap=None) -> list:
    return _closure(ExactMatrix.identity(n), generators, ExactMatrix.__mul__, cap)


def entry_types(elements) -> list:
    return [list(map(type, g.entries)) for g in elements]


def orbit_cases():
    for n in range(1, 5):
        for group in (OracleGroup.symmetric(n), OracleGroup.hyperoctahedral(n)):
            yield from ((group, k) for k in range(5))
    yield OracleGroup.symmetric(3), 5
    for n in (1, 2, 3):
        minus_identity = OracleGroup.from_generators([ExactMatrix.identity(n) * -1])
        yield from ((minus_identity, k) for k in range(5))


def test_orbit_basis_is_the_stacked_rows_nullspace():
    # SN, HN and -I: equal vectors, in the canonical order, with int entries
    for group, k in orbit_cases():
        fixed = [xi.entries for xi in fixed_space(group, "o" * k)]
        assert fixed == [tuple(v) for v in _stacked_basis(group.generators, group.N, k)], (group, k)
        assert all(type(x) is int for vec in fixed for x in vec)
        assert hom_dimension(group, "o" * k, "") == len(fixed)


def test_orbit_basis_on_random_signed_permutations():
    conflicts = 0
    for gens in RANDOM_SETS:
        group = OracleGroup.from_generators(gens)
        for k in range(4):
            fixed = [xi.entries for xi in fixed_space(group, "o" * k)]
            assert fixed == [tuple(v) for v in _stacked_basis(group.generators, group.N, k)]
            assert all(type(x) is int for vec in fixed for x in vec)
            assert hom_dimension(group, "o" * k, "") == len(fixed)
            conflicts += len(fixed) < unsigned_orbit_count(group, k)
    assert conflicts >= 50  # orbits whose signs conflict, and so give no vector


def test_orbit_basis_reads_fraction_signs_as_ints(tmp_path):
    # a gens(file) literal parses its entries as Fraction; the orbit path
    # still returns int vectors, as the nullspace does
    path = tmp_path / "signed.json"
    quarter_turn = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    path.write_text(json.dumps([quarter_turn]), encoding="utf-8")
    group = build_group(f"gens({path})")
    assert any(isinstance(x, Fraction) for x in group.generators[0].entries)
    for k in range(5):
        fixed = [xi.entries for xi in fixed_space(group, "o" * k)]
        assert fixed == [tuple(v) for v in _stacked_basis(group.generators, group.N, k)]
        assert all(type(x) is int for vec in fixed for x in vec)


@pytest.mark.parametrize("family", ["SN", "HN"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_map_closure_is_the_matrix_closure(family, n):
    group = build_group(f"{family}({n})")
    reference = matrix_closure(group.N, list(group.generators))
    assert list(group.elements) == reference
    assert entry_types(group.elements) == entry_types(reference)


def test_map_closure_on_random_signed_permutations():
    for gens in RANDOM_SETS:
        group = OracleGroup.from_generators(gens)
        reference = matrix_closure(group.N, gens)
        assert list(group.elements) == reference
        assert entry_types(group.elements) == entry_types(reference)


@pytest.mark.parametrize("literal", ["SN(4)", "HN(3)"])
def test_closure_cap_stops_both_closures_at_one_count(monkeypatch, literal):
    group = build_group(literal)
    order, gens = len(group), list(group.generators)
    monkeypatch.setenv("QHS_MAX_CLOSURE", str(order))
    assert len(build_group(literal)) == len(matrix_closure(group.N, gens, order)) == order
    monkeypatch.setenv("QHS_MAX_CLOSURE", str(order - 1))
    with pytest.raises(ClosureCapError) as by_maps:
        build_group(literal)
    with pytest.raises(ClosureCapError) as by_matrices:
        matrix_closure(group.N, gens, order - 1)
    assert str(by_maps.value) == str(by_matrices.value)


def test_fraction_and_householder_groups_close_by_matrices(tmp_path):
    # a gens(file) literal's Fraction entries stay Fraction in every element
    # the products build, as the matrix closure makes them
    path = tmp_path / "signed.json"
    path.write_text(json.dumps([[["0", "-1"], ["1", "0"]]]), encoding="utf-8")
    for group in (build_group(f"gens({path})"), householder_conjugated_s3()):
        reference = matrix_closure(group.N, list(group.generators))
        assert list(group.elements) == reference
        assert entry_types(group.elements) == entry_types(reference)
        assert any(isinstance(x, Fraction) for g in group.elements for x in g.entries)


def test_stacked_rows_guard_fires_before_they_exist():
    # 2 generators on 3^7 indices: 2 * 3^14 = 9,565,938 stacked entries
    group = householder_conjugated_s3()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="stacked generator rows on N\\^k = 3\\^7"):
            fixed_space(group, "o" * 7)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_orbit_basis_guard_fires_before_the_dense_columns():
    # SN(4) at 7 letters: 715 orbit vectors of 4^7 entries each
    with pytest.raises(ResourceGuardError, match="a basis of 715 vectors on N\\^k = 4\\^7"):
        fixed_space(OracleGroup.symmetric(4), "o" * 7)


def test_large_non_monomial_request_exits_3(tmp_path, capsys):
    # a rational reflection on N = 33: its stacked rows at 2 letters hold
    # 33^4 = 1,185,921 entries, past DENSE_GUARD
    n, v = 33, (1, 2, 2) + (0,) * 30
    rows = [[str(int(r == c) - Fraction(2 * v[r] * v[c], 9)) for c in range(n)] for r in range(n)]
    path = tmp_path / "reflection.json"
    path.write_text(json.dumps([rows]), encoding="utf-8")
    code = main(["verify", "--suite", "frobenius", "--samples", "0", "--bounds", "2",
                 "--oracle", f"gens({path})"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("resource-guard-exceeded: the stacked generator rows on N^k = 33^2")
