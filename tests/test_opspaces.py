from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qhs.exact import ExactMatrix, ResourceGuardError, ScaledScalar
from qhs.frobenius import frobenius_to_hom
from qhs.opspaces import (
    OperatorSpace,
    axiom_report,
    fxi_space,
    grid_cells,
    hom_operator_space,
    saturation_report,
)
from qhs.oracle import OracleGroup, OracleRealization, dual_z2, parse_oracle
from qhs.partitions import CategorySpec, conjugate_word, partition_vector
from qhs.relations import Relation, RelationSystem, verify_relations
from qhs.weingarten import IndexSet, selected_partitions


def category_hom_space(spec, k_word, l_word):
    """The category's intertwiner space: its selected partition vectors of
    l + conjugate(k) through Frobenius duality (a reference for the oracle
    spaces of `hom_operator_space`)."""
    word, n = l_word + conjugate_word(k_word), spec.N
    basis = tuple(
        frobenius_to_hom(partition_vector(part, n), k_word, l_word, n)
        for part in selected_partitions(spec, word)
    )
    return OperatorSpace(k_word, l_word, n, basis)


def dual_real():
    return OracleRealization(dual_z2(2), IndexSet.parse("1", 2))


def sn4_real():
    return OracleRealization(OracleGroup.symmetric(4), IndexSet.parse("1,2", 4))


def test_fxi_dual_full_space_cell():
    space = fxi_space(dual_real(), "", "oo")
    assert space.dimension == 4


def test_fxi_scalar_cell_dimension_one():
    assert fxi_space(dual_real(), "", "").dimension == 1
    assert fxi_space(sn4_real(), "", "").dimension == 1


def test_fxi_contains_fix_vector_on_full_index_set():
    real = OracleRealization(OracleGroup.symmetric(3), IndexSet.parse("1,2,3", 3))
    space = fxi_space(real, "", "o")
    assert space.contains(ExactMatrix(3, 1, (1, 1, 1)))


def test_contains_zero_identity_and_generic_nonmember():
    space = fxi_space(dual_real(), "o", "o")
    assert space.contains(ExactMatrix.zeros(2, 2))
    assert space.contains(ExactMatrix.identity(2))
    thin = fxi_space(dual_real(), "", "o")
    assert thin.dimension == 1
    assert not thin.contains(ExactMatrix(2, 1, (1, 0)))


def test_contains_shape_mismatch():
    space = fxi_space(dual_real(), "", "o")
    with pytest.raises(ValueError):
        space.contains(ExactMatrix.identity(2))


def test_resource_guard():
    real = sn4_real()
    with pytest.raises(ResourceGuardError):
        fxi_space(real, "oooo", "ooo")


def test_fxi_monotone_in_evaluation_points():
    # a subgroup's coordinate points are among the group's, so each subgroup
    # in the chain {1} < S2 < S3 < S4 has a solution space at least as large
    swaps = OracleGroup.symmetric(4).generators
    I = IndexSet.parse("1,2", 4)
    dims = [
        fxi_space(OracleRealization(OracleGroup.from_generators(gens), I), "", "oo").dimension
        for gens in [[ExactMatrix.identity(4)]] + [swaps[:t] for t in range(1, 4)]
    ]
    assert dims == sorted(dims, reverse=True) and dims[0] > dims[-1]
    assert dims[-1] == fxi_space(sn4_real(), "", "oo").dimension


# (oracle, a spec whose category vectors it fixes, I members)
CONSUMERS = [("SN(3)", "S(3)", (0, 1)), ("HN(3)", "O(3)", (0, 2)), ("dualZ2(3)", "U(3)", (0, 1))]


@cache
def consumer_spaces(name, members, cell):
    real = OracleRealization(parse_oracle(name), IndexSet.of(3, members))
    return real, fxi_space(real, *cell), hom_operator_space(real.source, *cell)


@st.composite
def consumer_operators(draw):
    """An integer combination of the solution-space and intertwiner bases,
    sometimes with one entry moved, so that members and non-members both
    occur; the intertwiners lie in the solution space by the paper's
    inclusion, independently of how fxi_space computes it."""
    name, spec_text, members = draw(st.sampled_from(CONSUMERS))
    cell = draw(st.sampled_from(grid_cells(3)))
    real, space, hom = consumer_spaces(name, members, cell)
    rows, cols = 3 ** len(cell[1]), 3 ** len(cell[0])
    entries = [0] * (rows * cols)
    for X in space.basis + hom.basis:
        scale = draw(st.integers(-2, 2))
        entries = [v + scale * x for v, x in zip(entries, X.entries)]
    if draw(st.booleans()):
        entries[draw(st.integers(0, rows * cols - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return real, CategorySpec.parse(spec_text), cell, space, ExactMatrix(rows, cols, entries)


@settings(max_examples=120, deadline=None)
@given(consumer_operators())
def test_fxi_space_and_verify_relations_agree(operator):
    # both read the realization's evaluation functionals, one as rows of a
    # linear system and one as dot products with T
    real, spec, (k_word, l_word), space, T = operator
    I, k, l = real.I, len(k_word), len(l_word)
    total = sum(T.at(b, c) for b in I.flat_indices(l) for c in I.flat_indices(k))
    rel = Relation(l_word, k_word, T, ScaledScalar(Fraction(total), k + l, I.m))
    report = verify_relations(RelationSystem(spec, real.I, "hom-form", (rel,)), real)
    assert space.contains(T) == report["passed"]


def test_hom_operator_space_sources_agree_for_sn4():
    group = OracleGroup.symmetric(4)
    spec = CategorySpec("S", 4)
    for cell in (("", "oo"), ("o", "o"), ("oo", "")):
        from_group = hom_operator_space(group, *cell)
        from_spec = category_hom_space(spec, *cell)
        assert from_group.dimension == from_spec.dimension
        assert all(from_group.contains(T) for T in from_spec.basis)


def test_axiom_report_on_group_homspaces_is_tensor_category():
    group = OracleGroup.symmetric(3)
    cells = grid_cells(2)
    spaces = {cell: hom_operator_space(group, *cell) for cell in cells}
    report = axiom_report(spaces)
    assert report["asserted_passed"]
    assert report["composition"]["passed"]
    assert report["tensor"]["passed"]


def test_saturation_dual_strictly_larger():
    report = saturation_report(dual_real(), dual_z2(2), 2)
    assert report["verdict"] == "strictly-larger"
    cell = next(c for c in report["cells"] if (c["k"], c["l"]) == ("", "oo"))
    assert cell["dim_hom"] == 2 and cell["dim_fxi"] == 4
    assert all(c["inclusion"] for c in report["cells"])
    assert report["axioms"]["asserted_passed"]


def test_saturation_sn4_inclusions_hold():
    report = saturation_report(sn4_real(), OracleGroup.symmetric(4), 2)
    assert all(c["inclusion"] for c in report["cells"])
    assert report["axioms"]["asserted_passed"]


def test_grid_cells_ordering_deterministic():
    cells = grid_cells(1)
    assert cells[0] == ("", "")
    assert set(cells) == {("", ""), ("", "b"), ("", "o"), ("b", ""), ("o", "")}
    assert cells == sorted(cells, key=lambda c: (len(c[0]) + len(c[1]), c[0], c[1]))


def test_report_is_json_serialisable():
    import json

    text = json.dumps(saturation_report(dual_real(), dual_z2(2), 1))
    assert "verdict" in text


def test_fxi_equations_cut_out_the_space():
    space = fxi_space(sn4_real(), "o", "o")
    assert len(space.equations) + space.dimension == 16
    assert all(isinstance(x, int) for e in space.equations for x in e)
    for T in space.basis:
        assert all(isinstance(x, int) for x in T.entries)
        assert all(sum(a * b for a, b in zip(e, T.entries)) == 0 for e in space.equations)


def test_dimension_zero_space_holds_only_zero():
    space = category_hom_space(CategorySpec("O", 3), "", "o")
    assert space.dimension == 0 and space.equations is None
    assert space.contains(ExactMatrix.zeros(3, 1))
    assert not space.contains(ExactMatrix(3, 1, (0, 0, 1)))


def test_dependent_basis_rejected_at_first_membership_test():
    T = ExactMatrix(2, 1, (1, 1))
    space = OperatorSpace("", "o", 2, (T, ExactMatrix(2, 1, (2, 2))))
    with pytest.raises(AssertionError, match="not independent"):
        space.contains(T)


def test_saturation_guard_checked_before_any_space_is_built(monkeypatch):
    import qhs.opspaces as opspaces_mod

    monkeypatch.setattr(opspaces_mod, "fxi_space", lambda *args: pytest.fail("built a space"))
    group = OracleGroup.symmetric(3)
    real = OracleRealization(group, IndexSet.parse("1,2", 3))
    with pytest.raises(ResourceGuardError, match="54121"):  # the cells with |k|+|l| <= 5
        saturation_report(real, group, 8)


@pytest.mark.parametrize(
    "literal, members, bound",
    [("SN(3)", "1,2", 4), ("HN(3)", "1,2", 4), ("SN(3)", "1,2", 3), ("HN(3)", "1,2", 3),
     ("SN(4)", "1,2", 2), ("dualZ2(3)", "1", 2), ("dualS3(12,13,23)", "1", 2)],
)
def test_saturation_grid_guard_passes_the_grids_in_use(monkeypatch, literal, members, bound):
    import qhs.opspaces as opspaces_mod

    class Built(Exception):
        pass

    def first_space(*args):
        raise Built

    monkeypatch.setattr(opspaces_mod, "fxi_space", first_space)
    source = parse_oracle(literal)
    real = OracleRealization(source, IndexSet.parse(members, source.N))
    with pytest.raises(Built):
        saturation_report(real, source, bound)
