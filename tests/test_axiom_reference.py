"""Defining-equation membership and closure checks against a reference.

The reference below is the construction `opspaces` used before operator
spaces carried defining equations: membership reduces against an echelon
of the basis, and the closure checks build every product S*T and every
Kronecker product T kron S.  The reports of both must agree on every
saturation grid the oracle-checks benchmark can draw and on hom-space grids,
whose equations are computed lazily from the basis.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qhs.exact import Echelon, ExactMatrix, flat_index, multi_indices
import qhs.opspaces as opspaces_mod
from qhs.opspaces import (
    OperatorSpace,
    axiom_report,
    fxi_grid,
    fxi_space,
    grid_cells,
    hom_operator_space,
    saturation_report,
)
from qhs.oracle import OracleGroup, OracleRealization, parse_oracle
from qhs.partitions import CategorySpec, conjugate_word
from qhs.weingarten import IndexSet
from test_opspaces import category_hom_space


class _Reference:
    """Echelon membership, one cached span per space."""

    def __init__(self):
        self.spans = {}

    def contains(self, space, T):
        span = self.spans.get(id(space))
        if span is None:
            span = self.spans[id(space)] = Echelon()
            for mat in space.basis:
                if not span.add(mat.entries):
                    raise AssertionError("operator space basis is not independent")
        return not any(span.reduce(T.entries))


def _ref_reshuffle(entries, n, k, l) -> list:
    """xi[i_1..i_l, j_k..j_1] = T[i, j], one index tuple at a time.  The
    reversal is an involution, so this maps operators to vectors and back."""
    out = [0] * len(entries)
    for i in multi_indices(n, l):
        for j in multi_indices(n, k):
            out[flat_index(i + j[::-1], n)] = entries[flat_index(i + j, n)]
    return out


class _ByEquations:
    """Membership by the space's defining equations, as they stand."""

    def contains(self, space, T):
        return space.contains(T)


def ref_axiom_report(spaces: dict, ref=None) -> dict:
    """Every check of every cell pair, computed afresh from dense products."""
    ref = ref or _Reference()
    cells = sorted(spaces, key=lambda cell: (len(cell[0]) + len(cell[1]), cell[0], cell[1]))
    report = {
        "unit": [],
        "adjoint": [],
        "frobenius": [],
        "composition": {"checked": 0, "passed": True, "failures": []},
        "tensor": {"checked": 0, "passed": True, "failures": []},
    }
    for kw, lw in cells:
        space = spaces[(kw, lw)]
        n = space.N
        if kw == lw:
            ok = ref.contains(space, ExactMatrix.identity(n ** len(kw)))
            report["unit"].append({"k": kw, "l": lw, "passed": ok})
        mirror = spaces.get((lw, kw))
        if mirror is not None:
            ok = all(ref.contains(mirror, T.transpose()) for T in space.basis)
            report["adjoint"].append({"k": kw, "l": lw, "passed": ok})
        target = spaces.get(("", lw + conjugate_word(kw)))
        if target is not None:
            k, l = len(kw), len(lw)
            size = n ** (k + l)
            forward = all(
                ref.contains(target, ExactMatrix(size, 1, _ref_reshuffle(T.entries, n, k, l)))
                for T in space.basis
            )
            backward = all(
                ref.contains(space, ExactMatrix(n**l, n**k, _ref_reshuffle(col.entries, n, k, l)))
                for col in target.basis
            )
            ok = forward and backward and space.dimension == target.dimension
            report["frobenius"].append({"k": kw, "l": lw, "passed": ok})
    for k1, l1 in cells:
        for k2, l2 in cells:
            if k2 != l1 or (k1, l2) not in spaces:
                continue
            report["composition"]["checked"] += 1
            target = spaces[(k1, l2)]
            if any(
                not ref.contains(target, S * T)
                for S in spaces[(k2, l2)].basis
                for T in spaces[(k1, l1)].basis
            ):
                report["composition"]["passed"] = False
                report["composition"]["failures"].append({"inner": [k1, l1], "outer": [k2, l2]})
    for k1, l1 in cells:
        for k2, l2 in cells:
            if (k1 + k2, l1 + l2) not in spaces:
                continue
            report["tensor"]["checked"] += 1
            target = spaces[(k1 + k2, l1 + l2)]
            if any(
                not ref.contains(target, T.kron(S))
                for T in spaces[(k1, l1)].basis
                for S in spaces[(k2, l2)].basis
            ):
                report["tensor"]["passed"] = False
                report["tensor"]["failures"].append({"left": [k1, l1], "right": [k2, l2]})
    report["asserted_passed"] = all(
        entry["passed"] for kind in ("unit", "adjoint", "frobenius") for entry in report[kind]
    )
    return report


# Every saturation grid of the oracle-checks batch: (oracle, |I|, bound).
SATURATION_GRIDS = [
    (literal, members, bound)
    for literal, size, bound in (
        ("SN(3)", 2, 3),
        ("HN(3)", 2, 3),
        ("SN(4)", 2, 2),
        ("dualZ2(3)", 1, 2),
        ("dualS3(12,13,23)", 1, 2),
    )
    for members in combinations(range(parse_oracle(literal).N), size)
]
_SOURCES = {}


def _fxi_grid(literal, members, bound) -> dict:
    source = _SOURCES.setdefault(literal, parse_oracle(literal))
    real = OracleRealization(source, IndexSet.of(source.N, members))
    return {cell: fxi_space(real, *cell) for cell in grid_cells(bound)}


@pytest.mark.parametrize("literal,members,bound", SATURATION_GRIDS)
def test_fxi_axiom_report_matches_reference(literal, members, bound):
    spaces = _fxi_grid(literal, members, bound)
    assert axiom_report(spaces) == ref_axiom_report(spaces)


@pytest.mark.parametrize(
    "source,bound", [(OracleGroup.symmetric(3), 3), (CategorySpec("O", 3), 4)], ids=["SN3", "O3"]
)
def test_hom_axiom_report_matches_reference(source, bound):
    build = category_hom_space if isinstance(source, CategorySpec) else hom_operator_space
    spaces = {cell: build(source, *cell) for cell in grid_cells(bound)}
    report = axiom_report(spaces)
    assert report == ref_axiom_report(spaces)
    assert report["composition"]["checked"] and report["tensor"]["checked"]


def test_one_corrupted_equation_breaks_the_comparison(monkeypatch):
    spaces = _fxi_grid("SN(3)", (0, 1), 2)
    reference = ref_axiom_report(spaces)
    assert axiom_report(spaces) == reference
    space = spaces[("o", "o")]
    first, *rest = space.equations
    corrupted = [first[0] + 1, *first[1:]]  # the identity now breaks it at entry (0, 0)
    monkeypatch.setitem(space.__dict__, "equations", (corrupted, *rest))
    report = axiom_report(spaces)
    assert report != reference
    assert not report["asserted_passed"]


def _realization(literal, members):
    source = _SOURCES.setdefault(literal, parse_oracle(literal))
    return OracleRealization(source, IndexSet.parse(members, source.N))


@pytest.mark.parametrize(
    "literal, members, bound, systems",
    [("SN(3)", "1,2", 3, 10), ("HN(3)", "1,2", 3, 10), ("SN(4)", "1,2", 2, 6),
     ("dualZ2(3)", "1", 2, 6), ("dualS3(12,13,23)", "1", 2, 6)],
)
def test_saturation_solves_each_defining_system_once(monkeypatch, literal, members, bound,
                                                     systems):
    real = _realization(literal, members)
    shared = fxi_grid(real, grid_cells(bound))
    assert len(set(map(id, shared.values()))) == systems
    assert axiom_report(shared) == ref_axiom_report(shared)
    solved = []

    def counted(*args):
        solved.append(args)
        return fxi_space(*args)

    monkeypatch.setattr(opspaces_mod, "fxi_space", counted)
    report = saturation_report(real, real.source, bound)
    assert len(solved) == systems
    # every cell a system of its own: the grid built cell by cell, fresh spaces
    monkeypatch.setattr(opspaces_mod, "_defining_system", lambda real, *cell: cell)
    solved.clear()
    assert saturation_report(real, real.source, bound) == report
    assert len(solved) == len(grid_cells(bound))


@pytest.mark.parametrize(
    "literal, members, bound, builds",
    [("SN(3)", "1,2", 3, 10), ("HN(3)", "1,2", 3, 10), ("SN(4)", "1,2", 2, 6),
     ("dualZ2(3)", "1", 2, 15), ("dualS3(12,13,23)", "1", 2, 15)],
)
def test_saturation_builds_each_hom_space_once(monkeypatch, literal, members, bound, builds):
    real = _realization(literal, members)
    built = []

    def counted(*args):
        built.append(args)
        return hom_operator_space(*args)

    monkeypatch.setattr(opspaces_mod, "hom_operator_space", counted)
    report = saturation_report(real, real.source, bound)
    # classically one per length pair; on a dual one per cell, but for the
    # cells of one shape whose fixed space is the same empty tuple
    assert len(built) == builds
    # every cell a hom space and a system of its own: the report cell by cell
    monkeypatch.setattr(opspaces_mod, "_hom_key", lambda source, *cell: cell)
    monkeypatch.setattr(opspaces_mod, "_defining_system", lambda real, *cell: cell)
    built.clear()
    assert saturation_report(real, real.source, bound) == report
    assert len(built) == len(grid_cells(bound))


def _cells_read(report) -> list:
    """(check, cells it reads, passed) for every check of an axiom report."""
    out = []
    for kind, other in (("unit", lambda k, l: (k, l)), ("adjoint", lambda k, l: (l, k)),
                        ("frobenius", lambda k, l: ("", l + conjugate_word(k)))):
        for entry in report[kind]:
            cell = (entry["k"], entry["l"])
            out.append((kind, {cell, other(*cell)}, entry["passed"]))
    for f in report["composition"]["failures"]:
        (k1, l1), (k2, l2) = f["inner"], f["outer"]
        out.append(("composition", {(k1, l1), (k2, l2), (k1, l2)}, False))
    for f in report["tensor"]["failures"]:
        (k1, l1), (k2, l2) = f["left"], f["right"]
        out.append(("tensor", {(k1, l1), (k2, l2), (k1 + k2, l1 + l2)}, False))
    return out


def test_axiom_verdicts_are_keyed_on_spaces_not_cells():
    real = _realization("SN(3)", "1,2")
    shared = fxi_grid(real, grid_cells(3))
    copies = {
        (kw, lw): OperatorSpace(kw, lw, s.N, s.basis, s.equation_rows)
        for (kw, lw), s in shared.items()
    }
    clean = axiom_report(shared)
    assert axiom_report(copies) == clean
    # a colored cell whose shared space already sits in (b, b), earlier in
    # cell order, gets an equal but distinct copy with one equation broken
    cell = ("o", "b")
    assert shared[cell] is shared[("b", "b")]
    copy = copies[cell]
    first, *rest = copy.equations
    copy.__dict__["equations"] = ((first[0] + 1, *first[1:]), *rest)
    corrupted = {**shared, cell: copy}
    report = axiom_report(corrupted)
    assert report == ref_axiom_report(corrupted, _ByEquations())
    changed = [c for c in _cells_read(report) if c not in _cells_read(clean)]
    assert changed and all(cell in read and not passed for _, read, passed in changed)
    assert axiom_report(shared) == clean


def _independent(rows) -> list:
    span = Echelon()
    return [row for row in rows if span.add(row)]


@st.composite
def _space_and_matrix(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 2))
    l = draw(st.integers(0, 3 - k))
    size = n ** (k + l)
    entry = st.integers(-2, 2)
    shape = draw(st.sampled_from(["empty", "full", "random"]))
    if shape == "empty":
        rows = []
    elif shape == "full":
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
    else:
        rows = _independent(
            draw(st.lists(st.lists(entry, min_size=size, max_size=size), max_size=size))
        )
    basis = tuple(ExactMatrix(n**l, n**k, row) for row in rows)
    space = OperatorSpace("o" * k, "o" * l, n, basis)
    if rows and draw(st.booleans()):  # a member: an integer combination of the basis
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        x = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(size)]
    else:
        x = draw(st.lists(entry, min_size=size, max_size=size))
    return space, ExactMatrix(n**l, n**k, x)


@settings(max_examples=150, deadline=None)
@given(_space_and_matrix())
def test_contains_matches_echelon_reduce(case):
    space, T = case
    assert space.contains(T) == _Reference().contains(space, T)


@st.composite
def _random_grid(draw):
    """Arbitrary spaces on every cell of the N = 2, bound 2 grid, so that
    tensor closure and dimension-0 targets fail too.  In about half the
    grids every cell (k, l) with k nonempty is the reshuffle of its Frobenius
    target ("", l + conjugate(k)), so that Frobenius holds, and holds only
    through the right reversal."""
    frobenius = draw(st.booleans())
    spaces = {}
    for kw, lw in grid_cells(2):  # ("", w) comes before the cells reshuffled from it
        if frobenius and kw:
            target = spaces[("", lw + conjugate_word(kw))]
            rows = [_ref_reshuffle(col.entries, 2, len(kw), len(lw)) for col in target.basis]
        else:
            size = 2 ** len(kw + lw)
            rows = _independent(
                draw(st.lists(st.lists(st.integers(-1, 1), min_size=size, max_size=size),
                              max_size=size))
            )
        basis = tuple(ExactMatrix(2 ** len(lw), 2 ** len(kw), row) for row in rows)
        spaces[(kw, lw)] = OperatorSpace(kw, lw, 2, basis)
    return spaces


@settings(max_examples=40, deadline=None)
@given(_random_grid())
def test_arbitrary_grid_axiom_report_matches_reference(spaces):
    assert axiom_report(spaces) == ref_axiom_report(spaces)


# Packed checks at their width bound.  A check tests sum_i b_i 2^(shift i)
# over one operand's basis at once; the tests below scale bases far past
# machine words and build digit vectors that would cancel at one given
# shift, so a shift narrower than the digit bound reads a failing check as
# passing.
_SCALES = [Fraction(2 ** (82 + i) + 1, 2 * i + 3) for i in range(16)]  # >= 2^80, unlike denominators


def _scaled(space):
    """space with basis element i times _SCALES[i]; the span, and so the
    equations, stay the same."""
    basis = tuple(
        ExactMatrix(T.rows, T.cols, [x * c for x in T.entries]) for T, c in zip(space.basis, _SCALES)
    )
    return OperatorSpace(space.k_word, space.l_word, space.N, basis, space.equation_rows)


def _scaled_grid(spaces) -> dict:
    """Every distinct space of the grid scaled once, so cells keep sharing."""
    copies = {}
    return {cell: copies.setdefault(id(s), _scaled(s)) for cell, s in spaces.items()}


def _off_by_one(space, flat) -> OperatorSpace:
    """space with entry flat of its first basis element off by 1."""
    first, *rest = space.basis
    entries = list(first.entries)
    entries[flat] += 1
    bumped = ExactMatrix(first.rows, first.cols, entries)
    return OperatorSpace(space.k_word, space.l_word, space.N, (bumped, *rest))


def test_scaled_grids_keep_their_verdicts():
    real = _realization("SN(3)", "1,2")
    clean = fxi_grid(real, grid_cells(2))
    scaled = _scaled_grid(clean)
    assert any(isinstance(x, Fraction) for T in scaled[("o", "o")].basis for x in T.entries)
    report = axiom_report(scaled)
    assert report == axiom_report(clean) == ref_axiom_report(scaled)
    # composition fails on some cell pairs of this grid and holds on others
    assert report["asserted_passed"] and report["tensor"]["passed"]
    assert 0 < len(report["composition"]["failures"]) < report["composition"]["checked"]
    # one entry off by 1 at that scale flips verdicts, and exactly as the reference
    bumped = {**scaled, ("o", "o"): _off_by_one(scaled[("o", "o")], 0)}
    flipped = axiom_report(bumped)
    assert flipped == ref_axiom_report(bumped)
    assert not flipped["asserted_passed"] and not flipped["tensor"]["passed"]
    hom = {cell: _scaled(hom_operator_space(OracleGroup.symmetric(3), *cell)) for cell in grid_cells(3)}
    assert axiom_report(hom) == ref_axiom_report(hom)


def _space(kw, lw, rows, equations=None, n=2) -> OperatorSpace:
    """A space on (kw, lw) spanned by integer rows."""
    shape = n ** len(lw), n ** len(kw)
    return OperatorSpace(kw, lw, n, tuple(ExactMatrix(*shape, r) for r in rows), equations)


def _adjoint_grid(a, b) -> dict:
    """Packed (o, b) = [-2^b E00, E10] against the mirror's equation
    2^a x00 + x01: the digits are -2^(a+b) and 1."""
    return {
        ("o", "b"): _space("o", "b", [[-(2**b), 0, 0, 0], [0, 0, 1, 0]]),
        ("b", "o"): _space("b", "o", [[1, -(2**a), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                           ((2**a, 1, 0, 0),)),
    }


def _composition_grid(u) -> dict:
    """Packed inner (o, b) = [E01 - E00, E11 + E10] times the outer
    [[2^u, 1], [0, 0]], in span{E01}: the digits on x00 are -2^u and 1."""
    return {
        ("o", "b"): _space("o", "b", [[-1, 1, 0, 0], [0, 0, 1, 1]]),
        ("b", "o"): _space("b", "o", [[2**u, 1, 0, 0]]),
        ("o", "o"): _space("o", "o", [[0, 1, 0, 0]]),
    }


def _tensor_grid(u) -> dict:
    """Packed left ("", o) = [-e0, e1] kron the right (2^u, 1), against the
    equation x0 + x3: the digits are -2^u and 1."""
    return {
        ("", "o"): _space("", "o", [[-1, 0], [0, 1]]),
        ("", "b"): _space("", "b", [[2**u, 1]]),
        ("", "ob"): _space("", "ob", [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]], ((1, 0, 0, 1),)),
    }


def _zero_target_grid(u) -> dict:
    """Packed inner (o, b) = [E11 - 2^u E00, E00] times the outer E00, into
    the zero space: the digit vectors are -2^u E00 and E00."""
    return {
        ("o", "b"): _space("o", "b", [[-(2**u), 0, 0, 1], [1, 0, 0, 0]]),
        ("b", "o"): _space("b", "o", [[1, 0, 0, 0]]),
        ("o", "o"): _space("o", "o", []),
    }


def test_packed_digits_that_cancel_at_a_narrow_shift_still_fail():
    # each grid fails one check, through two digits that cancel at shift u;
    # the width bound the digits need is above u, whichever factor of it
    # (the target's equations, the packed operand, the other operand) is big
    for u in range(1, 200):
        for grid in (_adjoint_grid(u, 0), _adjoint_grid(0, u)):
            assert not axiom_report(grid)["adjoint"][0]["passed"], u
        for grid in (_composition_grid(u), _zero_target_grid(u)):
            failures = axiom_report(grid)["composition"]["failures"]
            assert {"inner": ["o", "b"], "outer": ["b", "o"]} in failures, u
        report = axiom_report(_tensor_grid(u))
        assert {"left": ["", "o"], "right": ["", "b"]} in report["tensor"]["failures"], u
    for u in (1, 3, 64, 199):
        for grid in (_adjoint_grid(u, 0), _adjoint_grid(0, u), _composition_grid(u),
                     _zero_target_grid(u), _tensor_grid(u)):
            assert axiom_report(grid) == ref_axiom_report(grid)


@pytest.mark.parametrize("target", ["zero", "full"])
def test_packed_checks_into_zero_and_full_targets(target):
    # scaled operands against a target of dimension 0 (X == 0) and one with
    # no equations at all
    hom = {cell: _scaled(hom_operator_space(OracleGroup.symmetric(3), *cell))
           for cell in [("o", "b"), ("b", "o"), ("b", "b")]}
    for kw, lw in [("o", "o"), ("ob", "bb")]:
        size = 3 ** len(kw + lw)
        rows = [] if target == "zero" else [[int(i == j) for j in range(size)] for i in range(size)]
        hom[(kw, lw)] = _space(kw, lw, rows, n=3)
    report = axiom_report(hom)
    assert report == ref_axiom_report(hom)
    into_target = [
        ({"inner": ["o", "b"], "outer": ["b", "o"]}, report["composition"]["failures"]),
        ({"left": ["o", "b"], "right": ["b", "b"]}, report["tensor"]["failures"]),
    ]
    assert all((pair in failures) == (target == "zero") for pair, failures in into_target)
