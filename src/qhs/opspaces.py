"""Solution spaces of the two-sided relations on an oracle realization,
their defining equations, membership tests, and tensor-category axiom
diagnostics.

For a realization of a homogeneous space and words (k, l), the solution
space collects all operators T whose relation holds over the realization;
it always contains the intertwiner space of the underlying (quantum) group.
A solution space is exactly the common kernel of its evaluation
functionals, one per point of the realization (the Haar state is faithful;
Woronowicz, "Compact matrix pseudogroups", CMP 111, 1987), so every space
carries defining equations: integer rows E with X in the space iff
E vec(X) == 0.  Membership and the closure checks are dot products against
them; no spanning echelon, product or Kronecker matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .exact import (
    ExactMatrix,
    ExactTensor,
    ResourceGuardError,
    rank_nullspace,
)
from .frobenius import frobenius_to_fix, frobenius_to_hom
from .oracle import OracleRealization, hom_space
from .partitions import CategorySpec, colored_words, conjugate_word, fix_basis, partition_vector

FXI_GUARD = 4096  # unknowns of one solution space
GRID_GUARD = 16384  # unknowns summed over the cells of a saturation grid


@dataclass(frozen=True)
class OperatorSpace:
    """A linear space of N^l x N^k matrices with an exactly independent basis."""

    k_word: str
    l_word: str
    N: int
    basis: tuple
    label: str  # hom-space | fxi-space
    equation_rows: tuple = field(default=None, compare=False, repr=False)  # if known

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def equations(self):
        """Integer rows E with X in the space iff E vec(X) == 0; None for
        dimension 0, where the space is X == 0."""
        if not self.basis:
            return None
        if self.equation_rows is not None:
            return self.equation_rows
        rank, null, _ = rank_nullspace(ExactMatrix.from_rows(T.entries for T in self.basis))
        if rank < self.dimension:
            raise AssertionError("operator space basis is not independent")
        return tuple(null)

    def contains(self, T: ExactMatrix) -> bool:
        """Exact membership: T satisfies every defining equation."""
        ambient_rows = self.N ** len(self.l_word)
        ambient_cols = self.N ** len(self.k_word)
        if T.rows != ambient_rows or T.cols != ambient_cols:
            raise ValueError(
                f"shape mismatch: space holds {ambient_rows}x{ambient_cols}, "
                f"got {T.rows}x{T.cols}"
            )
        if self.equations is None:
            return T.is_zero()
        return not any(sum(map(mul, e, T.entries)) for e in self.equations)


def fxi_space(
    real: OracleRealization, k_word: str, l_word: str, points=None
) -> OperatorSpace:
    """All operators whose relation holds over the realization, exactly.

    One homogeneous linear equation per evaluation functional of the
    realization (`OracleRealization.functionals`), minus the rhs sum a_T at
    the points where it is due; their reduced rows are the space's defining
    equations.  `points` restricts the classical evaluation points; used by
    the monotonicity diagnostics.
    """
    n = real.N
    k, l = len(k_word), len(l_word)
    unknowns = n ** (k + l)
    if unknowns > FXI_GUARD:
        msg = f"solution space over N^(k+l) = {unknowns} exceeds the guard {FXI_GUARD}"
        raise ResourceGuardError(msg)
    cols_k = n**k
    # the positions of I^l x I^k, where the rhs sum of the relation reads T
    k_flats = real.I.flat_indices(k)
    admissible = [b * cols_k + c for b in real.I.flat_indices(l) for c in k_flats]
    rows = []
    for _, flats, weights, at_identity in real.functionals(k_word, l_word, points):
        row = [0] * unknowns
        for f, w in zip(flats, weights):
            row[f] += w
        if at_identity:
            for pos in admissible:
                row[pos] -= 1
        rows.append(row)
    system = ExactMatrix(len(rows), unknowns, [x for row in rows for x in row])
    _, null, equations = rank_nullspace(system)
    basis = tuple(ExactMatrix(n**l, cols_k, vec) for vec in null)
    return OperatorSpace(k_word, l_word, n, basis, "fxi-space", tuple(equations))


def hom_operator_space(source, k_word: str, l_word: str) -> OperatorSpace:
    """Intertwiner space of an oracle group/dual or of a partition category."""
    if isinstance(source, CategorySpec):
        fix = fix_basis(source, l_word + conjugate_word(k_word))
        basis = tuple(
            frobenius_to_hom(partition_vector(part, source.N), k_word, l_word, source.N)
            for part in fix.selected
        )
        return OperatorSpace(k_word, l_word, source.N, basis, "hom-space")
    return OperatorSpace(
        k_word, l_word, source.N, tuple(hom_space(source, k_word, l_word)), "hom-space"
    )


def _cell_order(cell) -> tuple:
    return (len(cell[0]) + len(cell[1]), cell[0], cell[1])


def grid_cells(bound: int) -> list:
    """All word pairs (k, l) with |k| + |l| <= bound, deterministic order."""
    words = colored_words(bound)
    cells = [(kw, lw) for kw in words for lw in words if len(kw + lw) <= bound]
    return sorted(cells, key=_cell_order)


def _outer_functional(e, S: ExactMatrix, rows: int, cols: int) -> list:
    """W = S^T e, so that <e, S T> == <W, T> for the target equation e
    (S.rows x cols, row-major) and every rows x cols matrix T (rows == S.cols)."""
    out = [0] * (S.cols * cols)
    for j, s in enumerate(S.entries):
        if s:
            b, m = divmod(j, S.cols)
            block = slice(m * cols, (m + 1) * cols)
            out[block] = [v + s * x for v, x in zip(out[block], e[b * cols : (b + 1) * cols])]
    return out


def _right_functional(e, S: ExactMatrix, rows: int, cols: int) -> list:
    """V with <e, T kron S> == <V, T> for every rows x cols matrix T:
    V[b1, c1] = sum over (b2, c2) of e[(b1, b2), (c1, c2)] * S[b2, c2]."""
    width = cols * S.cols
    stride = S.rows * width
    out = [0] * (rows * cols)
    for j, s in enumerate(S.entries):
        if s:
            b2, c2 = divmod(j, S.cols)
            part = []
            for start in range(b2 * width + c2, rows * stride, stride):
                part += e[start : start + width : S.cols]
            out = [v + s * x for v, x in zip(out, part)]
    return out


def _some_pair_fails(target, functional, contracted, others) -> bool:
    """True when some pair breaks a target equation.  Each equation is
    contracted with each element of `contracted` once; each pair then costs
    one dot product with the element of `others`."""
    rows, cols = others.N ** len(others.l_word), others.N ** len(others.k_word)
    for X in contracted.basis:
        functionals = [functional(e, X, rows, cols) for e in target.equations]
        for Y in others.basis:
            if any(sum(map(mul, f, Y.entries)) for f in functionals):
                return True
    return False


def _composition_fails(inner, outer, target) -> bool:
    if target.equations is None:  # dimension 0: every product S T must vanish
        return any(
            sum(map(mul, S.row(b), T.entries[c :: T.cols]))
            for S in outer.basis
            for T in inner.basis
            for b in range(S.rows)
            for c in range(T.cols)
        )
    return _some_pair_fails(target, _outer_functional, outer, inner)


def _tensor_fails(left, right, target) -> bool:
    if target.equations is None:  # dimension 0: T kron S != 0 when T, S != 0
        return bool(left.basis and right.basis)
    return _some_pair_fails(target, _right_functional, right, left)


def _record(entry: dict, fails: bool, failure: dict) -> None:
    entry["checked"] += 1
    if fails:
        entry["passed"] = False
        entry["failures"].append(failure)


def axiom_report(spaces: dict) -> dict:
    """Tensor-category diagnostics on a grid of operator spaces, each check
    run against the defining equations of its result cell; only checks whose
    operands and result cells lie in the grid are run.

    unit/adjoint/frobenius are theorems for relation solution spaces and are
    the 'asserted' axioms.  On a grid from one realization adjoint and tensor
    closure are identities of the defining functionals: classically
    phi_p(T kron S) = phi_p(T) (u_p^T S v_p) + a_T phi_p(S), with
    phi_p(X) = u_p^T X v_p - a_X and a_X the sum of X over I^l x I^k; on a
    dual, sum T l1(b1) sigma_S k1(c1)^-1 with sigma_S = a_S e.  Only
    composition can really fail.  Every check is still computed, with one
    failure recorded per cell pair.
    """
    cells = sorted(spaces, key=_cell_order)
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
            ok = space.contains(ExactMatrix.identity(n ** len(kw)))
            report["unit"].append({"k": kw, "l": lw, "passed": ok})
        mirror = spaces.get((lw, kw))
        if mirror is not None:
            ok = all(mirror.contains(T.transpose()) for T in space.basis)
            report["adjoint"].append({"k": kw, "l": lw, "passed": ok})
        target = spaces.get(("", lw + conjugate_word(kw)))
        if target is not None:
            forward = all(
                target.contains(frobenius_to_fix(T, kw, lw, n)[0].as_column())
                for T in space.basis
            )
            shape = (n,) * (len(kw) + len(lw))
            backward = all(
                space.contains(frobenius_to_hom(ExactTensor(shape, col.entries), kw, lw, n))
                for col in target.basis
            )
            ok = forward and backward and space.dimension == target.dimension
            report["frobenius"].append({"k": kw, "l": lw, "passed": ok})
    for k1, l1 in cells:
        for k2, l2 in cells:
            if k2 == l1 and (k1, l2) in spaces:
                fails = _composition_fails(spaces[(k1, l1)], spaces[(k2, l2)], spaces[(k1, l2)])
                _record(report["composition"], fails, {"inner": [k1, l1], "outer": [k2, l2]})
    for k1, l1 in cells:
        for k2, l2 in cells:
            cell = (k1 + k2, l1 + l2)
            if cell in spaces:
                fails = _tensor_fails(spaces[(k1, l1)], spaces[(k2, l2)], spaces[cell])
                _record(report["tensor"], fails, {"left": [k1, l1], "right": [k2, l2]})
    report["asserted_passed"] = (
        all(entry["passed"] for entry in report["unit"])
        and all(entry["passed"] for entry in report["adjoint"])
        and all(entry["passed"] for entry in report["frobenius"])
    )
    return report


def saturation_report(real: OracleRealization, hom_source, bound: int) -> dict:
    """Per grid cell: intertwiner dimension vs solution-space dimension,
    inclusion (a theorem; must hold) and equality (reported), plus the axiom
    report on the solution grid and an overall verdict.  The (t+1) 2^t cells
    with |k| + |l| == t have N^t unknowns each; their sum is checked against
    the grid guard before any space is built.
    """
    total = 0
    for t in range(bound + 1):
        total += (t + 1) * (2 * real.N) ** t
        if total > GRID_GUARD:
            msg = f"grid cells with |k|+|l| <= {t} have {total} unknowns, exceeding the guard {GRID_GUARD}"
            raise ResourceGuardError(msg)
    cells = grid_cells(bound)
    fxi = {cell: fxi_space(real, *cell) for cell in cells}
    hom = {cell: hom_operator_space(hom_source, *cell) for cell in cells}
    axioms = axiom_report(fxi)
    per_cell_axioms = {}
    for kind in ("unit", "adjoint", "frobenius"):
        for entry in axioms[kind]:
            per_cell_axioms.setdefault((entry["k"], entry["l"]), {})[kind] = entry[
                "passed"
            ]
    cell_entries = []
    inclusion_ok = True
    equality_ok = True
    for kw, lw in cells:
        h, f = hom[(kw, lw)], fxi[(kw, lw)]
        included = all(f.contains(T) for T in h.basis)
        equal = included and h.dimension == f.dimension
        inclusion_ok &= included
        equality_ok &= equal
        cell_entries.append(
            {
                "k": kw,
                "l": lw,
                "dim_hom": h.dimension,
                "dim_fxi": f.dimension,
                "inclusion": included,
                "equality": equal,
                "axioms": per_cell_axioms.get((kw, lw), {}),
            }
        )
    if not inclusion_ok or not axioms["asserted_passed"]:
        verdict = "axiom-failure"
    elif not equality_ok:
        verdict = "strictly-larger"
    elif not (axioms["composition"]["passed"] and axioms["tensor"]["passed"]):
        verdict = "axiom-failure"
    else:
        verdict = "saturated-on-grid"
    return {
        "oracle": getattr(real.source, "name", "oracle"),
        "I": str(real.I),
        "bound": bound,
        "cells": cell_entries,
        "axioms": axioms,
        "verdict": verdict,
    }
