"""Solution spaces of the two-sided relations on an oracle realization,
membership tests, and tensor-category axiom diagnostics.

For a realization of a homogeneous space and words (k, l), the solution
space collects all operators T whose relation holds over the realization;
it always contains the intertwiner space of the underlying (quantum) group.
The axiom report checks units, adjoints and the Frobenius bijection (which
are theorems and asserted downstream) and *reports* composition/tensor
closure, which together are equivalent to the space being presented by a
tensor category and may genuinely fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .exact import (
    Echelon,
    ExactMatrix,
    ExactTensor,
    ResourceGuardError,
    flat_index,
    rank_nullspace,
)
from .frobenius import frobenius_to_fix, frobenius_to_hom
from .oracle import OracleRealization, hom_space
from .partitions import CategorySpec, colored_words, conjugate_word, fix_basis, partition_vector

FXI_GUARD = 4096


@dataclass(frozen=True)
class OperatorSpace:
    """A linear space of N^l x N^k matrices with an exactly independent basis."""

    k_word: str
    l_word: str
    N: int
    basis: tuple
    label: str  # hom-space | fxi-space

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _span(self) -> Echelon:
        span = Echelon()
        for mat in self.basis:
            if not span.add(mat.entries):
                raise AssertionError("operator space basis is not independent")
        return span

    def contains(self, T: ExactMatrix) -> bool:
        """Exact membership: T reduces to zero against the cached echelon."""
        ambient_rows = self.N ** len(self.l_word)
        ambient_cols = self.N ** len(self.k_word)
        if T.rows != ambient_rows or T.cols != ambient_cols:
            raise ValueError(
                f"shape mismatch: space holds {ambient_rows}x{ambient_cols}, "
                f"got {T.rows}x{T.cols}"
            )
        return not any(self._span.reduce(T.entries))


def _coordinate_products(c, n: int, length: int) -> list:
    """prods[flat(i)] = c[i_1] * ... * c[i_length]."""
    prods = [1]
    for _ in range(length):
        prods = [p * c[t] if p else 0 for p in prods for t in range(n)]
    return prods


def fxi_space(
    real: OracleRealization, k_word: str, l_word: str, points=None
) -> OperatorSpace:
    """All operators whose relation holds over the realization, exactly.

    One homogeneous linear equation per evaluation point: group elements for
    classical oracles, regular-representation entries (bucketed per group
    element, which spans the same constraints) for duals.  `points` restricts
    the classical evaluation points; used by the monotonicity diagnostics.
    """
    n = real.N
    k, l = len(k_word), len(l_word)
    unknowns = n ** (k + l)
    if unknowns > FXI_GUARD:
        raise ResourceGuardError(
            f"solution space over N^(k+l) = {unknowns} exceeds the guard {FXI_GUARD}"
        )
    members = real.I.sorted_members
    cols_k = n**k
    # the positions of I^l x I^k, where the rhs sum of the relation reads T
    k_flats = real.I.flat_indices(k)
    admissible = [b * cols_k + c for b in real.I.flat_indices(l) for c in k_flats]
    rows = []
    if real.classical:
        coords = real.source.coordinate_table(real.I)
        if points is not None:
            coords = [coords[p] for p in points]
        for c in coords:
            prods_k = _coordinate_products(c, n, k)
            row = [pl * pk for pl in _coordinate_products(c, n, l) for pk in prods_k]
            for pos in admissible:
                row[pos] -= 1
            rows.append(row)
    else:
        dual = real.source
        buckets = {}
        for b in product(members, repeat=l):
            left = dual.word_value(l_word, b)
            base = flat_index(b, n) * cols_k
            for c in product(members, repeat=k):
                gamma = dual.multiply(
                    left, dual.invert(dual.word_value(k_word, c))
                )
                buckets.setdefault(gamma, []).append(base + flat_index(c, n))
        for gamma, positions in sorted(
            buckets.items(), key=lambda kv: dual.index[kv[0]]
        ):
            row = [0] * unknowns
            for pos in positions:
                row[pos] += 1
            if gamma == dual.identity:
                for pos in admissible:
                    row[pos] -= 1
            rows.append(row)
        if dual.identity not in buckets:
            row = [0] * unknowns
            for pos in admissible:
                row[pos] -= 1
            rows.append(row)
    if not rows:
        rows = [[0] * unknowns]
    _, null = rank_nullspace(ExactMatrix.from_rows(rows))
    basis = tuple(ExactMatrix(n**l, cols_k, vec.entries) for vec in null)
    return OperatorSpace(k_word, l_word, n, basis, "fxi-space")


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


def grid_cells(bound: int) -> list:
    """All word pairs (k, l) with |k| + |l| <= bound, deterministic order."""
    words = colored_words(bound)
    cells = [
        (kw, lw)
        for kw in words
        for lw in words
        if len(kw) + len(lw) <= bound
    ]
    cells.sort(key=lambda cell: (len(cell[0]) + len(cell[1]), cell[0], cell[1]))
    return cells


def axiom_report(spaces: dict) -> dict:
    """Tensor-category diagnostics on a grid of operator spaces.

    unit/adjoint/frobenius are theorems for relation solution spaces and are
    the 'asserted' axioms; composition and tensor closure are reported only.
    Only checks whose operands and result cells lie in the grid are run.
    """
    cells = sorted(spaces, key=lambda cell: (len(cell[0]) + len(cell[1]), cell[0], cell[1]))
    report = {
        "unit": [],
        "adjoint": [],
        "frobenius": [],
        "composition": {"checked": 0, "passed": True, "failures": []},
        "tensor": {"checked": 0, "passed": True, "failures": []},
    }
    n = None
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
            backward = all(
                space.contains(frobenius_to_hom_from_column(col, kw, lw, n))
                for col in target.basis
            )
            ok = forward and backward and space.dimension == target.dimension
            report["frobenius"].append({"k": kw, "l": lw, "passed": ok})
    for (k1, l1) in cells:
        first = spaces[(k1, l1)]
        for (k2, l2) in cells:
            if k2 != l1:
                continue
            composed_cell = (k1, l2)
            if composed_cell not in spaces:
                continue
            second = spaces[(k2, l2)]
            target = spaces[composed_cell]
            report["composition"]["checked"] += 1
            for S in second.basis:
                for T in first.basis:
                    if not target.contains(S * T):
                        report["composition"]["passed"] = False
                        report["composition"]["failures"].append(
                            {"inner": [k1, l1], "outer": [k2, l2]}
                        )
                        break
                else:
                    continue
                break
    for (k1, l1) in cells:
        first = spaces[(k1, l1)]
        for (k2, l2) in cells:
            tensor_cell = (k1 + k2, l1 + l2)
            if tensor_cell not in spaces:
                continue
            second = spaces[(k2, l2)]
            target = spaces[tensor_cell]
            report["tensor"]["checked"] += 1
            for T in first.basis:
                for S in second.basis:
                    if not target.contains(T.kron(S)):
                        report["tensor"]["passed"] = False
                        report["tensor"]["failures"].append(
                            {"left": [k1, l1], "right": [k2, l2]}
                        )
                        break
                else:
                    continue
                break
    report["asserted_passed"] = (
        all(entry["passed"] for entry in report["unit"])
        and all(entry["passed"] for entry in report["adjoint"])
        and all(entry["passed"] for entry in report["frobenius"])
    )
    return report


def frobenius_to_hom_from_column(col: ExactMatrix, k_word: str, l_word: str, n: int):
    k, l = len(k_word), len(l_word)
    xi = ExactTensor((n,) * (k + l), col.entries)
    return frobenius_to_hom(xi, k_word, l_word, n)


def saturation_report(real: OracleRealization, hom_source, bound: int) -> dict:
    """Per grid cell: intertwiner dimension vs solution-space dimension,
    inclusion (a theorem; must hold) and equality (reported), plus the axiom
    report on the solution grid and an overall verdict.
    """
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
