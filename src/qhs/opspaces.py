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

from functools import cached_property
from operator import mul

from .exact import ExactMatrix, Frozen, ResourceGuardError, common_denominator, rank_nullspace
from .frobenius import frobenius_map, frobenius_to_hom
from .oracle import OracleRealization, fixed_space
from .partitions import colored_words, conjugate_word

FXI_GUARD = 4096  # unknowns of one solution space
GRID_GUARD = 16384  # unknowns summed over the cells of a saturation grid


class OperatorSpace(Frozen):
    """A linear space of N^l x N^k matrices with an exactly independent basis;
    equation_rows, if known, are its defining equations (not compared)."""

    def __init__(self, k_word: str, l_word: str, N: int, basis: tuple, equation_rows: tuple = None):
        object.__setattr__(self, "k_word", k_word)
        object.__setattr__(self, "l_word", l_word)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "equation_rows", equation_rows)

    def _key(self):
        return self.k_word, self.l_word, self.N, self.basis

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

    @cached_property
    def supports(self) -> tuple:
        """Per basis element its nonzero entries, as (flat indices, values),
        the values as integers over the element's common denominator (a
        positive rescale, which no membership verdict reads)."""
        out = []
        for T in self.basis:
            flats, values = _support(T.entries)
            out.append((flats, common_denominator(values)[0]))
        return tuple(out)

    @cached_property
    def l1(self) -> int:
        """The largest sum of absolute values over the elements of supports."""
        return max((sum(map(abs, values)) for _, values in self.supports), default=0)

    @cached_property
    def equation_max(self) -> int:
        """The largest absolute entry of the equations; 1 for the zero space,
        whose test reads each entry of a vector, and for a space with none."""
        if self.equations is None:
            return 1
        return max((max(map(abs, e)) for e in self.equations), default=1)

    def contains(self, T: ExactMatrix) -> bool:
        """Exact membership: T satisfies every defining equation."""
        ambient_rows = self.N ** len(self.l_word)
        ambient_cols = self.N ** len(self.k_word)
        if T.rows != ambient_rows or T.cols != ambient_cols:
            raise ValueError(
                f"shape mismatch: space holds {ambient_rows}x{ambient_cols}, "
                f"got {T.rows}x{T.cols}"
            )
        return self.contains_sparse(*_support(T.entries))

    def contains_sparse(self, flats, values) -> bool:
        """Membership of the vector sum of values[j] at flat index flats[j]
        (a flat may repeat): every equation dotted with it is zero."""
        if self.equations is None:  # the zero space
            acc = dict.fromkeys(flats, 0)
            for f, v in zip(flats, values):
                acc[f] += v
            return not any(acc.values())
        return not any(
            sum(map(mul, map(e.__getitem__, flats), values)) for e in self.equations
        )


def _support(entries) -> tuple:
    flats = tuple(f for f, x in enumerate(entries) if x)
    return flats, tuple(entries[f] for f in flats)


def fxi_space(real: OracleRealization, k_word: str, l_word: str) -> OperatorSpace:
    """All operators whose relation holds over the realization, exactly.

    One homogeneous linear equation per evaluation functional of the
    realization (`OracleRealization.functionals`), minus the rhs sum a_T at
    the points where it is due; their reduced rows are the space's defining
    equations.
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
    for _, flats, weights, at_identity in real.functionals(k_word, l_word):
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
    return OperatorSpace(k_word, l_word, n, basis, tuple(equations))


def hom_operator_space(source, k_word: str, l_word: str) -> OperatorSpace:
    """Intertwiner space of an oracle group or dual: the oracle's fixed
    space of l + conjugate(k) through Frobenius duality."""
    n = source.N
    fixed = fixed_space(source, l_word + conjugate_word(k_word))
    basis = tuple(frobenius_to_hom(xi, k_word, l_word, n) for xi in fixed)
    return OperatorSpace(k_word, l_word, n, basis)


def _cell_order(cell) -> tuple:
    return (len(cell[0]) + len(cell[1]), cell[0], cell[1])


def grid_cells(bound: int) -> list:
    """All word pairs (k, l) with |k| + |l| <= bound, deterministic order."""
    words = colored_words(bound)
    cells = [(kw, lw) for kw in words for lw in words if len(kw + lw) <= bound]
    return sorted(cells, key=_cell_order)


def _moved_in(space, flat_map, support) -> bool:
    """Whether the vector with this support, moved through flat_map, lies in
    the space: each equation e is pulled back to e∘flat_map on the support."""
    flats, values = support
    return space.contains_sparse([flat_map[f] for f in flats], values)


def _packed(space, target, *others) -> tuple:
    """The support of sum_i b_i 2^(shift i) over the space's basis supports
    b_i, for a check against target's equations E in which each b_i meets
    one element of each other space.  Such a digit <e, x> is below
    max|E| L1(b_i) prod L1(other) < 2^shift in absolute value, so, as in
    `exact._inverse_holds`, the balanced digits are unique and the packed
    vector lies in the target iff every digit's vector does."""
    bound = target.equation_max * space.l1
    for other in others:
        bound *= other.l1
    shift = bound.bit_length() + 2
    acc = {}
    for i, (flats, values) in enumerate(space.supports):
        for f, v in zip(flats, values):
            acc[f] = acc.get(f, 0) + (v << shift * i)
    return tuple(acc), tuple(acc.values())


def _unit_holds(space) -> bool:
    cols = space.N ** len(space.k_word)
    return space.contains_sparse(range(0, cols * cols, cols + 1), (1,) * cols)


def _adjoint_holds(space, mirror) -> bool:
    rows, cols = space.N ** len(space.l_word), space.N ** len(space.k_word)
    transpose = [c * rows + r for r in range(rows) for c in range(cols)]
    return _moved_in(mirror, transpose, _packed(space, mirror))


def _frobenius_holds(space, target) -> bool:
    reshuffle = frobenius_map(space.N, len(space.k_word), len(space.l_word))
    return (
        space.dimension == target.dimension
        and _moved_in(target, reshuffle, _packed(space, target))
        and _moved_in(space, reshuffle, _packed(target, space))
    )


def _composition_fails(inner, outer, target) -> bool:
    """True when some product S T of an outer and an inner element breaks a
    target equation, tested as S P with P the packed inner basis
    (`_packed`).  S P has support in the pairs of nonzero S[b, m] and
    P[m, c] that meet in m, each adding S[b, m] P[m, c] at flat b cols + c;
    no product is built."""
    cols = inner.N ** len(inner.k_word)
    middle = inner.N ** len(inner.l_word)
    inner_split = [(*divmod(f, cols), t) for f, t in zip(*_packed(inner, target, outer))]
    for flats2, values2 in outer.supports:
        by_middle = [[] for _ in range(middle)]
        for f, s in zip(flats2, values2):
            b, m = divmod(f, middle)
            by_middle[m].append((b * cols, s))
        flats, values = [], []
        for m, c, t in inner_split:
            for base, s in by_middle[m]:
                flats.append(base + c)
                values.append(s * t)
        if not target.contains_sparse(flats, values):
            return True
    return False


def _tensor_fails(left, right, target) -> bool:
    """True when some T kron S of a left and a right element breaks a target
    equation, tested as P kron S with P the packed left basis (`_packed`).
    The flat index of P kron S splits as
    flat((b1, b2), (c1, c2)) = A[(b1, c1)] + B[(b2, c2)], so its support is
    the sum of the two supports and no kron is built."""
    rows2, cols2 = right.N ** len(right.l_word), right.N ** len(right.k_word)
    cols1 = left.N ** len(left.k_word)
    width = cols1 * cols2
    flats1, values1 = _packed(left, target, right)
    starts = [f // cols1 * rows2 * width + f % cols1 * cols2 for f in flats1]
    for flats2, values2 in right.supports:
        offsets = [f // cols2 * width + f % cols2 for f in flats2]
        flats = [a + b for a in starts for b in offsets]
        values = [t * s for t in values1 for s in values2]
        if not target.contains_sparse(flats, values):
            return True
    return False


def _record(entry: dict, fails: bool, failure: dict) -> None:
    entry["checked"] += 1
    if fails:
        entry["passed"] = False
        entry["failures"].append(failure)


def axiom_report(spaces: dict) -> dict:
    """Tensor-category diagnostics on a grid of operator spaces, each check
    run against the defining equations of its result cell; only checks whose
    operands and result cells lie in the grid are run.

    Every check dots the equations e of the result cell with a support read
    off the operands' supports (`OperatorSpace.supports`) through a map of
    flat indices; no identity, transpose, reshuffle, product or Kronecker
    matrix is built:
    - unit: <e, 1> is the sum of e at stride cols + 1 (the diagonal);
    - adjoint: <e, T^T> = sum of T[r, c] e[c rows + r] over T's support;
    - frobenius: the reshuffle is a permutation of flat indices that is its
      own inverse (`frobenius.frobenius_map`), in both directions;
    - composition: <e, S T> = sum of S[b, m] T[m, c] e[b cols + c] over the
      pairs of nonzero entries that meet in m;
    - tensor: <e, T kron S> = sum of T[b1, c1] S[b2, c2] e[A + B] over the
      pairs of nonzero entries, with the flat index of T kron S split as
      A[(b1, c1)] + B[(b2, c2)].

    Adjoint, Frobenius, composition and tensor test one operand's whole
    basis at once, as the packed vector sum_i b_i 2^(shift i) (`_packed`):
    adjoint and Frobenius make one membership test per direction,
    composition and tensor one per element of the other operand.  The shift
    bounds every digit, so the verdict is exact.

    A verdict reads only its operand spaces (their shapes come from their
    own word lengths), so it is computed once per distinct operand tuple,
    keyed on the spaces' identities in a memo that lives for one call (one
    space may fill several cells, as in `fxi_grid`), and recorded for every
    cell pair that reads it.  Only cell pairs that can compose or tensor
    are walked, in cell order: composition looks up the outer cells by
    their k word, and tensor stops at the right cells too long for any
    product cell in the grid.

    unit/adjoint/frobenius are theorems for relation solution spaces and are
    the 'asserted' axioms.  On a grid from one realization adjoint and tensor
    closure are identities of the defining functionals: classically
    phi_p(T kron S) = phi_p(T) (u_p^T S v_p) + a_T phi_p(S), with
    phi_p(X) = u_p^T X v_p - a_X and a_X the sum of X over I^l x I^k; on a
    dual, sum T l1(b1) sigma_S k1(c1)^-1 with sigma_S = a_S e.  Only
    composition can really fail.  Every check is still computed, with one
    failure recorded per cell pair.
    """
    memo = {}

    def verdict(check, *operands) -> bool:
        key = (check, *map(id, operands))
        if key not in memo:
            memo[key] = check(*operands)
        return memo[key]

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
        if kw == lw:
            report["unit"].append({"k": kw, "l": lw, "passed": verdict(_unit_holds, space)})
        mirror = spaces.get((lw, kw))
        if mirror is not None:
            ok = verdict(_adjoint_holds, space, mirror)
            report["adjoint"].append({"k": kw, "l": lw, "passed": ok})
        target = spaces.get(("", lw + conjugate_word(kw)))
        if target is not None:
            ok = verdict(_frobenius_holds, space, target)
            report["frobenius"].append({"k": kw, "l": lw, "passed": ok})
    by_k = {}
    for cell in cells:
        by_k.setdefault(cell[0], []).append(cell)
    for k1, l1 in cells:
        for k2, l2 in by_k.get(l1, ()):
            if (k1, l2) in spaces:
                operands = spaces[(k1, l1)], spaces[(k2, l2)], spaces[(k1, l2)]
                fails = verdict(_composition_fails, *operands)
                _record(report["composition"], fails, {"inner": [k1, l1], "outer": [k2, l2]})
    longest = max((len(k + l) for k, l in cells), default=0)
    for k1, l1 in cells:
        room = longest - len(k1) - len(l1)
        for k2, l2 in cells:
            if len(k2) + len(l2) > room:
                break
            cell = (k1 + k2, l1 + l2)
            if cell in spaces:
                fails = verdict(_tensor_fails, spaces[(k1, l1)], spaces[(k2, l2)], spaces[cell])
                _record(report["tensor"], fails, {"left": [k1, l1], "right": [k2, l2]})
    report["asserted_passed"] = (
        all(entry["passed"] for entry in report["unit"])
        and all(entry["passed"] for entry in report["adjoint"])
        and all(entry["passed"] for entry in report["frobenius"])
    )
    return report


def _defining_system(real: OracleRealization, k_word: str, l_word: str) -> tuple:
    """All that `fxi_space` reads of a cell besides the realization: the word
    lengths and, on a dual, every point's (flats, weights, at_identity),
    without the point labels.  Classical functionals read only the lengths."""
    if real.classical:
        return len(k_word), len(l_word)
    points = real.functionals(k_word, l_word)
    return len(k_word), len(l_word), tuple((tuple(f), w, at) for _, f, w, at in points)


def _share(source, cells, key, build) -> dict:
    """build(source, *cell) for every cell, once per distinct key(source,
    *cell): cells with equal keys share the space built for the first."""
    shared = {}
    grid = {}
    for cell in cells:
        k = key(source, *cell)
        if k not in shared:
            shared[k] = build(source, *cell)
        grid[cell] = shared[k]
    return grid


def fxi_grid(real: OracleRealization, cells) -> dict:
    """`fxi_space` of every cell, solved once per distinct defining system.

    Equal systems give equal spaces, so cells with equal systems share one
    `OperatorSpace`, labelled with the words of the first such cell (only
    their lengths are read).  On a classical oracle the functionals ignore
    colors, so a cell is keyed on its word lengths alone and no functional
    is built for the key: a grid holds one system per pair of word lengths
    (10 for the 49 cells of bound 3).
    """
    return _share(real, cells, _defining_system, fxi_space)


def _hom_key(source, k_word: str, l_word: str) -> tuple:
    """All that `hom_operator_space` reads of a cell besides the source: the
    cached fixed-space tuple of l + conjugate(k), by identity (classically
    one per length), and the word lengths."""
    return id(fixed_space(source, l_word + conjugate_word(k_word))), len(k_word), len(l_word)


def saturation_report(real: OracleRealization, hom_source, bound: int) -> dict:
    """Per grid cell: intertwiner dimension vs solution-space dimension,
    inclusion (a theorem; must hold) and equality (reported), plus the axiom
    report on the solution grid and an overall verdict.  The (t+1) 2^t cells
    with |k| + |l| == t have N^t unknowns each; their sum is checked against
    the grid guard before any space is built.  Cells with equal defining
    systems share one solution space (`fxi_grid`), cells with the same
    cached fixed space and word lengths share one hom space (`_hom_key`:
    classically one per pair of lengths), and inclusion is decided once per
    pair of shared spaces.
    """
    total = 0
    for t in range(bound + 1):
        total += (t + 1) * (2 * real.N) ** t
        if total > GRID_GUARD:
            msg = f"grid cells with |k|+|l| <= {t} have {total} unknowns, exceeding the guard {GRID_GUARD}"
            raise ResourceGuardError(msg)
    cells = grid_cells(bound)
    fxi = fxi_grid(real, cells)
    hom = _share(hom_source, cells, _hom_key, hom_operator_space)
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
    inclusion = {}
    for kw, lw in cells:
        h, f = hom[(kw, lw)], fxi[(kw, lw)]
        pair = id(h), id(f)
        if pair not in inclusion:
            inclusion[pair] = all(f.contains(T) for T in h.basis)
        included = inclusion[pair]
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
        "oracle": real.source.name,
        "I": str(real.I),
        "bound": bound,
        "cells": cell_entries,
        "axioms": axioms,
        "verdict": verdict,
    }
