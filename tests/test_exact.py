import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhs.exact import (
    ExactMatrix,
    ExactTensor,
    ScaleBaseError,
    ScaledScalar,
    SingularGramError,
    invert,
    rank,
    rank_nullspace,
)
from qhs.partitions import SetPartition, partition_vector, select_basis


def test_scaled_mul_root_base_squares_to_inverse():
    a = ScaledScalar(Fraction(1), 1, 2)
    assert a * a == ScaledScalar(Fraction(1, 2), 0, 2)


def test_scaled_mul_perfect_square_base_folds():
    out = ScaledScalar(Fraction(3), 0, 4) * ScaledScalar(Fraction(2), 1, 4)
    assert out == ScaledScalar(Fraction(3), 0, 4)
    assert out.s == 0


def test_scaled_mul_zero_annihilates():
    out = ScaledScalar(Fraction(0), 1, 5) * ScaledScalar(Fraction(7), 3, 5)
    assert out.q == 0 and out.s == 0


def test_scaled_mul_mismatched_base_rejected():
    with pytest.raises(ScaleBaseError):
        ScaledScalar(Fraction(1), 1, 2) * ScaledScalar(Fraction(1), 1, 3)


def test_scaled_canonical_folds_whole_powers():
    v = ScaledScalar(Fraction(2), 2, 2)
    assert (v.q, v.s) == (Fraction(1), 0)
    w = ScaledScalar(Fraction(1), 3, 2)
    assert (w.q, w.s) == (Fraction(1, 2), 1)
    # negative s means positive powers of sqrt(m)
    u = ScaledScalar(Fraction(1), -1, 2)
    assert (u.q, u.s) == (Fraction(2), 1)
    assert u.value() == pytest.approx(2**0.5)


def test_scaled_addition_same_scale():
    a = ScaledScalar(Fraction(1, 2), 1, 2)
    b = ScaledScalar(Fraction(3, 2), 1, 2)
    assert a + b == ScaledScalar(Fraction(2), 1, 2)
    assert a + ScaledScalar(Fraction(0), 0, 2) == a


def test_scaled_addition_mixed_scale_rejected():
    with pytest.raises(ScaleBaseError):
        ScaledScalar(Fraction(1), 0, 2) + ScaledScalar(Fraction(1), 1, 2)


def test_scaled_rescale_gives_rational():
    v = ScaledScalar(Fraction(1, 2), 1, 2)
    assert v.rescale(1) == Fraction(1, 2)
    assert v.rescale(3) == Fraction(1)
    with pytest.raises(ScaleBaseError):
        v.rescale(2)


def test_scaled_rational_values_compare_across_bases():
    assert ScaledScalar(Fraction(1), 0, 2) == ScaledScalar(Fraction(1), 0, 5)
    assert ScaledScalar(Fraction(1), 0, 3) == 1


def test_scaled_float_crosscheck_thousand_random_cases():
    rng = random.Random(8123)
    for _ in range(1000):
        q1 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        q2 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        s1, s2 = rng.randrange(0, 4), rng.randrange(0, 4)
        m = rng.randrange(1, 11)
        a, b = ScaledScalar(q1, s1, m), ScaledScalar(q2, s2, m)
        fa = float(q1) * m ** (-s1 / 2)
        fb = float(q2) * m ** (-s2 / 2)
        assert (a * b).value() == pytest.approx(fa * fb, rel=1e-12, abs=1e-12)
        same_scale = ScaledScalar(q2, s1, m)
        fs = float(q2) * m ** (-s1 / 2)
        assert (a + same_scale).value() == pytest.approx(fa + fs, rel=1e-12, abs=1e-12)
        assert (a - same_scale).value() == pytest.approx(fa - fs, rel=1e-12, abs=1e-12)


def test_scaled_json_roundtrip():
    v = ScaledScalar(Fraction(-3, 7), 1, 5)
    assert ScaledScalar.from_json(v.to_json()) == v


def test_rank_nullspace_identity():
    r, null = rank_nullspace(ExactMatrix.identity(2))
    assert r == 2 and null == []


def test_rank_nullspace_rank_one():
    r, null = rank_nullspace(ExactMatrix.from_rows([[1, 1], [1, 1]]))
    assert r == 1
    assert len(null) == 1
    assert null[0].entries == (Fraction(1), Fraction(-1))


def test_rank_of_pairing_gram_at_small_n():
    # Gram of the three pairings of four points at N=2, built from scratch
    # by entrywise inner products of the partition vectors.
    pairings = [
        SetPartition.from_blocks(4, [(0, 1), (2, 3)]),
        SetPartition.from_blocks(4, [(0, 2), (1, 3)]),
        SetPartition.from_blocks(4, [(0, 3), (1, 2)]),
    ]
    vecs = [partition_vector(p, 2) for p in pairings]
    gram = ExactMatrix.from_rows([[a.dot(b) for b in vecs] for a in vecs])
    assert gram.to_rows() == [[4, 2, 2], [2, 4, 2], [2, 2, 4]]
    assert rank(gram) == 3


def test_invert_identity_and_scalar():
    assert invert(ExactMatrix.identity(3)) == ExactMatrix.identity(3)
    assert invert(ExactMatrix(1, 1, (3,))) == ExactMatrix(1, 1, (Fraction(1, 3),))


def test_invert_gram_of_pairings():
    gram = ExactMatrix.from_rows([[16, 4, 4], [4, 16, 4], [4, 4, 16]])
    w = invert(gram)
    assert w == ExactMatrix.from_rows(
        [
            [Fraction(5, 72), Fraction(-1, 72), Fraction(-1, 72)],
            [Fraction(-1, 72), Fraction(5, 72), Fraction(-1, 72)],
            [Fraction(-1, 72), Fraction(-1, 72), Fraction(5, 72)],
        ]
    )
    assert (w * gram).is_identity()
    assert (gram * w).is_identity()


def test_invert_catches_corrupted_elimination(corrupted_elimination):
    gram = ExactMatrix.from_rows([[16, 4, 4], [4, 16, 4], [4, 4, 16]])
    with pytest.raises(AssertionError, match="exactness check"):
        invert(gram)


def test_invert_singular_reports_rank():
    with pytest.raises(SingularGramError) as err:
        invert(ExactMatrix.from_rows([[1, 1], [1, 1]]))
    assert err.value.rank == 1
    assert err.value.name == "gram-singular"


small_entries = st.integers(min_value=-4, max_value=4)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rank_plus_nullity_and_exact_kernel(rows, cols, data):
    entries = data.draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    m = ExactMatrix(rows, cols, entries)
    r, null = rank_nullspace(m)
    assert r + len(null) == cols
    for v in null:
        assert (m * v).is_zero()


@given(st.integers(min_value=1, max_value=4), st.data())
def test_inverse_is_twosided_or_rank_deficient(n, data):
    entries = data.draw(st.lists(small_entries, min_size=n * n, max_size=n * n))
    m = ExactMatrix(n, n, entries)
    try:
        w = invert(m)
    except SingularGramError as err:
        assert err.rank < n
        return
    assert (w * m).is_identity()
    assert (m * w).is_identity()


def test_matrix_kron_shapes_and_values():
    a = ExactMatrix.from_rows([[1, 2]])
    b = ExactMatrix.from_rows([[3], [4]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.to_rows() == [[3, 6], [4, 8]]


def test_tensor_basics():
    t = ExactTensor((2, 2), (1, 0, 0, 1))
    assert t.at((0, 0)) == 1 and t.at((0, 1)) == 0
    assert t.dot(t) == 2
    assert t.as_column().rows == 4


def test_matrices_hash_consistently_across_int_and_fraction():
    a = ExactMatrix(1, 2, (1, Fraction(1, 2)))
    b = ExactMatrix(1, 2, (Fraction(1), Fraction(1, 2)))
    assert a == b
    assert hash(a) == hash(b)


# Reference eliminations, kept as independent oracles for the one routine in
# qhs.exact: Bareiss forward elimination with back substitution, Gauss-Jordan
# inversion, and the greedy rank-raising scan of basis selection.


def _ref_exact_div(num, den):
    if isinstance(num, int) and isinstance(den, int):
        q, rem = divmod(num, den)
        if rem == 0:
            return q
    return Fraction(num) / Fraction(den)


def _ref_bareiss(row_lists):
    rows = [list(r) for r in row_lists]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        top = rows[r]
        for i in range(r + 1, nrows):
            cur = rows[i]
            fac = cur[c]
            for j in range(c + 1, ncols):
                num = piv * cur[j] - fac * top[j]
                cur[j] = num if prev == 1 else _ref_exact_div(num, prev)
            cur[c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    return rows, pivots


def _ref_rank_nullspace(matrix):
    rows, pivots = _ref_bareiss(matrix.to_rows())
    rk = len(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * matrix.cols
        v[free] = Fraction(1)
        for t in range(rk - 1, -1, -1):
            pc = pivots[t]
            if pc >= free:
                continue
            acc = sum(rows[t][c] * v[c] for c in range(pc + 1, free + 1) if v[c])
            v[pc] = _ref_exact_div(-acc, rows[t][pc]) if acc else Fraction(0)
        lead = next(x for x in v if x != 0)
        basis.append(tuple(_ref_exact_div(x, lead) if x else Fraction(0) for x in v))
    return rk, basis


def _ref_invert(matrix):
    n = matrix.rows
    aug = [list(matrix.row(r)) + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            return len(_ref_bareiss(matrix.to_rows())[1])
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        aug[c] = [_ref_exact_div(x, aug[c][c]) for x in aug[c]]
        for i in range(n):
            fac = aug[i][c]
            if i != c and fac:
                aug[i] = [x - fac * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[r][n + c] for r in range(n) for c in range(n))


def _ref_greedy_keep(rows):
    echelon = []
    keep = []
    for t, row in enumerate(rows):
        row = list(row)
        for pivot, erow in echelon:
            if row[pivot]:
                f = _ref_exact_div(row[pivot], erow[pivot])
                row = [a - f * b for a, b in zip(row, erow)]
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is not None:
            keep.append(t)
            echelon.append((lead, row))
            echelon.sort(key=lambda pair: pair[0])
    return tuple(keep)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_one_routine_matches_reference_eliminations(rows, cols, data):
    entries = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=rows * cols, max_size=rows * cols)
    )
    m = ExactMatrix(rows, cols, entries)
    ref_rank, ref_null = _ref_rank_nullspace(m)
    rk, null = rank_nullspace(m)
    assert rk == ref_rank == rank(m)
    assert [v.entries for v in null] == ref_null
    members = [(None, ExactTensor((cols,), m.row(r))) for r in range(rows)]
    assert select_basis(members, cols).independent == _ref_greedy_keep(m.to_rows())
    n = min(rows, cols)
    square = ExactMatrix(n, n, [m.at(r, c) for r in range(n) for c in range(n)])
    expected = _ref_invert(square)
    if isinstance(expected, int):
        with pytest.raises(SingularGramError) as err:
            invert(square)
        assert err.value.rank == expected
    else:
        assert invert(square).entries == expected
