import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, gcd, perm
from operator import mul
from time import perf_counter

import pytest

import qhs
from qhs import weingarten
from qhs.exact import DomainError, ExactMatrix, ParseError, ScaledScalar, flat_index
from qhs.oracle import OracleGroup, brute_integrate_G
from qhs.partitions import (
    FAMILIES,
    SELF_CONJUGATE_FAMILIES,
    CategorySpec,
    SetPartition,
    all_partitions,
    bell,
    colored_words,
    enumerate_category,
    kernel_ids,
    partition_vector,
)
from qhs.weingarten import (
    IndexSet,
    K_vector,
    ergodicity_check,
    gram_weingarten,
    integrate_G,
    integrate_X,
    projection_P,
)

S4 = CategorySpec("S", 4)
O3 = CategorySpec("O", 3)
I12 = IndexSet.parse("1,2", 4)


def weingarten_matrix(data) -> ExactMatrix:
    """The Weingarten matrix as Fractions, rebuilt from its integer rows."""
    return ExactMatrix.from_rows(
        [[Fraction(x, data.denominator) for x in row] for row in data.weingarten_rows]
    )


def test_gram_single_pairing():
    data = gram_weingarten(O3, "oo")
    assert data.gram == ExactMatrix.from_rows([[3]])
    assert weingarten_matrix(data) == ExactMatrix.from_rows([[Fraction(1, 3)]])


def test_gram_o4_three_pairings():
    data = gram_weingarten(CategorySpec("O", 4), "oooo")
    assert data.gram == ExactMatrix.from_rows([[16, 4, 4], [4, 16, 4], [4, 4, 16]])
    assert (weingarten_matrix(data) * data.gram).is_identity()
    assert (data.gram * weingarten_matrix(data)).is_identity()


def test_gram_s4_k1():
    data = gram_weingarten(S4, "o")
    assert data.gram == ExactMatrix.from_rows([[4]])
    assert weingarten_matrix(data) == ExactMatrix.from_rows([[Fraction(1, 4)]])


def test_gram_matches_entrywise_inner_products():
    # both halves of the symmetric Gram matrix, on non-palindromic words too
    for family, n, word in (
        ("S", 3, "oooo"),
        ("O", 4, "oooo"),
        ("U+", 3, "obob"),
        ("U", 3, "oobb"),
        ("U+", 3, "oobb"),
        ("S+", 4, "ooooo"),
    ):
        data = gram_weingarten(CategorySpec(family, n), word)
        vecs = [partition_vector(part, n) for part in data.basis.selected]
        for a, va in enumerate(vecs):
            for b, vb in enumerate(vecs):
                assert data.gram.at(a, b) == (va.transpose() * vb).entries[0]


def _gram_cases():
    """All six families, N = 1..4, every word up to 6 letters (5 for S and
    S+; white words for the self-conjugate families), and O(3) at 8 letters."""
    cases = [
        (family, n, word)
        for family in FAMILIES
        for n in range(1, 5)
        for word in colored_words(5 if family in ("S", "S+") else 6)
        if not (family in SELF_CONJUGATE_FAMILIES and "b" in word)
    ]
    return [*cases, ("O", 3, "o" * 8)]


def test_gram_built_from_hits_is_n_to_the_join_block_count():
    # the Gram entries are summed from the kernel hits, sum over a above both
    # of perm(N, |a|); the reference is the union-find join of each pair
    for family, n, word in _gram_cases():
        data = gram_weingarten(CategorySpec(family, n), word)
        parts = data.basis.selected
        expected = [n ** pa.join_block_count(pb) for pa in parts for pb in parts]
        assert list(data.gram.entries) == expected, (family, n, word)


def test_solved_columns_equal_the_full_inverse():
    # W 1_b, one solve per column kernel b, and W kq of each |I| = m, against
    # the integer rows of the full inverse
    for family, n, word in _gram_cases():
        data = gram_weingarten(CategorySpec(family, n), word)
        wrows, den = data.weingarten_rows, data.denominator
        for b, cols in data.hits.items():
            x, xden = weingarten._weingarten_column(family, n, word, b)
            assert [v * den for v in x] == [sum(row[u] for u in cols) * xden for row in wrows]
        for m in range(1, n + 1):
            kq = [m**part.block_count for part in data.basis.selected]
            kw, kden = weingarten._k_dot_weingarten(family, n, word, m)
            assert [v * den for v in kw] == [sum(map(mul, row, kq)) * kden for row in wrows]


SIX_WORDS = (
    ("S", 3, "oooo"), ("S+", 3, "oooo"), ("O", 3, "oooo"),
    ("O+", 2, "oooooo"), ("U", 2, "obob"), ("U+", 2, "oobb"),
)


@pytest.mark.usefixtures("cold_caches")
def test_cold_moments_and_ergodicity_never_build_the_inverse(monkeypatch):
    def refused(matrix):
        raise AssertionError("the full inverse was built")

    monkeypatch.setattr(weingarten, "invert", refused)
    found = []
    for family, n, word in SIX_WORDS:
        spec, I = CategorySpec(family, n), IndexSet.of(n, {0})
        row = tuple(p % n for p in range(len(word)))
        found.append((
            integrate_G(spec, word, row, row[::-1]),
            integrate_X(spec, I, word, row),
            ergodicity_check(spec, I, word),
        ))
        # nor do equality and hashing
        data = gram_weingarten(spec, word)
        twin = weingarten._gram_data.__wrapped__(family, n, word)
        assert data == twin and hash(data) == hash(twin)
        assert "_inverse" not in vars(data) and "_inverse" not in vars(twin)
    monkeypatch.undo()
    # the projection reads W whole, built by the inverse
    for (family, n, word), (g, x, report) in zip(SIX_WORDS, found):
        spec, I, k = CategorySpec(family, n), IndexSet.of(n, {0}), len(word)
        row = tuple(p % n for p in range(k))
        P = projection_P(spec, word)
        i = flat_index(row, n)
        assert g == P.at(i, flat_index(row[::-1], n)), (family, word)
        assert x == ScaledScalar(sum(P.at(i, j) for j in I.flat_indices(k)), k, I.m), (family, word)
        assert report["passed"] and report["counterexample"] is None, (family, word)


def test_projection_s4_k1_uniform():
    P = projection_P(S4, "o")
    assert all(x == Fraction(1, 4) for x in P.entries)
    # cross-check against brute-force averaging over the 24 permutations
    sn4 = OracleGroup.symmetric(4)
    for i in range(4):
        for j in range(4):
            assert P.at(i, j) == brute_integrate_G(sn4, "o", (i,), (j,))


def test_projection_o3_k2_entry():
    P = projection_P(O3, "oo")
    assert P.at(0, 4) == Fraction(1, 3)  # row (0,0), column (1,1) at N=3
    assert P.at(0, 0) == Fraction(1, 3)


def test_projection_empty_word():
    P = projection_P(S4, "")
    assert P == ExactMatrix.from_rows([[1]])


def test_integrate_g_examples():
    assert integrate_G(S4, "o", (0,), (0,)) == Fraction(1, 4)
    assert integrate_G(S4, "oo", (0, 1), (0, 1)) == Fraction(1, 12)
    assert integrate_G(O3, "oo", (0, 0), (0, 0)) == Fraction(1, 3)


def test_integrate_g_bad_index():
    with pytest.raises(DomainError):
        integrate_G(S4, "o", (4,), (0,))


def test_projection_idempotent_and_fixes_members():
    for spec, word in ((S4, "oo"), (O3, "oo"), (CategorySpec("U", 3), "ob")):
        P = projection_P(spec, word)
        assert P * P == P
        for part in enumerate_category(spec, word):
            xi = partition_vector(part, spec.N)
            assert P * xi == xi


def test_k_vector_examples():
    assert K_vector(S4, "o", I12) == [ScaledScalar(Fraction(2), 1, 2)]
    ks = K_vector(S4, "oo", I12)
    # canonical order: the full block 12 first, then 1|2
    assert ks[0] == ScaledScalar(Fraction(1), 0, 2)  # count 2 at scale 1/m
    assert ks[1] == ScaledScalar(Fraction(2), 0, 2)  # count 4 at scale 1/m
    full = IndexSet.parse("1,2,3,4", 4)
    assert K_vector(S4, "", full) == [ScaledScalar(Fraction(1), 0, 4)]


def test_integrate_x_examples():
    v = integrate_X(S4, I12, "o", (0,))
    assert v == ScaledScalar(Fraction(1, 2), 1, 2)  # sqrt(2)/4
    assert v.value() == pytest.approx(2**0.5 / 4)
    assert integrate_X(S4, I12, "", ()) == 1
    full = IndexSet.parse("1,2,3,4", 4)
    assert integrate_X(S4, full, "o", (0,)) == ScaledScalar(Fraction(1, 2), 0, 4)


def test_scaled_moment_always_rational():
    for word in ("", "o", "oo", "ob", "oob"):
        for idx in product(range(4), repeat=len(word)):
            v = integrate_X(S4, I12, word, idx)
            v.rescale(len(word))  # must not raise


def test_sphere_normalisation_sums_to_one():
    for spec, I in ((S4, I12), (O3, IndexSet.parse("1", 3)), (CategorySpec("U+", 3), IndexSet.parse("1,2", 3))):
        total = ScaledScalar(Fraction(0), 0, I.m)
        for i in range(spec.N):
            total = total + integrate_X(spec, I, "ob", (i, i))
        assert total == 1


def test_empty_word_moment_is_one():
    assert integrate_X(S4, I12, "", ()) == 1


def test_ergodicity_classical_and_free():
    for word in ("", "o", "oo", "ooo"):
        assert ergodicity_check(S4, I12, word)["passed"]
    up3 = CategorySpec("U+", 3)
    I1 = IndexSet.parse("1", 3)
    for word in ("", "o", "b", "ob", "bo", "oo", "oob"):
        assert ergodicity_check(up3, I1, word)["passed"]


# the child may map at most this much memory, so a dense N^(2k) table fails
# with MemoryError instead of exhausting the host
CHILD_ADDRESS_SPACE = 1 << 30


def test_ergodicity_is_independent_of_n():
    # S(12), k=4: the dense projection would have 20736^2 = 4.3e8 entries
    code = (
        "import time\n"
        "from qhs.partitions import CategorySpec\n"
        "from qhs.weingarten import IndexSet, ergodicity_check\n"
        "start = time.perf_counter()\n"
        "report = ergodicity_check(CategorySpec('S', 12), IndexSet.of(12, {0, 1}), 'oooo')\n"
        "print(report['passed'], time.perf_counter() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(qhs.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE)
        ),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    passed, seconds = proc.stdout.split()
    assert passed == "True"
    assert float(seconds) < 5.0


def test_ergodicity_report_shape():
    report = ergodicity_check(S4, I12, "oo")
    assert report["spec"] == "S(4)"
    assert report["I"] == "1,2"
    assert report["counterexample"] is None


def test_index_set_parsing():
    assert IndexSet.parse("1,2", 4).sorted_members == (0, 1)
    assert str(IndexSet.parse("2,1", 4)) == "1,2"
    with pytest.raises(Exception):
        IndexSet.parse("0,1", 4)
    with pytest.raises(Exception):
        IndexSet.parse("5", 4)


def test_gram_cache_shares_selfconjugate_colorings():
    a = projection_P(S4, "oo")
    b = projection_P(S4, "ob")
    assert a is b
    u3 = CategorySpec("U", 3)
    assert projection_P(u3, "oo") is not projection_P(u3, "ob")


def test_point_queries_at_large_n_build_no_dense_table(cold_caches):
    # each kernel is read off its index; kernel_ids(N, k) would have N^k entries
    # (40^4 = 2.56M, 20^6 = 64M), so none of these may touch it
    queries = [
        (integrate_G, (CategorySpec("S", 40), "oooo", (0, 1, 0, 2), (0, 1, 0, 2))),
        (integrate_G, (CategorySpec("O", 20), "o" * 6, (0, 0, 1, 1, 2, 2), (0, 0, 1, 1, 2, 2))),
        (integrate_G, (CategorySpec("S+", 30), "oooo", (0, 0, 1, 1), (0, 0, 1, 1))),
        (integrate_X, (CategorySpec("S", 40), IndexSet.of(40, {0, 1}), "oooo", (0, 1, 0, 1))),
    ]
    values = []
    for integrate, args in queries:
        start = perf_counter()
        values.append(integrate(*args))
        assert perf_counter() - start < 2.0, args
    assert kernel_ids.cache_info().currsize == 0
    assert values[0] == Fraction(1, 40 * 39 * 38)
    assert values[1] > 0  # the integral of a square, over a faithful Haar state
    # the entries of a magic unitary are projections, so this is u_11 u_22, where S+ and S agree
    assert values[2] == Fraction(1, 30 * 29)


def _kernel(idx) -> SetPartition:
    classes = {}
    for p, v in enumerate(idx):
        classes.setdefault(v, []).append(p)
    return SetPartition.from_blocks(len(idx), classes.values())


def _refines(fine: SetPartition, coarse: SetPartition) -> bool:
    bi = coarse.block_index
    return all(bi[p] == bi[block[0]] for block in fine.blocks for p in block)


def test_hits_are_the_selected_partitions_below_each_kernel():
    # brute force: t is in hits[a] iff pi_t refines a, and no other kernel is a key
    for family in FAMILIES:
        for word in colored_words(6):
            if family in SELF_CONJUGATE_FAMILIES and "b" in word:
                continue
            kernels = all_partitions(len(word))
            for n in range(1, 5):
                data = gram_weingarten(CategorySpec(family, n), word)
                for a in kernels:
                    below = tuple(t for t, pi in enumerate(data.basis.selected) if _refines(pi, a))
                    assert data.hits.get(bytes(a.block_index), ()) == below, (family, n, word, a)
                assert all(data.hits.values())
                assert set(data.hits) <= {bytes(a.block_index) for a in kernels}


@pytest.mark.parametrize("spec, word", [("O+(3)", "o" * 8), ("U+(2)", "ob" * 4)])
def test_hits_of_a_pairing_family_are_far_fewer_than_the_partitions(spec, word):
    data = gram_weingarten(CategorySpec.parse(spec), word)
    assert data.basis.dimension > 0
    assert len(data.hits) < bell(8) // 10


def _mobius(fine: SetPartition, coarse: SetPartition) -> int:
    """mu(fine, coarse) on the partition lattice: per block of coarse made of
    j blocks of fine, a factor (-1)^(j-1) (j-1)!."""
    merged = {}
    for block in fine.blocks:
        b = coarse.block_index[block[0]]
        merged[b] = merged.get(b, 0) + 1
    out = 1
    for j in merged.values():
        out *= (-1) ** (j - 1) * factorial(j - 1)
    return out


def _mobius_moment(n: int, row, col) -> Fraction:
    """integrate_G over S_N, N >= k, in closed form.  The Gram matrix is
    zeta^T D zeta with D = diag((N)_|tau|) over all partitions tau, so
    W(pi, sigma) = sum over tau finer than pi and sigma of
    mu(tau, pi) mu(tau, sigma) / (N)_|tau|; the moment sums W over the pi
    below ker row and the sigma below ker col."""
    parts = all_partitions(len(row))
    below_row = [p for p in parts if _refines(p, _kernel(row))]
    below_col = [p for p in parts if _refines(p, _kernel(col))]
    total = Fraction(0)
    for pi in below_row:
        for sigma in below_col:
            for tau in parts:
                if _refines(tau, pi) and _refines(tau, sigma):
                    weight = _mobius(tau, pi) * _mobius(tau, sigma)
                    total += Fraction(weight, perm(n, tau.block_count))
    return total


def test_point_queries_match_the_mobius_form_at_s40():
    n = 40
    spec = CategorySpec("S", n)
    pairs = [
        ((0,), (0,)),
        ((0,), (5,)),
        ((0, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 1, 0), (2, 3, 2)),
        ((0, 1, 0), (2, 3, 4)),
        ((0, 1, 0, 2), (0, 1, 0, 2)),
        ((0, 1, 2, 3), (3, 2, 1, 0)),
        ((0, 0, 1, 1), (2, 2, 3, 3)),
        ((0, 1, 0, 1), (2, 3, 3, 2)),
        ((7, 7, 7, 9), (1, 1, 4, 1)),
    ]
    for row, col in pairs:
        assert integrate_G(spec, "o" * len(row), row, col) == _mobius_moment(n, row, col), (row, col)
    I = IndexSet.of(n, {0, 1})
    for idx in ((0, 1, 0, 1), (0, 5, 5, 2), (3, 3, 3)):
        k = len(idx)
        q = sum(_mobius_moment(n, idx, col) for col in product((0, 1), repeat=k))
        assert integrate_X(spec, I, "o" * k, idx) == ScaledScalar(q, k, I.m), idx


@pytest.mark.parametrize(
    "family, n, word",
    [
        ("S", 3, "oooo"),
        ("O", 3, "oooooo"),
        ("U", 3, "obob"),
        ("U", 2, "oobbob"),
        ("S+", 4, "ooooo"),
        ("O+", 2, "oooooo"),
        ("U+", 3, "obbo"),
    ],
)
def test_weingarten_rows_are_integers_over_one_denominator(family, n, word):
    data = gram_weingarten(CategorySpec(family, n), word)
    den = data.denominator
    assert len(data.weingarten_rows) == data.gram.rows > 0
    for wrow in data.weingarten_rows:
        assert all(type(x) is int for x in wrow)
    # over the denominator, the rows are the exact inverse of the Gram matrix
    assert (weingarten_matrix(data) * data.gram).is_identity()
    # the least common denominator: no factor of it divides every numerator
    assert gcd(den, *(x for wrow in data.weingarten_rows for x in wrow)) == 1


def test_warm_integrate_x_hits_return_one_finished_value(cold_caches, monkeypatch):
    spec, I = CategorySpec("O", 3), IndexSet.of(3, {0, 2})
    first = integrate_X(spec, I, "oooo", (0, 1, 0, 1))
    built = []
    real_init = ScaledScalar.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(ScaledScalar, "__init__", counting_init)
    # the same kernel through other indices, and colors O cannot see
    for word, idx in (("oooo", (0, 1, 0, 1)), ("oooo", (2, 0, 2, 0)), ("obob", (1, 2, 1, 2))):
        assert integrate_X(spec, I, word, idx) is first
    assert built == []
    # a warm hit still checks its word, its index set and its index
    with pytest.raises(ParseError):
        integrate_X(spec, I, "oxoo", (0, 1, 0, 1))
    with pytest.raises(DomainError):
        integrate_X(spec, IndexSet.of(4, {0, 2}), "oooo", (0, 1, 0, 1))
    with pytest.raises(DomainError):
        integrate_X(spec, I, "oooo", (0, 1, 0, 3))
