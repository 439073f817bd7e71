"""The kernel path against the dense path it replaced.

The reference code here builds every partition vector as a dense N^k tensor
with a product loop, selects the basis greedily on those vectors, finds the
hits by scanning them, sums projection entries one pair of indices at a time,
sums over I^k index by index and checks ergodicity row by row over all N^(2k)
projection entries.  Every comparison is exact.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qhs import weingarten
from qhs.exact import Echelon, ExactMatrix, ScaledScalar, flat_index
from qhs.partitions import FAMILIES, CategorySpec, enumerate_category, fix_basis, partition_vector
from qhs.weingarten import (
    IndexSet,
    K_vector,
    ergodicity_check,
    gram_weingarten,
    integrate_G,
    integrate_X,
    projection_P,
)

# the full projection has N^(2k) entries; it is compared up to this N^k
PROJECTION_SIZE = 256


def _ref_partition_vector(part, n):
    k = part.point_count
    entries = [0] * (n**k)
    for assignment in product(range(n), repeat=len(part.blocks)):
        idx = [0] * k
        for value, block in zip(assignment, part.blocks):
            for p in block:
                idx[p] = value
        entries[flat_index(idx, n)] = 1
    return ExactMatrix(n**k, 1, entries)


def _ref_independent(vectors):
    span = Echelon()
    return tuple(t for t, vec in enumerate(vectors) if span.add(vec.entries))


def _ref_hits(vectors, size):
    out = [[] for _ in range(size)]
    for pos, vec in enumerate(vectors):
        for flat, val in enumerate(vec.entries):
            if val:
                out[flat].append(pos)
    return out


def _ref_projection_entry(hits, wrows, i, j):
    acc = Fraction(0)
    for t in hits[i]:
        for u in hits[j]:
            acc += wrows[t][u]
    return acc


def _ref_I_sum(vec, I, k):
    return sum(vec.entries[flat_index(b, I.N)] for b in product(I.sorted_members, repeat=k))


def _ref_ergodicity(spec, I, word, hits):
    """ergodicity_check as a loop over every row and every entry of the
    dense projection, with kw read through the module at call time."""
    n = spec.N
    k = len(word)
    size = n**k
    P = projection_P(spec, word)
    kw, den = weingarten._k_dot_weingarten(spec.family, n, weingarten._norm_word(spec, word), I.m)
    moments = [sum((Fraction(kw[t], den) for t in hits[j]), Fraction(0)) for j in range(size)]
    i_flats = I.flat_indices(k)
    report = {"spec": str(spec), "I": str(I), "word": word, "passed": True, "counterexample": None}
    for i in range(size):
        prow = P.row(i)
        lhs = sum((prow[j] * moments[j] for j in range(size)), Fraction(0))
        rhs = sum((prow[j] for j in i_flats), Fraction(0))
        if lhs != rhs:
            report["passed"] = False
            report["counterexample"] = {
                "row": [i // n ** (k - 1 - p) % n + 1 for p in range(k)],
                "lhs": ScaledScalar(lhs, k, I.m).to_json(),
                "rhs": ScaledScalar(rhs, k, I.m).to_json(),
            }
            break
    return report


def _selected_hits(spec, word):
    vectors = [_ref_partition_vector(part, spec.N) for part in enumerate_category(spec, word)]
    selected = [vectors[t] for t in _ref_independent(vectors)]
    return _ref_hits(selected, spec.N ** len(word))


@st.composite
def cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=6).filter(lambda k: n**k <= 1024))
    word = draw(st.text(alphabet="ob", min_size=k, max_size=k))
    members = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    flats = draw(st.lists(st.integers(min_value=0, max_value=n**k - 1), min_size=1, max_size=4))
    return family, n, word, members, flats


@settings(max_examples=60, deadline=None)
@given(cases())
@example(("S", 2, "ooo", {0}, [0, 5, 7]))
@example(("S+", 3, "oooo", {0, 2}, [0, 13, 80]))
@example(("U", 2, "obob", {1}, [0, 6, 15]))
# members with more than N blocks, which select_basis reduces on an Echelon:
# all 15 pairings, and 11 of the 42 noncrossing partitions
@example(("O", 2, "oooooo", {1}, [0, 21, 63]))
@example(("S+", 3, "ooooo", {0, 1}, [0, 46, 242]))
def test_kernel_path_matches_dense_reference(case):
    family, n, word, members, flats = case
    spec = CategorySpec(family, n)
    k = len(word)
    size = n**k
    parts = enumerate_category(spec, word)
    vectors = [_ref_partition_vector(part, n) for part in parts]
    assert [partition_vector(part, n) for part in parts] == vectors
    keep = _ref_independent(vectors)
    assert fix_basis(spec, word).independent == keep

    selected = [vectors[t] for t in keep]
    hits = _ref_hits(selected, size)
    wdata = gram_weingarten(spec, word)
    wrows = [[Fraction(x, wdata.denominator) for x in row] for row in wdata.weingarten_rows]
    I = IndexSet.of(n, members)
    kq = [_ref_I_sum(vec, I, k) for vec in selected]
    assert K_vector(spec, word, I) == [ScaledScalar(Fraction(q), k, I.m) for q in kq]

    for flat in flats:
        idx = tuple(flat // n ** (k - 1 - p) % n for p in range(k))
        q = sum((wrows[t][u] * kq[u] for t in hits[flat] for u in range(len(kq))), Fraction(0))
        assert integrate_X(spec, I, word, idx) == ScaledScalar(q, k, I.m)

    for i in flats:
        for j in flats:
            row, col = (tuple(f // n ** (k - 1 - p) % n for p in range(k)) for f in (i, j))
            assert integrate_G(spec, word, row, col) == _ref_projection_entry(hits, wrows, i, j)

    if size <= PROJECTION_SIZE:
        P = projection_P(spec, word)
        assert (P.rows, P.cols) == (size, size)
        for i in flats:
            for j in range(size):
                assert P.at(i, j) == _ref_projection_entry(hits, wrows, i, j)
        assert ergodicity_check(spec, I, word) == _ref_ergodicity(spec, I, word, hits)


def _perturbed(real):
    """kw with its first entry lowered and its last raised by one: a wrong
    space moment at every kernel that sees only one of the two."""

    def kw(*key):
        numerators, den = real(*key)
        out = list(numerators)
        out[0] -= den
        out[-1] += den
        return tuple(out), den

    return kw


@pytest.mark.parametrize(
    "family, n, word, members",
    [
        ("S", 3, "ooo", {0}),
        ("S", 4, "oooo", {1, 2}),
        ("S+", 3, "oooo", {0, 2}),
        ("O", 3, "oooo", {0}),
        ("U", 2, "obob", {1}),
        ("U+", 3, "obob", {0, 1}),
        ("O+", 2, "oooooo", {0}),
    ],
)
def test_ergodicity_counterexample_matches_dense_reference(
    family, n, word, members, cold_caches, monkeypatch
):
    monkeypatch.setattr(weingarten, "_k_dot_weingarten", _perturbed(weingarten._k_dot_weingarten))
    spec = CategorySpec(family, n)
    I = IndexSet.of(n, members)
    report = ergodicity_check(spec, I, word)
    assert not report["passed"]
    assert report == _ref_ergodicity(spec, I, word, _selected_hits(spec, word))
