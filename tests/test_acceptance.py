"""Acceptance suite: one test per criterion, every check exact (zero
tolerance).  Each test prints a single pass line on success; comparisons
against oracles are entrywise and exhaustive at the stated bounds."""

import json
import random
import time
from itertools import combinations, product

from qhs.exact import ExactMatrix
from qhs.frobenius import frobenius_to_fix, frobenius_to_hom
from qhs.opspaces import fxi_space, hom_operator_space, saturation_report
from qhs.oracle import (
    OracleGroup,
    OracleRealization,
    dual_matrix_moment,
    dual_s3,
    dual_X_moment,
    dual_z2,
    fixed_space,
    normal_closure_compare,
    orbit_moment,
)
from qhs.partitions import (
    CategorySpec,
    all_partitions,
    colored_words,
    conjugate_word,
    enumerate_category,
    partition_vector,
)
from qhs.relations import (
    med_spans_max,
    relations_hom,
    relations_max,
    relations_med,
    verify_relations,
)
from qhs.weingarten import IndexSet, ergodicity_check, integrate_G, integrate_X, projection_P

SIX_SPECS = (
    CategorySpec("S", 4),
    CategorySpec("O", 3),
    CategorySpec("U", 3),
    CategorySpec("S+", 4),
    CategorySpec("O+", 3),
    CategorySpec("U+", 3),
)


def bell_recurrence(n):
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def pairing_count_recurrence(k):
    # (k-1)!! for even k, else 0
    if k % 2:
        return 0
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def catalan_recurrence(n):
    row = [1]
    for _ in range(n):
        row.append(sum(row[i] * row[-1 - i] for i in range(len(row))))
    return row[n]


def test_criterion_01_weingarten_vs_bruteforce():
    spec = CategorySpec("S", 4)
    group = OracleGroup.symmetric(4)
    start = time.monotonic()
    for word in colored_words(4):
        k = len(word)
        table = group.moment_table(k)
        tuples = list(product(range(4), repeat=k))
        for fi, row in enumerate(tuples):
            for fj, col in enumerate(tuples):
                assert integrate_G(spec, word, row, col) == table.get((fi, fj), 0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    print(f"criterion 01 weingarten-vs-bruteforce: PASS ({elapsed:.1f}s)")


def test_criterion_02_classical_orbit_moments():
    spec = CategorySpec("S", 4)
    group = OracleGroup.symmetric(4)
    for members in ((0,), (0, 1), (0, 1, 2, 3)):
        I = IndexSet.of(4, members)
        for word in colored_words(4):
            for idx in product(range(4), repeat=len(word)):
                assert integrate_X(spec, I, word, idx) == orbit_moment(
                    group, I, word, idx
                )
    print("criterion 02 homogeneous-space moments match orbit averages: PASS")


def test_criterion_03_dual_moments():
    for dual in (dual_z2(3), dual_s3([(1, 2), (1, 3), (2, 3)])):
        n = dual.N
        subsets = [
            frozenset(c)
            for size in range(1, n + 1)
            for c in combinations(range(n), size)
        ]
        for members in subsets:
            I = IndexSet(n, members)
            for word in colored_words(4):
                for idx in product(range(n), repeat=len(word)):
                    direct = dual_X_moment(dual, I, word, idx)
                    assert direct == dual_matrix_moment(dual, I, word, idx)
                    if any(t not in members for t in idx):
                        assert direct == 0
    print("criterion 03 dual moments match the regular-representation traces: PASS")


def test_criterion_04_frobenius_duality():
    rng = random.Random(1517)
    for n in range(1, 5):
        for k_len in range(5):
            for l_len in range(5 - k_len):
                kw, lw = "o" * k_len, "o" * l_len
                for _ in range(100):
                    entries = [
                        rng.randrange(-3, 4) for _ in range(n ** (k_len + l_len))
                    ]
                    T = ExactMatrix(n**l_len, n**k_len, entries)
                    xi, word = frobenius_to_fix(T, kw, lw, n)
                    assert word == lw + conjugate_word(kw)
                    assert frobenius_to_hom(xi, kw, lw, n) == T
    sn3 = OracleGroup.symmetric(3)
    for k_len in range(5):
        for l_len in range(5 - k_len):
            for kw in product("ob", repeat=k_len):
                for lw in product("ob", repeat=l_len):
                    kw_s, lw_s = "".join(kw), "".join(lw)
                    homs = hom_operator_space(sn3, kw_s, lw_s)
                    fixes = fixed_space(sn3, lw_s + conjugate_word(kw_s))
                    assert homs.dimension == len(fixes)
    print("criterion 04 frobenius roundtrip and hom/fix dimensions: PASS")


def test_criterion_05_projection_laws():
    for spec in SIX_SPECS:
        idempotent_seen = {}
        for word in colored_words(3):
            P = projection_P(spec, word)
            if id(P) not in idempotent_seen:
                idempotent_seen[id(P)] = (P * P) == P
            assert idempotent_seen[id(P)], (str(spec), word)
            for part in enumerate_category(spec, word):
                xi = partition_vector(part, spec.N)
                assert P * xi == xi, (str(spec), word, str(part))
    print("criterion 05 projection idempotence and fixed vectors: PASS")


def test_criterion_06_ergodicity():
    for spec in SIX_SPECS:
        for members in ((0,), (0, 1)):
            I = IndexSet.of(spec.N, members)
            for word in colored_words(3):
                report = ergodicity_check(spec, I, word)
                assert report["passed"], (str(spec), str(I), word)
    print("criterion 06 ergodicity of the averaged coaction: PASS")


def test_criterion_07_relation_soundness():
    for n in (4, 3):
        spec = CategorySpec("S", n)
        I = IndexSet.of(n, (0, 1))
        real = OracleRealization(OracleGroup.symmetric(n), I)
        for system in (
            relations_med(spec, I, 3),
            relations_max(spec, I, 3),
            relations_hom(spec, I, 3, 2),
        ):
            report = verify_relations(system, real)
            assert report["passed"], (n, system.provenance)
        span = med_spans_max(spec, I, 3)
        assert span["passed"], span
    print("criterion 07 relation systems verified on the oracles: PASS")


def test_criterion_08_tannakian_inclusion():
    cases = (
        (OracleGroup.symmetric(4), IndexSet.of(4, (0, 1))),
        (dual_z2(2), IndexSet.of(2, (0,))),
    )
    for source, I in cases:
        real = OracleRealization(source, I)
        report = saturation_report(real, source, 2)
        for cell in report["cells"]:
            assert cell["inclusion"], cell
        assert report["axioms"]["asserted_passed"], report["axioms"]
    print("criterion 08 hom spaces included in solution spaces, axioms hold: PASS")


def test_criterion_09_saturation_instrument():
    dual = dual_z2(2)
    I = IndexSet.of(2, (0,))
    real = OracleRealization(dual, I)
    fix_dim = len(fixed_space(dual, "oo"))
    sol_dim = fxi_space(real, "", "oo").dimension
    assert (fix_dim, sol_dim) == (2, 4)
    assert sol_dim > fix_dim
    report = saturation_report(real, dual, 2)
    assert report["verdict"] == "strictly-larger"
    cell = next(c for c in report["cells"] if (c["k"], c["l"]) == ("", "oo"))
    assert cell == {
        "k": "",
        "l": "oo",
        "dim_hom": 2,
        "dim_fxi": 4,
        "inclusion": True,
        "equality": False,
        "axioms": {"adjoint": True, "frobenius": True},
    }
    again = saturation_report(real, dual, 2)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)
    print("criterion 09 saturation instrument flags the strictly-larger case: PASS")


def test_criterion_10_properness():
    s3 = dual_s3([(1, 2), (1, 3), (2, 3)])
    report = normal_closure_compare(s3, IndexSet.of(3, (0,)))
    assert report["proper"] is True
    assert (report["subgroup_order"], report["normal_closure_order"]) == (2, 6)
    z2 = dual_z2(2)
    report = normal_closure_compare(z2, IndexSet.of(2, (0,)))
    assert report["proper"] is False
    print("criterion 10 properness of the quotient map witnessed: PASS")


def test_criterion_11_combinatorial_counts_and_gram():
    for k in range(7):
        assert len(all_partitions(k)) == bell_recurrence(k)
        assert len(enumerate_category(CategorySpec("O", 2), "o" * k)) == (
            pairing_count_recurrence(k)
        )
        assert len(enumerate_category(CategorySpec("S+", 2), "o" * k)) == (
            catalan_recurrence(k)
        )
        expected_ncp = catalan_recurrence(k // 2) if k % 2 == 0 else 0
        assert len(enumerate_category(CategorySpec("O+", 2), "o" * k)) == expected_ncp
    for n in range(1, 6):
        for k in range(7):
            parts = all_partitions(k)
            masks = []
            for part in parts:
                mask = 0
                for pos, val in enumerate(partition_vector(part, n).entries):
                    if val:
                        mask |= 1 << pos
                masks.append(mask)
            for a, pa in enumerate(parts):
                for b, pb in enumerate(parts):
                    direct = (masks[a] & masks[b]).bit_count()
                    assert direct == n ** pa.join_block_count(pb), (n, k, a, b)
    print("criterion 11 enumeration counts and gram entries verified: PASS")
