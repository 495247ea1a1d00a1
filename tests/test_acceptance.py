"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Time budgets are enforced on cold caches (cleared in the module
fixture) so the measured figures reflect real work.
"""

import time

import pytest

from poupard import delta, gf
from poupard.delta import (
    STRATEGIES,
    DeltaMatrix,
    build_matrix,
    delta_matrices,
    eoc_pom_polynomial,
    region_cells,
)
from poupard.trees import (
    census_tables,
    enumerate_trees,
    eoc,
    ha12_map,
    joint_distribution,
    pom,
    tree_count,
)
from poupard.triangle import is_poupard_matrix, poupard_triangle, tangent_numbers
from poupard.verify import load_fixture_matrix


def _announce(num, name, seconds=None):
    stamp = f" [{seconds:.2f}s]" if seconds is not None else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{stamp}")


@pytest.fixture(scope="module", autouse=True)
def cold_caches():
    delta._chains.clear()
    census_tables.cache_clear()
    yield


def test_criterion_01_golden_matrices():
    start = time.perf_counter()
    for n in range(1, 6):
        assert build_matrix(n, "D1") == load_fixture_matrix(n), f"mismatch at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden build took {elapsed:.2f}s"
    _announce(1, "golden matrices n=1..5 exact", elapsed)


def test_criterion_02_nine_way_equivalence():
    start = time.perf_counter()
    for n in range(1, 9):
        reference = build_matrix(n, "D1")
        for tag in sorted(STRATEGIES):
            # any Unresolved/Inconsistent raises and fails the criterion
            assert build_matrix(n, tag) == reference, f"{tag} != D1 at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"nine-way build took {elapsed:.2f}s"
    _announce(2, "nine-way equivalence n<=8", elapsed)


def test_criterion_03_joint_distribution_matches():
    start = time.perf_counter()
    for n in range(1, 7):
        dist = joint_distribution(n)
        mat = build_matrix(n, "D1")
        assert dist.rows == mat.rows, f"joint distribution != matrix at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"enumeration took {elapsed:.2f}s"
    _announce(3, "tree census equals matrices n<=6 (361095 trees)", elapsed)


def test_criterion_04_count_identity():
    expected = [1, 4, 34, 496, 11056, 349504]
    tangents = tangent_numbers(7)
    for n in range(1, 7):
        total = build_matrix(n, "D1").total()
        assert total == expected[n - 1]
        q, r = divmod(tangents[n], 2**n)
        assert r == 0 and q == total
    _announce(4, "entry totals are the scaled tangent numbers")


def test_criterion_05_counter_diagonal_symmetry():
    for n in range(1, 9):
        mat = build_matrix(n, "D1")
        w = 2 * n
        for m in range(1, w + 1):
            for k in range(1, w + 1):
                assert mat.value(m, k) == mat.value(w + 1 - k, w + 1 - m)
        eoc_pom_polynomial(mat)  # raises unless exactly symmetric
    _announce(5, "counter-diagonal symmetry and symmetric joint polynomial n<=8")


def test_criterion_06_diagonal_and_crossing_equalities():
    for n in range(2, 9):
        mat = build_matrix(n, "D1")
        for k in range(1, 2 * n):
            assert mat.value(k + 1, k) == mat.value(k, k + 1)
        for k in range(2, 2 * n):
            s1 = mat.value(k + 1, k - 1) + mat.value(k - 1, k + 1)
            s2 = mat.value(k + 1, k) + mat.value(k - 1, k)
            s3 = mat.value(k, k + 1) + mat.value(k, k - 1)
            assert s1 == s2 == s3
    m4 = build_matrix(4, "D1")
    assert m4.value(4, 2) + m4.value(2, 4) == 20
    assert m4.value(4, 3) + m4.value(2, 3) == 20
    assert m4.value(3, 4) + m4.value(3, 2) == 20
    _announce(6, "sub/super-diagonal and crossing equalities n<=8 (incl. 20=20=20)")


def test_criterion_07_marginals_form_triangles():
    tri = poupard_triangle(8)
    for n in range(2, 9):
        mat = build_matrix(n, "D1")
        prev = build_matrix(n - 1, "D1")
        for m in range(1, 2 * n):
            d2 = mat.row_sum(m + 2) - 2 * mat.row_sum(m + 1) + mat.row_sum(m)
            assert d2 + 2 * prev.row_sum(m) == 0
        for k in range(0, 2 * n - 1):
            d2 = mat.col_sum(k + 2) - 2 * mat.col_sum(k + 1) + mat.col_sum(k)
            assert d2 + 2 * prev.col_sum(k) == 0
        for m in range(1, 2 * n + 1):
            assert mat.row_sum(m) == tri.value(n, m)
        for k in range(1, 2 * n + 1):
            assert mat.col_sum(k) == tri.value(n, k + 1)
        # the printed initial condition carries a spurious factor 2: record
        # that the doubled form fails while the plain form holds
        assert mat.row_sum(2) == prev.total()
        assert mat.row_sum(2) != 2 * prev.total()
        assert mat.col_sum(1) == prev.total()
        assert mat.col_sum(1) != 2 * prev.total()
    _announce(
        7,
        "marginal difference equations + triangle alignment n<=8 "
        "(doubled initial condition demonstrated to fail)",
    )


def test_criterion_08_bijection():
    start = time.perf_counter()
    for n in range(1, 6):
        seen = set()
        total = 0
        for t in enumerate_trees(n):
            image = ha12_map(t)
            assert eoc(t) == pom(image) + 1, t.serialize()
            key = image.serialize()
            assert key not in seen, f"not injective at {t.serialize()}"
            seen.add(key)
            total += 1
        assert total == tree_count(n)
    _announce(8, "chain-shift bijection n<=5", time.perf_counter() - start)


def test_criterion_09_census_identities():
    start = time.perf_counter()
    for n in range(2, 7):
        tables = census_tables(n)
        joint = DeltaMatrix(n, tables.joint)
        for (m, k) in list(region_cells("L1", n)) + list(region_cells("U2", n)):
            d2 = joint.value(m + 2, k) - 2 * joint.value(m + 1, k) + joint.value(m, k)
            assert d2 + 2 * tables.r1_witness[m - 1][k - 1] == 0, (n, m, k)
        for (m, k) in list(region_cells("L2", n)) + list(region_cells("U1", n)):
            d2 = joint.value(m, k + 2) - 2 * joint.value(m, k + 1) + joint.value(m, k)
            witnesses = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
            assert d2 + 2 * witnesses == 0, (n, m, k)
    for n in range(2, 9):
        mat = build_matrix(n, "D1")
        prev = build_matrix(n - 1, "D1")
        for (m, k) in region_cells("L1", n):
            assert mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k) + 2 * prev.value(m, k) == 0
        for (m, k) in region_cells("U2", n):
            assert mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k) + 2 * prev.value(m, k - 2) == 0
        for (m, k) in region_cells("L2", n):
            assert mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k) + 2 * prev.value(m - 2, k) == 0
        for (m, k) in region_cells("U1", n):
            assert mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k) + 2 * prev.value(m, k) == 0
    _announce(
        9,
        "census identities on trees n<=6 and matrix recurrences n<=8",
        time.perf_counter() - start,
    )


def test_criterion_10_generating_functions():
    start = time.perf_counter()
    cap = 10
    matrices = delta_matrices(6)
    lam_lhs, lam_rhs = gf.lambda_lhs(cap, matrices), gf.lambda_rhs(cap)
    assert lam_lhs == lam_rhs, "lower-triangle series mismatch"
    assert lam_rhs.is_rational()
    om_lhs, om_rhs = gf.omega_lhs(cap, matrices), gf.omega_rhs(cap)
    assert om_lhs == om_rhs, "upper-triangle series mismatch"
    assert om_rhs.is_rational()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"series comparison took {elapsed:.2f}s"
    _announce(10, "trivariate generating functions exact at cap 10", elapsed)


def test_criterion_11_reindexed_structure():
    start = time.perf_counter()
    matrices = delta_matrices(11)
    for p in range(0, 6):
        assert is_poupard_matrix(gf.reindex_lambda(p, 8, matrices)).ok
        assert is_poupard_matrix(gf.reindex_omega(p, 8, matrices)).ok
    for p in range(1, 6):
        assert gf.boundary_relations_check(p, 8, matrices) == []
    assert gf.lambda1_closed_forms(12, matrices) == []
    _announce(
        11,
        "reindexed grids, transfer relations, bivariate closed forms",
        time.perf_counter() - start,
    )


def test_criterion_12_tangent_numbers():
    ts = tangent_numbers(7)
    assert ts[:5] == [1, 2, 16, 272, 7936]
    assert ts[5] // 2**5 == tree_count(5)
    assert ts[5] % 2**5 == 0
    assert ts[6] // 2**6 == tree_count(6)
    assert ts[6] % 2**6 == 0
    _announce(12, "tangent numbers and scaled tree counts")
