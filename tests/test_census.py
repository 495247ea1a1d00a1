"""Second-difference census identities on enumerated trees."""

import pytest

from poupard import trees, verify
from poupard.delta import DeltaMatrix, build_matrix, region_cells
from poupard.trees import (
    EnumerationLimitError,
    census_tables,
    enumerate_trees,
    eoc,
    minimal_chain,
    pom,
    structural_census,
)
from poupard.verify import run_checks


def test_structural_census_examples():
    assert structural_census(3, 3, 1, "R1Witness") == 1
    assert structural_census(3, 2, 3, "R2WitnessInside") == 0
    total = structural_census(2, 4, 1, "R2WitnessOutside") + structural_census(
        2, 4, 1, "R2WitnessInside"
    )
    assert total == 1  # equals f_1(2,1) via the reduction identity


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        structural_census(2, 2, 1, "NoSuchCondition")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_second_difference_identity(n):
    tables = census_tables(n)
    joint = DeltaMatrix(n, tables.joint)
    for (m, k) in list(region_cells("L1", n)) + list(region_cells("U2", n)):
        d2 = joint.value(m + 2, k) - 2 * joint.value(m + 1, k) + joint.value(m, k)
        assert d2 + 2 * tables.r1_witness[m - 1][k - 1] == 0, (n, m, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_column_second_difference_identity(n):
    tables = census_tables(n)
    joint = DeltaMatrix(n, tables.joint)
    for (m, k) in list(region_cells("L2", n)) + list(region_cells("U1", n)):
        d2 = joint.value(m, k + 2) - 2 * joint.value(m, k + 1) + joint.value(m, k)
        outside = tables.r2_outside[m - 1][k - 1]
        inside = tables.r2_inside[m - 1][k - 1]
        assert d2 + 2 * (outside + inside) == 0, (n, m, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inside_term_vanishes_above_diagonal(n):
    tables = census_tables(n)
    for (m, k) in region_cells("U1", n):
        assert tables.r2_inside[m - 1][k - 1] == 0


def test_witness_counts_match_previous_matrix():
    # the reduction identities: the R1 witness count at (m,k) equals
    # f_{n-1}(m,k) on L1 and f_{n-1}(m,k-2) on U2; the combined R2 witnesses
    # give f_{n-1}(m-2,k) on L2 and f_{n-1}(m,k) on U1.
    for n in (2, 3, 4):
        tables = census_tables(n)
        prev = build_matrix(n - 1, "D1")
        for (m, k) in region_cells("L1", n):
            assert tables.r1_witness[m - 1][k - 1] == prev.value(m, k)
        for (m, k) in region_cells("U2", n):
            assert tables.r1_witness[m - 1][k - 1] == prev.value(m, k - 2)
        for (m, k) in region_cells("L2", n):
            combined = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
            assert combined == prev.value(m - 2, k)
        for (m, k) in region_cells("U1", n):
            combined = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
            assert combined == prev.value(m, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_matrix_recurrences(n):
    mat = build_matrix(n, "D1")
    prev = build_matrix(n - 1, "D1")
    for (m, k) in region_cells("L1", n):
        assert (
            mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k)
            + 2 * prev.value(m, k)
            == 0
        )
    for (m, k) in region_cells("U2", n):
        assert (
            mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k)
            + 2 * prev.value(m, k - 2)
            == 0
        )
    for (m, k) in region_cells("L2", n):
        assert (
            mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k)
            + 2 * prev.value(m - 2, k)
            == 0
        )
    for (m, k) in region_cells("U1", n):
        assert (
            mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k)
            + 2 * prev.value(m, k)
            == 0
        )


def test_force_lifts_census_cap():
    report = run_checks(["census"], n_max=6, force=True)
    assert report.passed()
    ns = {r.params["n"] for r in report.checks if r.name == "census/second-difference"}
    assert ns == {2, 3, 4, 5, 6}


def test_report_that_checked_nothing_does_not_pass():
    report = run_checks(["census"], n_max=1)
    assert report.checks == []
    assert not report.passed()
    assert report.exit_code() == 1
    assert '"passed": false' in report.to_json()


def test_census_enumerates_each_n_once(monkeypatch):
    # the enumeration and census suites pass different limits; both must
    # share one walk of T_{2n+1}
    walked = []

    def counting(size):
        walked.append((size - 1) // 2)
        return iter_shapes(size)

    iter_shapes = trees._iter_shapes
    monkeypatch.setattr(trees, "_iter_shapes", counting)
    census_tables.cache_clear()
    first = census_tables(3, limit=5)
    assert census_tables(3, limit=6) is first
    assert trees.joint_distribution(3, limit=4).rows == first.joint
    assert trees.structural_census(3, 3, 1, "R1Witness", limit=3) == 1
    assert walked == [3]
    with pytest.raises(EnumerationLimitError):
        census_tables(3, limit=2)
    census_tables.cache_clear()
    census_tables(3)
    assert walked == [3, 3]


def _tables_from_tree_api(n):
    """The four CensusTables grids, recomputed tree by tree from the Tree API
    and the CensusTables definitions (subtree membership by walking parents
    up to the root)."""
    w = 2 * n
    grids = {name: [[0] * w for _ in range(w)] for name in ("joint", "r1", "out", "in")}
    for t in enumerate_trees(n):
        m, k = eoc(t), pom(t)
        assert m == minimal_chain(t)[-1] and t.is_leaf(m)
        par = t.parents()
        ancestors = set()
        v = m
        while v != 1:
            v = par[v]
            ancestors.add(v)
        grids["joint"][m - 1][k - 1] += 1
        # r1_witness at (eoc-1, pom): eoc-1 is the parent of leaves eoc, eoc+1
        r = m - 1
        if t.children.get(r) == (r + 1, r + 2) and t.is_leaf(r + 1) and t.is_leaf(r + 2):
            grids["r1"][r - 1][k - 1] += 1
        # r2 witnesses at (eoc, pom-1)
        q = k - 1
        if q < 1 or not t.is_leaf(q + 2):
            continue
        if q + 2 in t.children.get(q + 1, ()) and par[q + 1] == q and q not in ancestors:
            grids["out"][m - 1][q - 1] += 1
        if t.children.get(q) == (q + 1, q + 2) and q in ancestors:
            grids["in"][m - 1][q - 1] += 1
    freeze = lambda g: tuple(tuple(row) for row in g)
    return tuple(freeze(grids[name]) for name in ("joint", "r1", "out", "in"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_matches_tree_api_oracle(n):
    tables = census_tables(n)
    got = (tables.joint, tables.r1_witness, tables.r2_outside, tables.r2_inside)
    assert got == _tables_from_tree_api(n)


def test_suite_caps_within_library_limit():
    # a suite must never ask the library for more than its default allows
    caps = trees.ENUMERATION_CAPS
    assert verify.ENUMERATION_CAPS is caps
    assert set(caps) == {"enumeration", "bijection", "census"}
    assert all(cap <= trees.DEFAULT_ENUMERATION_LIMIT for cap in caps.values())
