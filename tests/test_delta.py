"""Matrix construction, solver behaviour, and matrix-level identities."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import poupard

from poupard.delta import (
    M1,
    STRATEGIES,
    DeltaMatrix,
    Inconsistent,
    Unresolved,
    boundary_cells,
    build_matrix,
    counter_diagonal_failure,
    eoc_pom_polynomial,
    in_region,
    matrix_properties_check,
    recurrence_failure,
    recurrence_instances,
    region_cells,
    solve_constraints,
)
from poupard.triangle import poupard_triangle
from poupard.verify import load_fixture_matrix

M2_ROWS = ((0, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 0))


def test_m1_constant():
    assert build_matrix(1, "D1") == M1
    assert M1.rows == ((0, 0), (1, 0))


def test_m2_worked_computation():
    assert build_matrix(2, "D1").rows == M2_ROWS


def test_fixture_matrices_match_build():
    for n in range(1, 6):
        assert build_matrix(n, "D1") == load_fixture_matrix(n)


def test_fig_entries():
    m4 = build_matrix(4, "D2")
    assert m4.value(4, 5) == 28
    m5 = build_matrix(5, "D5")
    assert m5.value(5, 4) == 274 == m5.value(4, 5)


def test_nine_strategies_agree():
    for n in range(1, 7):
        reference = build_matrix(n, "D1")
        for tag in STRATEGIES:
            assert build_matrix(n, tag) == reference


def test_entry_totals():
    expected = [1, 4, 34, 496, 11056, 349504]
    for n in range(1, 7):
        assert build_matrix(n, "D1").total() == expected[n - 1]


def test_solver_unresolved_with_partial_boundary():
    known = {(i, i): 0 for i in range(1, 5)}
    known.update(boundary_cells("I1", 2, M1))
    with pytest.raises(Unresolved):
        solve_constraints(2, known, frozenset({"R1", "R2"}), M1)


def test_solver_inconsistent_with_corrupted_cell():
    assignments = [((i, i), 0) for i in range(1, 5)]
    assignments += list(boundary_cells("I1", 2, M1).items())
    assignments += list(boundary_cells("I2", 2, M1).items())
    assignments.append(((3, 1), 5))  # boundary already pins this cell to 1
    with pytest.raises(Inconsistent):
        solve_constraints(2, assignments, frozenset({"R1", "R2"}), M1)


def test_solver_detects_violated_instance():
    # force a wrong value in a cell that a recurrence can cross-check
    known = {(i, i): 0 for i in range(1, 5)}
    known.update(boundary_cells("I1", 2, M1))
    known.update(boundary_cells("I2", 2, M1))
    known.update(boundary_cells("I3", 2, M1))
    known.update(boundary_cells("I4", 2, M1))
    known[(2, 1)] = 7  # I4 says 0; merging already clashes
    with pytest.raises(Inconsistent):
        solve_constraints(2, known, frozenset({"R1", "R2"}), M1)


def test_corner_condition_alone_is_underdetermined():
    # A corner-only boundary leaves the first rows untouched by R1/R3/R4;
    # the catalog therefore pairs the SW corner with the first two rows.
    known = {(i, i): 0 for i in range(1, 5)}
    known.update(boundary_cells("SW", 2, M1))
    with pytest.raises(Unresolved):
        solve_constraints(2, known, frozenset({"R1", "R3", "R4"}), M1)


def test_solve_constraints_full_boundary_no_error():
    known = {(i, i): 0 for i in range(1, 5)}
    known.update(boundary_cells("I1", 2, M1))
    known.update(boundary_cells("I2", 2, M1))
    mat = solve_constraints(2, known, frozenset({"R1", "R2"}), M1)
    assert mat.rows == M2_ROWS


def test_regions_disjoint_from_diagonal_and_lower_coverage():
    for n in (2, 3, 4):
        for tag in ("L1", "L2", "U1", "U2"):
            for (m, k) in region_cells(tag, n):
                assert m != k
        # anchors of the row/column recurrences are exactly L1 and L2, all
        # strictly below the diagonal ...
        lower = set(region_cells("L1", n)) | set(region_cells("L2", n))
        assert lower <= {
            (m, k)
            for m in range(1, 2 * n + 1)
            for k in range(1, 2 * n + 1)
            if m > k
        }
        anchors = {
            inst.cells[0]
            for inst in recurrence_instances(n, build_matrix(n - 1), frozenset({"R1", "R4"}))
        }
        assert anchors == lower
        # ... and for n >= 3 their instances reach every strictly-lower cell
        if n >= 3:
            touched = set()
            for inst in recurrence_instances(
                n, build_matrix(n - 1), frozenset({"R1", "R4"})
            ):
                touched.update(inst.cells)
            below = {c for c in touched if c[0] > c[1]}
            assert below == {
                (m, k)
                for m in range(1, 2 * n + 1)
                for k in range(1, 2 * n + 1)
                if m > k
            }


def test_in_region_examples():
    assert in_region("L1", 3, 3, 2)
    assert not in_region("L1", 3, 5, 2)
    assert in_region("U2", 3, 1, 4)
    assert in_region("L2", 3, 6, 1)
    assert in_region("U1", 3, 2, 4)


def test_zero_outside_grid():
    m2 = build_matrix(2, "D1")
    assert m2.value(0, 1) == 0
    assert m2.value(5, 2) == 0
    assert m2.value(2, 17) == 0


def test_matrix_properties_check():
    tri = poupard_triangle(5)
    for n in range(1, 6):
        mat = build_matrix(n, "D1")
        prev = build_matrix(n - 1, "D1") if n > 1 else None
        result = matrix_properties_check(mat, prev, tri.row(n))
        assert result.ok, result.failures


def test_crossing_spot_value():
    m4 = build_matrix(4, "D1")
    assert m4.value(4, 2) + m4.value(2, 4) == 20
    assert m4.value(4, 3) + m4.value(2, 3) == 20
    assert m4.value(3, 4) + m4.value(3, 2) == 20


def test_properties_check_flags_damage():
    mat = build_matrix(3, "D1")
    rows = [list(r) for r in mat.rows]
    rows[2][0] += 1
    damaged = DeltaMatrix(3, tuple(tuple(r) for r in rows))
    result = matrix_properties_check(damaged, build_matrix(2, "D1"))
    assert not result.ok


def test_predicates_flag_damaged_cell():
    mat, prev = build_matrix(3, "D1"), build_matrix(2, "D1")
    assert recurrence_failure(mat, prev) is None
    rows = [list(r) for r in mat.rows]
    rows[2][0] += 1  # f_3(3,1), an L1 anchor with mirror cell (6,4)
    damaged = DeltaMatrix(3, tuple(tuple(r) for r in rows))
    assert "(m,k)=(3,1)" in counter_diagonal_failure(damaged)
    assert recurrence_failure(damaged, prev).startswith("R1 instance")


def test_properties_check_dimension_mismatch():
    with pytest.raises(ValueError):
        matrix_properties_check(build_matrix(3, "D1"), build_matrix(1, "D1"))


def test_eoc_pom_polynomial():
    g1 = eoc_pom_polynomial(build_matrix(1, "D1"))
    assert g1 == ((0, 0), (0, 1))  # g_1(2,2) = f_1(2,1) = 1
    m2 = build_matrix(2, "D1")
    g2 = eoc_pom_polynomial(m2)
    assert g2[2][3] == m2.value(3, 1) == 1
    assert g2[3][2] == m2.value(4, 2) == 1
    eoc_pom_polynomial(build_matrix(4, "D1"))  # full 8x8 symmetry holds


def test_json_roundtrip_bit_exact():
    for n in (1, 3, 5):
        mat = build_matrix(n, "D1")
        text = mat.to_json()
        again = DeltaMatrix.from_json(text)
        assert again == mat
        assert again.to_json() == text


def test_csv_roundtrip_bit_exact():
    for n in (2, 4):
        mat = build_matrix(n, "D1")
        text = mat.to_csv()
        again = DeltaMatrix.from_csv(text)
        assert again == mat
        assert again.to_csv() == text


@pytest.mark.parametrize(
    "text",
    [
        '{"n":0,"rows":[]}',
        '{"n":-1,"rows":[]}',
        "[]",
        '{"n":1}',
        '{"rows":[[0,0],[1,0]]}',
        '{"n":1,"rows":5}',
        '{"n":1,"rows":[[0,0],[1,null]]}',
        '{"n":1,"rows":[[0,0],[1]]}',
        '{"n":1,"rows":[[0,0],[1.9,0]]}',
        '{"n":1.5,"rows":[[0,0],[1,0]]}',
        '{"n":"1","rows":[[0,0],[1,0]]}',
        '{"n":1,"rows":[[0,0],[true,0]]}',
        '{"n":2,"rows":[[0,0],[1,0]]}',
        "not json",
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        DeltaMatrix.from_json(text)


@pytest.mark.parametrize(
    "text, n",
    [
        ("", None),
        ("0,0\n1,0", 0),
        ("0,0\n1", None),
        ("0,0,0\n1,0,0\n0,0,0", None),
        ("0,0\n1,x", None),
        ("0,0\n1,0", 2),
    ],
)
def test_from_csv_rejects_malformed(text, n):
    with pytest.raises(ValueError):
        DeltaMatrix.from_csv(text, n)


def test_chain_build_depth_does_not_grow_with_n():
    # the recursion limit is lowered in a child process only
    script = (
        "import sys\n"
        "from poupard.delta import build_matrix\n"
        "sys.setrecursionlimit(20)\n"
        "print(build_matrix(24, 'D1').n)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "24"


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        build_matrix(2, "D10")
