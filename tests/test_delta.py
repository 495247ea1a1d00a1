"""Matrix construction, solver behaviour, and matrix-level identities."""

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import poupard
from poupard import delta, verify
from poupard.delta import (
    M1,
    STRATEGIES,
    DeltaMatrix,
    Inconsistent,
    Unresolved,
    _known_for,
    build_matrix,
    counter_diagonal_failure,
    crossing_failure,
    eoc_pom_polynomial,
    in_region,
    marginals_failure,
    matrix_properties_check,
    recurrence_failure,
    region_cells,
    solve_constraints,
    sub_super_diagonal_failure,
)
from poupard.triangle import poupard_triangle
from poupard.verify import load_fixture_matrix, run_checks

M2_ROWS = ((0, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 0))


def boundary_cells(tag, n, prev):
    return delta._boundary_cells(tag, 2 * n, prev.row_sums(), prev.col_sums())


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


@pytest.mark.parametrize("n", [0, -1])
def test_solver_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        solve_constraints(n, {}, [], None)


def test_solver_detects_violated_instance():
    # force a wrong value in a cell that a recurrence can cross-check
    known = {(i, i): 0 for i in range(1, 5)}
    known.update(boundary_cells("I1", 2, M1))
    known.update(boundary_cells("I2", 2, M1))
    known.update(boundary_cells("I3", 2, M1))
    known.update(boundary_cells("I4", 2, M1))
    known[(2, 1)] = 7  # I4 says 0; a recurrence instance sees the clash
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


def _instance_cells(n, recs):
    """The cells of every instance of the recurrences `recs` in M_n, spelled
    out from the definitions of R1-R4 and of the triangles L1, U1, U2, L2."""
    w = 2 * n
    out = []
    for m in range(1, w + 1):
        for k in range(1, w + 1):
            down = ((m, k), (m + 1, k), (m + 2, k))
            right = ((m, k), (m, k + 1), (m, k + 2))
            if "R1" in recs and 2 <= k + 1 <= m <= w - 2:
                out.append(down)
            if "R2" in recs and 2 <= m + 1 <= k <= w - 2:
                out.append(right)
            if "R3" in recs and 4 <= m + 3 <= k <= w:
                out.append(down)
            if "R4" in recs and 4 <= k + 3 <= m <= w:
                out.append(right)
    return out


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
        instances = _instance_cells(n, {"R1", "R4"})
        assert {cells[0] for cells in instances} == lower
        # ... and for n >= 3 their instances reach every strictly-lower cell
        if n >= 3:
            touched = {c for cells in instances for c in cells}
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


@pytest.mark.parametrize("row", [(0, 1, 2, 1, 0, 7), (0, 1, 2, 1)])
def test_properties_check_rejects_a_triangle_row_of_the_wrong_length(row):
    # M_2 needs the 5 entries f_2(1..5): a 6th was never read, a 4th missing
    # raised a bare IndexError
    mat, prev = build_matrix(2, "D1"), build_matrix(1, "D1")
    expected = f"^triangle row for n=2 must have 5 entries, got {len(row)}$"
    for check in (marginals_failure, matrix_properties_check):
        with pytest.raises(ValueError, match=expected):
            check(mat, prev, row)


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


def _bumped(mat, m, k):
    rows = [list(r) for r in mat.rows]
    rows[m - 1][k - 1] += 1
    return DeltaMatrix(mat.n, tuple(tuple(r) for r in rows))


# sha256 of the 556 recurrence_failure texts ("None" where every instance
# still holds) for +1 on each cell of M_2..M_7, recorded before the
# instances were read off a flat grid
RECURRENCE_FAILURE_DIGEST = "2e1f3e43bce5003dff41b615ec1924dcd7633c8845e6787a7e8e549bf550ee72"


def test_recurrence_failure_texts_pinned():
    lines = []
    for n in range(2, 8):
        mat, prev = build_matrix(n), build_matrix(n - 1)
        for m in range(1, 2 * n + 1):
            for k in range(1, 2 * n + 1):
                lines.append(str(recurrence_failure(_bumped(mat, m, k), prev)))
    assert len(lines) == 556
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RECURRENCE_FAILURE_DIGEST


# sha256 of the 2184 texts ("None" where the identity still holds) of the
# symmetry, diagonal, crossing and three marginals predicates for +1 on each
# cell of M_1..M_6, recorded before the predicates shared one comparison
PREDICATE_FAILURE_DIGEST = "767cbb4a66ac88b4ff8132275b1e32545377e532a8f20b91c9a287417e0d10be"


def test_predicate_failure_texts_pinned():
    tri = poupard_triangle(6)
    lines = []
    for n in range(1, 7):
        mat = build_matrix(n)
        prev = build_matrix(n - 1) if n > 1 else None
        for m in range(1, 2 * n + 1):
            for k in range(1, 2 * n + 1):
                bumped = _bumped(mat, m, k)
                texts = (
                    counter_diagonal_failure(bumped),
                    sub_super_diagonal_failure(bumped),
                    crossing_failure(bumped),
                    marginals_failure(bumped, prev, tri.row(n)),
                    marginals_failure(bumped, prev),
                    marginals_failure(bumped, None),
                )
                lines.extend(map(str, texts))
    assert len(lines) == 2184
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PREDICATE_FAILURE_DIGEST


def test_marginal_failures_name_their_values():
    # +1 on f_3(3,1); then -1 on f_3(3,2) as well, which keeps every row sum
    # so that the column texts show
    bumped = _bumped(build_matrix(3), 3, 1)
    rows = [list(r) for r in bumped.rows]
    rows[2][1] -= 1
    moved = DeltaMatrix(3, tuple(tuple(r) for r in rows))
    prev, tri = build_matrix(2), poupard_triangle(3).row(3)
    texts = [
        marginals_failure(bumped, prev),
        marginals_failure(bumped, None, tri),
        marginals_failure(moved, prev),
        marginals_failure(moved, None, tri),
        marginals_failure(bumped, None),
    ]
    assert texts == [
        "row-marginal difference equation fails at m=1: residual 1",
        "row marginal != triangle at m=3: row sum 9, triangle 8",
        "column-marginal difference equation fails at k=0: residual -3",
        "column marginal != triangle at k=1 (index k+1): column sum 5, triangle 4",
        "eoc/pom marginal equality fails at k=1: eoc 4, pom 5",
    ]


def test_marginals_erratum_check_lists_every_failure_in_order(monkeypatch):
    # adding M_2's total to f_3(2,1) doubles both row sum 2 and column sum 1
    total = build_matrix(2).total()

    def corrupted(n, tag="D1"):
        mat = build_matrix(n, tag)
        if n != 3:
            return mat
        rows = [list(r) for r in mat.rows]
        rows[1][0] += total
        return DeltaMatrix(3, tuple(tuple(r) for r in rows))

    monkeypatch.setattr(verify, "build_matrix", corrupted)
    report = run_checks(["marginals"], n_max=3)
    (record,) = [
        r
        for r in report.checks
        if r.name == "marginals/initial-condition-erratum" and r.params == {"n": 3}
    ]
    assert list(record.failures) == [
        "doubled row initial condition unexpectedly holds at n=3",
        f"row initial condition without the factor fails: {2 * total} != {total}",
        "doubled column initial condition unexpectedly holds at n=3",
        f"column initial condition without the factor fails: {2 * total} != {total}",
    ]


def test_recurrence_oracle_never_calls_the_solver(monkeypatch):
    # the oracle reads the built matrices; it must not lean on propagation
    mat, prev = build_matrix(8), build_matrix(7)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_constraints called")

    monkeypatch.setattr(delta, "solve_constraints", forbidden)
    assert recurrence_failure(mat, prev) is None
    assert recurrence_failure(_bumped(mat, 9, 2), prev).startswith("R1 instance")
    report = run_checks(["census"], n_max=6)
    assert report.passed(), report.summary_lines()


def test_properties_check_dimension_mismatch():
    with pytest.raises(ValueError):
        matrix_properties_check(build_matrix(3, "D1"), build_matrix(1, "D1"))
    with pytest.raises(ValueError, match=re.escape("prev must be M_2, got M_1")):
        recurrence_failure(build_matrix(3, "D1"), build_matrix(1, "D1"))


def test_eoc_pom_polynomial():
    g1 = eoc_pom_polynomial(build_matrix(1, "D1"))
    assert g1 == ((0, 0), (0, 1))  # g_1(2,2) = f_1(2,1) = 1
    m2 = build_matrix(2, "D1")
    g2 = eoc_pom_polynomial(m2)
    assert g2[2][3] == m2.value(3, 1) == 1
    assert g2[3][2] == m2.value(4, 2) == 1
    eoc_pom_polynomial(build_matrix(4, "D1"))  # full 8x8 symmetry holds


def test_eoc_pom_polynomial_rejects_an_asymmetric_matrix():
    damaged = _bumped(build_matrix(3), 3, 1)
    with pytest.raises(ValueError, match=re.escape(counter_diagonal_failure(damaged))):
        eoc_pom_polynomial(damaged)


@pytest.mark.parametrize(
    "f, g, at",
    [
        ([[1], [2, 3]], [[1], [2, 3]], None),
        ([[1], [2, 3]], ((1,), (2, 3)), None),
        ([[1], [2, 3]], [[1], [2, 4]], (1, 1)),
        # a length mismatch at any depth is a difference, never a TypeError
        ([[1], [2]], [[1], [2, 3]], (1, 1)),
        ([[1], [2, 3]], [[1], [2]], (1, 1)),
        ([[1]], [[1], [2]], (1,)),
        ([[1], 2], [[1], [2]], (1,)),
        ([[[0, 1]], [[2]]], [[[0, 1]], [[5]]], (1, 0, 0)),
    ],
)
def test_first_difference(f, g, at):
    assert delta.first_difference(f, g) == at
    assert delta.first_difference(g, f) == at


def test_matrix_first_difference_names_the_cell_and_both_values():
    mat = build_matrix(3)
    assert mat.first_difference(build_matrix(3, "D9")) is None
    assert _bumped(mat, 4, 2).first_difference(mat) == (4, 2, 4, 3)
    # a shape mismatch neither passes nor raises: the missing cell reads None
    assert mat.first_difference(M1) == (1, 3, 0, None)
    assert M1.first_difference(mat) == (1, 3, None, 0)


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
    "text",
    [
        "",
        "0,0\n1",
        "0,0,0\n1,0,0\n0,0,0",
        "0,0\n1,x",
        "0,0\n1_0,0",
        "0,0\n+1,0",
        "0,0\n\u0661,0",
    ],
)
def test_from_csv_rejects_malformed(text):
    with pytest.raises(ValueError):
        DeltaMatrix.from_csv(text)


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
    # only a tag names a strategy: a BuildStrategy object is refused, not
    # read for its tag alone
    custom = dataclasses.replace(
        STRATEGIES["D1"], recurrences=frozenset({"R3", "R4"}), boundary=frozenset({"I3", "I4"})
    )
    for strategy in ("D10", custom, STRATEGIES["D1"], None):
        with pytest.raises(ValueError, match="D1..D9"):
            build_matrix(2, strategy)


def test_region_cells_match_in_region_filter():
    for n in range(1, 13):
        for tag in ("L1", "L2", "U1", "U2"):
            grid = [(m, k) for m in range(1, 2 * n + 1) for k in range(1, 2 * n + 1)]
            assert list(region_cells(tag, n)) == [c for c in grid if in_region(tag, n, *c)]


def test_solver_rejects_unknown_recurrence():
    with pytest.raises(ValueError, match="'R5'"):
        solve_constraints(2, {(1, 1): 0}, frozenset({"R1", "R5"}), M1)
    with pytest.raises(ValueError, match="'R5'"):
        solve_constraints(2, {(1, 1): 0}, ["R5"], None)


def test_solver_odd_middle_value():
    # R1 at anchor (2,1) with no previous matrix: 2 f(3,1) = f(2,1) + f(4,1) = 1
    with pytest.raises(Inconsistent, match="odd middle value in R1"):
        solve_constraints(2, {(2, 1): 0, (4, 1): 1}, frozenset({"R1"}), None)


def test_solver_contradiction_outranks_underdetermination():
    # the one R1 instance is fully known and violated; every other cell is open
    detail = "R1 instance at cells ((2, 1), (3, 1), (4, 1)) has residual 1"
    with pytest.raises(Inconsistent, match=re.escape(detail)):
        solve_constraints(2, {(2, 1): 0, (3, 1): 0, (4, 1): 1}, frozenset({"R1"}), None)


def test_solver_derives_z_then_y_then_x():
    # the R1 instances down column 1 of M_3 at anchors (2,1), (3,1) and (4,1)
    # each lack only (4,1), as their z, y and x.  The round takes z first,
    # f(4,1) = 2, so (3,1) is the violated instance and its odd middle
    # (1 + 0) / 2 is never met
    detail = "R1 instance at cells ((3, 1), (4, 1), (5, 1)) has residual -3"
    with pytest.raises(Inconsistent, match=re.escape(detail)):
        solve_constraints(3, {(2, 1): 0, (3, 1): 1, (5, 1): 0, (6, 1): 0}, ["R1"], None)


def _triangle_cells(side, n):
    w = 2 * n
    return {
        (m, k)
        for m in range(1, w + 1)
        for k in range(1, w + 1)
        if (m < k if side == "upper" else m > k)
    }


def _derivable(cells, instances):
    """Closure of a known-cell set: add the lone unknown cell of any instance."""
    cells, grew = set(cells), True
    while grew:
        grew = False
        for inst in instances:
            missing = set(inst) - cells
            if len(missing) == 1:
                cells |= missing
                grew = True
    return cells


def test_solver_reaches_the_derivable_closure():
    # random subsets of a true M_n as known cells: the solver must fill
    # exactly the closure, whatever order it visits instances in
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice((3, 4))
        mat, prev = build_matrix(n), build_matrix(n - 1)
        recs = frozenset(r for r in ("R1", "R2", "R3", "R4") if rng.random() < 0.6)
        grid = {(m, k) for m in range(1, 2 * n + 1) for k in range(1, 2 * n + 1)}
        density = rng.choice((0.3, 0.5, 0.7))
        known = {c: mat.value(*c) for c in sorted(grid) if rng.random() < density}
        left = grid - _derivable(known, _instance_cells(n, recs))
        if left:
            with pytest.raises(Unresolved) as info:
                solve_constraints(n, known, recs, prev)
            assert set(info.value.cells) == left
        else:
            assert solve_constraints(n, known, recs, prev) == mat


# Cells left unknown at n = 4 when one boundary condition of a strategy is
# dropped: a strict triangle of the 8x8 grid, less at most one cell.
# Recorded before the solver became a worklist.
DROPPED_BOUNDARY_UNRESOLVED = {
    ("D1", "I1"): ("upper", (7, 8)),
    ("D1", "I2"): ("lower", (8, 7)),
    ("D2", "I3"): ("upper", (1, 2)),
    ("D2", "I4"): ("lower", (2, 1)),
    ("D3", "I2"): ("lower", (2, 1)),
    ("D3", "I3"): ("upper", (7, 8)),
    ("D4", "I1"): ("upper", (1, 2)),
    ("D4", "I4"): ("lower", (8, 7)),
    ("D5", "I3"): ("upper", None),
    ("D5", "SW"): ("lower", (2, 1)),
    ("D6", "I1"): ("upper", None),
    ("D6", "SW"): ("lower", (8, 7)),
    ("D7", "I2"): ("lower", None),
    ("D7", "NE"): ("upper", (7, 8)),
    ("D8", "I4"): ("lower", None),
    ("D8", "NE"): ("upper", (1, 2)),
    ("D9", "NE"): ("upper", None),
    ("D9", "SW"): ("lower", None),
}


@pytest.mark.parametrize("tag, dropped", sorted(DROPPED_BOUNDARY_UNRESOLVED))
def test_dropping_a_boundary_condition_leaves_pinned_cells(tag, dropped):
    strategy = STRATEGIES[tag]
    assert dropped in strategy.boundary
    partial = dataclasses.replace(strategy, boundary=strategy.boundary - {dropped})
    prev = build_matrix(3, tag)
    side, solved = DROPPED_BOUNDARY_UNRESOLVED[(tag, dropped)]
    expected = _triangle_cells(side, 4) - {solved}
    with pytest.raises(Unresolved) as info:
        solve_constraints(4, _known_for(partial, 4, prev), strategy.recurrences, prev)
    assert set(info.value.cells) == expected


# Off-diagonal known cells at n = 4 whose value + 1 makes the system
# Inconsistent; raising any other known cell by 1 still solves.  Recorded
# before the solver became a worklist.
CORRUPTIONS_DETECTED = {
    "D1": set(),
    "D2": set(),
    "D3": {(1, 8), (2, 1), (2, 8), (7, 1), (7, 8), (8, 1)},
    "D4": {(1, 2), (1, 7), (1, 8), (8, 1), (8, 2), (8, 7)},
    "D5": {(2, 1), (7, 1), (8, 1)},
    "D6": {(8, 1), (8, 2), (8, 7)},
    "D7": {(1, 8), (2, 8), (7, 8)},
    "D8": {(1, 2), (1, 7), (1, 8)},
    "D9": set(),
}


@pytest.mark.parametrize("tag", sorted(CORRUPTIONS_DETECTED))
def test_corrupted_known_cell_verdicts(tag):
    strategy = STRATEGIES[tag]
    prev = build_matrix(3, tag)
    known = _known_for(strategy, 4, prev)
    detected = set()
    for cell in (c for c in known if c[0] != c[1]):
        try:
            solve_constraints(4, {**known, cell: known[cell] + 1}, strategy.recurrences, prev)
        except Inconsistent:
            detected.add(cell)
    assert detected == CORRUPTIONS_DETECTED[tag]


# sha256 of build_matrix(n, "D1").to_json(), recorded before the solver
# became a worklist
D1_JSON_DIGESTS = [
    "0e51356fc96a1264663ebb69e07e65b3dffb2e428ac8a125f297a0f86c776129",  # n = 1
    "da6faa74d73076dacd959c6608409b7f7041c79b575137ff113bdd5e8cc24646",  # n = 2
    "f4e78ce547bcd2699e9b088ab8e05924442c22ba16ff253634e2cb60a7b0645e",  # n = 3
    "18f51de2c0014688748623f8dc6b765a75d60a2a7fd0f45939979f17d31de7e4",  # n = 4
    "45416a11c03bd36adb0ead228569b92f489adc2b621555495688ef2bf4a179e3",  # n = 5
    "8491697df1529547f2e7da13281bf675d9be6ff5fc73137ccd9b5a890fb9900f",  # n = 6
    "1df7cf2c1d17c1e4861f455d2a72d57e69c2550397e5c38ed46033c08db7e6d3",  # n = 7
    "12c9421f8466677c6e435fcc2f082b38b1098b2991ca36706e45ce252a395fc0",  # n = 8
    "69e753c5f537437466cde67e9676db5b30787fda09b1b6aaa91feb55609dd0e1",  # n = 9
    "360f7093b93ec17931ccbbc8be726ace4fd51f8028d7a06fea364052b9cc186d",  # n = 10
    "bc614180b3835d4e9d221560ee965683d0de349167d48ed423c75d21ed7f4d66",  # n = 11
    "c5e0e064485eab8e211dd1a7dce858a1c3aa0a6f11179de32fd056d1c0433d5a",  # n = 12
    "3c16f2cd98bd7b07d1d77e934a7c44862a23d4c907e894cd300dc08a3ff315f2",  # n = 13
    "6e3dd0041a0314e374cab206b0215566d66643adf885d8989d2849b125a24192",  # n = 14
    "0f8bc49b9f28d88fe0e6d7f352d10939ddcb202805180d8ae58330a23c70ac46",  # n = 15
    "a0bd23d3153ad2e956b91bb0dd24975b01ac00bd50fb3d284271476c3e8136da",  # n = 16
    "ef281f1e8bb5ef05b949db7878ff1a5375358a8fc09c7649dddffc324178abbb",  # n = 17
    "9f1e1cae4dd29f4186cfc568289ba5ca35b05dec986977544a233b09361b8eeb",  # n = 18
    "3feac2cdc8496de23cdbc095dbced16fa4944cea3f54bc410d51051f397ee2b8",  # n = 19
    "d5d29b53b3cbf3b50cb30de350d812e0108b07c347dd4149979765dce1cf58e4",  # n = 20
]


def test_matrix_digests_pinned_for_all_strategies():
    for n, digest in enumerate(D1_JSON_DIGESTS, 1):
        reference = build_matrix(n, "D1")
        assert hashlib.sha256(reference.to_json().encode()).hexdigest() == digest
        for tag in STRATEGIES:
            assert build_matrix(n, tag) == reference, (n, tag)


def test_solver_rejects_prev_of_the_wrong_size():
    # the constants 2 f_{n-1}(m,k) would be read off a grid of the wrong width
    known = _known_for(STRATEGIES["D1"], 2, M1)
    with pytest.raises(ValueError, match=re.escape("prev must be M_1, got M_3")):
        solve_constraints(2, known, frozenset({"R1", "R2"}), build_matrix(3))


@pytest.mark.parametrize("value", [0.0, Fraction(0), False], ids=["float", "Fraction", "bool"])
def test_solver_rejects_inexact_known_values(value):
    known = {**_known_for(STRATEGIES["D1"], 2, M1), (1, 1): value}
    with pytest.raises(ValueError, match=re.escape("known value at (1, 1) must be an int")):
        solve_constraints(2, known, frozenset({"R1", "R2"}), M1)


def _verdict_lines(n_values):
    """One line per corrupted or under-specified system of every strategy:
    "ok", or the exception's class name and message."""
    lines = []
    for tag in sorted(STRATEGIES):
        strategy = STRATEGIES[tag]
        for n in n_values:
            prev = build_matrix(n - 1, tag)
            known = _known_for(strategy, n, prev)
            systems = [
                {**known, cell: known[cell] + d} for cell in sorted(known) for d in (-1, 1, 2)
            ]
            for dropped in sorted(strategy.boundary):
                partial = dataclasses.replace(strategy, boundary=strategy.boundary - {dropped})
                systems.append(_known_for(partial, n, prev))
            for system in systems:
                try:
                    solve_constraints(n, system, strategy.recurrences, prev)
                    lines.append("ok")
                except ValueError as e:
                    lines.append(f"{type(e).__name__}{e}")
    return lines


# sha256 of the 3990 verdict lines for n = 2..6, recorded before the solver
# counted unknown cells per instance
VERDICT_DIGEST = "7e31a4fce3781abcc880b32306ff5360e84f09ff7f9293503564695286ce36a1"


def test_verdict_texts_pinned():
    # -1, +1 and +2 on every known cell, and each boundary condition dropped
    lines = _verdict_lines(range(2, 7))
    assert len(lines) == 3990
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VERDICT_DIGEST


def test_solver_verdicts_survive_optimize():
    # no invariant of the build may vanish under `python -O`
    script = (
        "from poupard.delta import STRATEGIES, Inconsistent, _known_for, build_matrix, "
        "solve_constraints\n"
        "print(__debug__)\n"
        "print(sorted({build_matrix(10, tag).to_json() for tag in STRATEGIES}) "
        "== [build_matrix(10, 'D1').to_json()])\n"
        "d3, prev = STRATEGIES['D3'], build_matrix(3, 'D3')\n"
        "known = _known_for(d3, 4, prev)\n"
        "known[(8, 1)] += 1\n"
        "try:\n"
        "    solve_constraints(4, known, d3.recurrences, prev)\n"
        "except Inconsistent as e:\n"
        "    print(type(e).__name__)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "Inconsistent"]
