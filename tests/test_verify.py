"""Failure texts of the verify suites: a corrupted cell is named with both
values, through a copy of the golden fixtures, a monkeypatched builder or a
bumped strategy system."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poupard
from poupard import delta, gf, trees, verify
from poupard.delta import STRATEGIES, DeltaMatrix, _boundary
from poupard.report import FAIL, PASS, VerifyReport, timed_check
from poupard.triangle import poupard_triangle
from poupard.trees import census_tables, joint_distribution
from poupard.verify import run_checks


def _failures(report, name):
    """Every failure text of the checks called `name`, in run order."""
    return [text for record in report.checks if record.name == name for text in record.failures]


def _bumped(mat, m, k):
    rows = [list(r) for r in mat.rows]
    rows[m - 1][k - 1] += 1
    return DeltaMatrix(mat.n, tuple(tuple(r) for r in rows))


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    """A copy of the golden fixtures, which the suites then read."""
    for path in verify.FIXTURES.iterdir():
        (tmp_path / path.name).write_text(path.read_text())
    monkeypatch.setattr(verify, "FIXTURES", tmp_path)
    return tmp_path


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_golden_matrix_names_the_cell(fixtures):
    _edit(fixtures / "matrix_3.json", lambda d: d["rows"][3].__setitem__(1, 99))
    report = run_checks(["golden"], n_max=5)
    assert _failures(report, "golden/matrix") == ["f_3(4,2): built 3, fixture 99"]


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda rows: rows[3].__setitem__(2, 9), "f_3(3): built 8, fixture 9"),
        # a truncated fixture passed, and a longer one raised IndexError
        (lambda rows: rows.__delitem__(slice(2, None)), "built 5 triangle rows, fixture 2"),
        (lambda rows: rows.append(list(poupard_triangle(5).row(5))), "built 5 triangle rows, fixture 6"),
    ],
    ids=["entry", "truncated", "extended"],
)
def test_golden_triangle_names_the_entry_or_the_row_count(fixtures, change, expected):
    _edit(fixtures / "triangle.json", lambda d: change(d["rows"]))
    report = run_checks(["golden"], n_max=1)
    assert _failures(report, "golden/triangle") == [expected]


def test_golden_bijection_pair_names_the_statistic(fixtures):
    _edit(fixtures / "bijection_pair.json", lambda d: d.update(pom_source=5, pom_image=2))
    report = run_checks(["golden"], n_max=1)
    assert _failures(report, "golden/bijection-pair") == [
        "pom_source: computed 4, fixture 5",
        "pom_image: computed 6, fixture 2",
    ]


def _boundary_d3_bumped(strategy, n, prev):
    """D3's boundary segments at n = 3 with its I2 value at (5,2) bumped,
    3 -> 4; D3 then solves to another M_3, which first differs at (3,2).
    The segments are what both the certificate and the solver read."""
    conditions = _boundary(strategy, n, prev)
    if (strategy.tag, n) != ("D3", 3):
        return conditions
    i2 = {segment[:3]: segment for segment in conditions[0]}  # D3 is I2 I3
    rows, line, first, values = i2[(True, 5, 1)]
    i2[(True, 5, 1)] = rows, line, first, (values[0], values[1] + 1, *values[2:])
    return [tuple(i2.values()), *conditions[1:]]


@pytest.fixture
def d3_bumped_at_3(monkeypatch):
    """The bumped system in the builder, with the strategy chains rebuilt
    around it and restored after it."""
    monkeypatch.setattr(delta, "_boundary", _boundary_d3_bumped)
    monkeypatch.setattr(delta, "_chains", {})


def test_equivalence_names_the_strategy_and_the_cell(d3_bumped_at_3):
    report = run_checks(["equivalence"], n_max=3)
    assert _failures(report, "equivalence/strategies") == ["f_3(3,2): D3 4, D1 1"]


def _solved_equivalence(n_max):
    """The equivalence records when every strategy solves each M_k of its own
    chain with solve_constraints, never through build_matrix."""
    chains = {tag: [delta.M1] for tag in STRATEGIES}

    def solved(n, tag):
        chain, strategy = chains[tag], STRATEGIES[tag]
        while len(chain) < n:
            k, prev = len(chain) + 1, chain[-1]
            known = delta._known_for(strategy, k, prev)
            chain.append(delta.solve_constraints(k, known, strategy.recurrences, prev))
        return chain[n - 1]

    report = VerifyReport()
    for n in range(1, n_max + 1):
        with timed_check(report, "equivalence/strategies", {"n": n}) as failures:
            reference = solved(n, "D1")
            for tag in sorted(STRATEGIES):
                diff = solved(n, tag).first_difference(reference)
                if diff is not None:
                    failures.append("f_{}({},{}): {tag} {}, D1 {}".format(n, *diff, tag=tag))
                    break
    return report


def test_equivalence_builds_each_strategy_that_failed_or_was_not_reached(d3_bumped_at_3):
    # D3 leaves D1's chain at n = 3; from n = 4 on, its certificate fails
    # against D1 and each build solves its own system
    records = [
        [(r.name, r.params, r.status, r.failures) for r in report.checks]
        for report in (run_checks(["equivalence"], n_max=6), _solved_equivalence(6))
    ]
    assert records[0] == records[1]
    assert [status for _, _, status, _ in records[0]] == [PASS, PASS, FAIL, FAIL, FAIL, FAIL]


def test_passing_equivalence_builds_d1_alone(monkeypatch):
    # every other strategy takes D1's matrices by certificate, so the solver
    # runs once per n > 1, for D1 (M_1 is fixed)
    solved, solve = [], delta.solve_constraints

    def recorded(n, *args):
        solved.append(n)
        return solve(n, *args)

    monkeypatch.setattr(delta, "_chains", {})
    monkeypatch.setattr(delta, "solve_constraints", recorded)
    report = run_checks(["equivalence"], n_max=8)
    assert report.passed() and len(report.checks) == 8
    assert solved == [2, 3, 4, 5, 6, 7, 8]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_verify_uses_no_private_name_of_any_module():
    # the suites call the library's public predicates; how a module poses or
    # walks its objects stays in that module
    modules = {path.stem for path in Path(poupard.__file__).parent.glob("*.py")}
    # `from .trees import ...` and `from poupard.trees import ...`
    sources = {(1, m) for m in modules} | {(0, f"poupard.{m}") for m in modules}
    tree = ast.parse(Path(verify.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    private = [
        f"{node.module}.{alias.name}"
        for node in imports
        if (node.level, node.module) in sources
        for alias in node.names
        if _private(alias.name)
    ]
    # the names verify binds to whole poupard modules: `from . import trees`
    bound = {
        alias.asname or alias.name
        for node in imports
        if (node.level, node.module) in ((1, None), (0, "poupard"))
        for alias in node.names
        if alias.name in modules
    }
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and _private(node.attr)
    ]
    assert bound and private == []


def test_equivalence_fails_on_a_bumped_system_under_optimize():
    # so that no part of the certificate is an assert
    script = (
        "from poupard import delta, verify\n"
        "from test_verify import _boundary_d3_bumped\n"
        "delta._boundary = _boundary_d3_bumped\n"
        "for record in verify.run_checks(['equivalence'], n_max=3).checks:\n"
        "    print(record.params['n'], record.status, record.counterexample)\n"
    )
    paths = (Path(poupard.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"1 {PASS} None", f"2 {PASS} None", f"3 {FAIL} f_3(3,2): D3 4, D1 1"
        ]


def test_enumeration_names_the_cell(monkeypatch):
    def corrupted(n, limit):
        dist = joint_distribution(n, limit)
        return _bumped(dist, 4, 2) if n == 3 else dist

    monkeypatch.setattr(verify, "joint_distribution", corrupted)
    report = run_checks(["enumeration"], n_max=3)
    assert _failures(report, "enumeration/joint") == [
        "counted 35 trees, expected 34",
        "f_3(4,2): census 4, built 3",
    ]


def test_census_names_the_second_difference_and_the_witness(monkeypatch):
    def corrupted(n, limit):
        tables = census_tables(n, limit)
        if n != 3:
            return tables
        r1 = [list(row) for row in tables.r1_witness]
        r1[2][0] += 1  # (3,1), an R1 anchor whose witness count is 1
        return tables._replace(r1_witness=tuple(map(tuple, r1)))

    monkeypatch.setattr(verify, "census_tables", corrupted)
    report = run_checks(["census"], n_max=3)
    assert _failures(report, "census/second-difference") == [
        "R1 second difference at (m,k)=(3,1): -2, witness 2"
    ]


def _bump_r2_outside(tables, m, k):
    grid = [list(row) for row in tables.r2_outside]
    grid[m - 1][k - 1] += 1
    return tables._replace(r2_outside=tuple(map(tuple, grid)))


@pytest.mark.parametrize(
    "m, k, expected",
    [
        # an R2 (U1) anchor whose witness count is 1, and an R4 (L2) one whose is 1
        (2, 3, "R2 second difference at (m,k)=(2,3): -2, witness 2"),
        (5, 1, "R4 second difference at (m,k)=(5,1): -2, witness 2"),
    ],
    ids=["R2", "R4"],
)
def test_census_names_the_column_second_difference(monkeypatch, m, k, expected):
    bumped = _bump_r2_outside(census_tables(3), m, k)
    assert trees.census_identity_failure(bumped) == expected

    def corrupted(n, limit):
        tables = census_tables(n, limit)
        return _bump_r2_outside(tables, m, k) if n == 3 else tables

    monkeypatch.setattr(verify, "census_tables", corrupted)
    report = run_checks(["census"], n_max=3)
    assert _failures(report, "census/second-difference") == [expected]


def test_census_and_gf_checks_report_what_the_library_predicates_return(monkeypatch):
    # verify spells neither identity: each check reports its predicate's verdict
    monkeypatch.setattr(trees, "census_identity_failure", lambda tables: f"sentinel {tables.n}")
    monkeypatch.setattr(
        gf, "triangle_series_failures", lambda triangle, cap, matrices: [f"sentinel {triangle}"]
    )
    report = run_checks(["census", "gf"], n_max=3, cap=4)
    assert _failures(report, "census/second-difference") == ["sentinel 2", "sentinel 3"]
    assert _failures(report, "gf/lower-triangle") == ["sentinel lower"]
    assert _failures(report, "gf/upper-triangle") == ["sentinel upper"]


def _bump_egf(monkeypatch, egf, mono):
    """Add 1 to one coefficient of gf's lambda_egf or omega_egf."""
    build = getattr(gf, egf)

    def corrupted(cap, matrices):
        coeffs = build(cap, matrices)
        return {**coeffs, mono: coeffs[mono] + 1}

    monkeypatch.setattr(gf, egf, corrupted)


@pytest.mark.parametrize(
    "egf, mono, name, expected",
    [
        ("lambda_egf", (1, 2, 1), "gf/lower-triangle",
         "lower-triangle series not symmetric under y<->z (first at x^1 y^1 z^2: 3, swapped 4)"),
        ("omega_egf", (2, 1, 1), "gf/upper-triangle",
         "upper-triangle series not symmetric under x<->z (first at x^1 y^1 z^2: 2, swapped 3)"),
    ],
    ids=["lower", "upper"],
)
def test_gf_symmetry_names_the_monomial_and_both_values(monkeypatch, egf, mono, name, expected):
    _bump_egf(monkeypatch, egf, mono)
    report = run_checks(["gf"], cap=6)
    # the bumped coefficient breaks the closed form first, then the symmetry
    assert _failures(report, name)[-1] == expected


@pytest.mark.parametrize(
    "egf, mono, name, expected",
    [
        ("lambda_egf", (1, 2, 1), "gf/lower-triangle",
         "lower-triangle series differs from its closed form "
         "(first at x^1 y^2 z^1: series times denominator 2, numerator 0)"),
        ("omega_egf", (1, 0, 3), "gf/upper-triangle",
         "upper-triangle series differs from its closed form "
         "(first at x^1 y^0 z^3: series times denominator -2, numerator -4)"),
    ],
    ids=["lower", "upper"],
)
def test_gf_closed_form_names_the_monomial_and_both_values(monkeypatch, egf, mono, name, expected):
    # the two sides of lhs * 2cos^2((x+y+z)/sqrt2) = numerator, as EGF coefficients
    _bump_egf(monkeypatch, egf, mono)
    report = run_checks(["gf"], cap=6)
    assert _failures(report, name)[0] == expected
