"""Failure texts of the verify suites: a corrupted cell is named with both
values, through a copy of the golden fixtures or a monkeypatched builder."""

import dataclasses
import json

import pytest

from poupard import gf, verify
from poupard.delta import DeltaMatrix, build_matrix
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


def test_equivalence_names_the_strategy_and_the_cell(monkeypatch):
    def corrupted(n, tag="D1"):
        mat = build_matrix(n, tag)
        return _bumped(mat, 4, 2) if (n, tag) == (3, "D3") else mat

    monkeypatch.setattr(verify, "build_matrix", corrupted)
    report = run_checks(["equivalence"], n_max=3)
    assert _failures(report, "equivalence/strategies") == ["f_3(4,2): D3 4, D1 3"]


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
        return dataclasses.replace(tables, r1_witness=tuple(map(tuple, r1)))

    monkeypatch.setattr(verify, "census_tables", corrupted)
    report = run_checks(["census"], n_max=3)
    assert _failures(report, "census/second-difference") == [
        "R1 second difference at (m,k)=(3,1): -2, witness 2"
    ]


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
    build = getattr(gf, egf)

    def corrupted(cap, matrices):
        coeffs = build(cap, matrices)
        return {**coeffs, mono: coeffs[mono] + 1}

    monkeypatch.setattr(gf, egf, corrupted)
    report = run_checks(["gf"], cap=6)
    # the bumped coefficient breaks the closed form first, then the symmetry
    assert _failures(report, name)[-1] == expected
