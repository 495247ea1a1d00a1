"""Executable verification suites for every identity the package implements.

Each suite appends timed CheckRecords to a VerifyReport through the public
predicates of delta, trees and gf, re-spelling none.  Unless forced,
enumeration and census stop at the census limit, and bijection at
BIJECTION_CAP.  Golden data lives in fixtures/, so the suite runs offline;
equivalence stops at the first strategy whose M_n differs from D1's or raises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

from . import gf, trees
from .delta import (
    STRATEGIES,
    DeltaMatrix,
    build_matrix,
    counter_diagonal_failure,
    crossing_failure,
    delta_matrices,
    first_difference,
    marginals_failure,
    recurrence_failure,
    sub_super_diagonal_failure,
)
from .report import SKIPPED, CheckRecord, VerifyReport, timed_check
from .triangle import Triangle, is_poupard_matrix, poupard_triangle
from .trees import Tree, census_tables, eoc, ha12_map, joint_distribution, pom, tree_count

FIXTURES = Path(__file__).parent / "fixtures"

# bijection visits every tree: n = 5 takes about 0.01 s, and n = 6, with
# 349 504 images, about 0.35 s and 23 MiB
BIJECTION_CAP = 5


def load_fixture_matrix(n: int) -> DeltaMatrix:
    return DeltaMatrix.from_json((FIXTURES / f"matrix_{n}.json").read_text())


def _capped(
    report: VerifyReport, name: str, n_min: int, n_max: int, force: bool, cap: int, ceiling: str
) -> Iterator[int]:
    """Each n in n_min..n_max up to cap, or every n under force; each n above
    the cap is recorded as SKIPPED, naming the ceiling."""
    for n in range(n_min, n_max + 1):
        if force or n <= cap:
            yield n
        else:
            report.add(CheckRecord(name, {"n": n}, SKIPPED, f"n={n} above {ceiling} {cap}"))


# ---------------------------------------------------------------------------
# Individual suites
# ---------------------------------------------------------------------------


def check_golden(report: VerifyReport, n_max: int) -> None:
    for n in range(1, min(n_max, 5) + 1):
        with timed_check(report, "golden/matrix", {"n": n}) as failures:
            diff = build_matrix(n, "D1").first_difference(load_fixture_matrix(n))
            if diff is not None:
                failures.append("f_{}({},{}): built {}, fixture {}".format(n, *diff))

    with timed_check(report, "golden/triangle", {"rows": "0..4"}) as failures:
        golden = Triangle.from_json((FIXTURES / "triangle.json").read_text())
        tri = poupard_triangle(4)
        at = first_difference(tri.rows, golden.rows)
        if at is not None and len(at) == 1:  # from_json fixes each row's length
            failures.append(f"built {len(tri.rows)} triangle rows, fixture {len(golden.rows)}")
        elif at is not None:
            n, j = at
            failures.append(f"f_{n}({j + 1}): built {tri.rows[n][j]}, fixture {golden.rows[n][j]}")

    with timed_check(report, "golden/bijection-pair", {}) as failures:
        pair = json.loads((FIXTURES / "bijection_pair.json").read_text())
        src = Tree.deserialize(pair["source"])
        image = ha12_map(src)
        if image.serialize() != pair["image"]:
            failures.append(f"map image {image.serialize()!r} != fixture {pair['image']!r}")
        stats = {"eoc_source": eoc(src), "pom_source": pom(src), "pom_image": pom(image)}
        for key, value in stats.items():
            if value != pair[key]:
                failures.append(f"{key}: computed {value}, fixture {pair[key]}")


def check_equivalence(report: VerifyReport, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with timed_check(report, "equivalence/strategies", {"n": n}) as failures:
            reference = build_matrix(n, "D1")
            for tag in sorted(STRATEGIES):  # Unresolved/Inconsistent -> fail
                diff = build_matrix(n, tag).first_difference(reference)
                if diff is not None:
                    failures.append("f_{}({},{}): {tag} {}, D1 {}".format(n, *diff, tag=tag))
                    break


def check_enumeration(report: VerifyReport, n_max: int, force: bool) -> None:
    limit = trees.CENSUS_LIMIT  # census_tables' own limit, read at call time
    top = n_max if force else min(n_max, limit)
    for n in _capped(report, "enumeration/joint", 1, n_max, force, limit, "census limit"):
        with timed_check(report, "enumeration/joint", {"n": n}) as failures:
            census_tables(top, limit=top)  # the largest n first: one pass serves every n
            dist = joint_distribution(n, limit=n_max)
            expected = tree_count(n)
            if dist.total() != expected:
                failures.append(f"counted {dist.total()} trees, expected {expected}")
            diff = dist.first_difference(build_matrix(n, "D1"))
            if diff is not None:
                failures.append("f_{}({},{}): census {}, built {}".format(n, *diff))


def _check_each(
    report: VerifyReport, name: str, n_min: int, n_max: int, predicate
) -> None:
    """One check per n, recording the first failure of predicate(M_n)."""
    for n in range(n_min, n_max + 1):
        with timed_check(report, name, {"n": n}) as failures:
            failure = predicate(build_matrix(n, "D1"))
            if failure is not None:
                failures.append(failure)


def check_symmetry(report: VerifyReport, n_max: int) -> None:
    _check_each(report, "symmetry/counter-diagonal", 1, n_max, counter_diagonal_failure)


def check_diagonals(report: VerifyReport, n_max: int) -> None:
    _check_each(report, "diagonals/sub-super", 2, n_max, sub_super_diagonal_failure)


def check_crossing(report: VerifyReport, n_max: int) -> None:
    _check_each(report, "crossing/equalities", 2, n_max, crossing_failure)


def check_marginals(report: VerifyReport, n_max: int) -> None:
    tri = poupard_triangle(n_max)

    def identities(mat: DeltaMatrix):
        prev = build_matrix(mat.n - 1, "D1") if mat.n >= 2 else None
        return marginals_failure(mat, prev, tri.row(mat.n))

    _check_each(report, "marginals/identities", 1, n_max, identities)

    # The stated doubled initial condition contradicts the data; record the
    # demonstration (pass = the doubled form fails AND the plain form holds).
    for n in range(2, n_max + 1):
        with timed_check(report, "marginals/initial-condition-erratum", {"n": n}) as failures:
            mat = build_matrix(n, "D1")
            total = build_matrix(n - 1, "D1").total()
            for axis, value in (("row", mat.row_sum(2)), ("column", mat.col_sum(1))):
                if value == 2 * total:
                    failures.append(f"doubled {axis} initial condition unexpectedly holds at n={n}")
                if value != total:
                    failures.append(
                        f"{axis} initial condition without the factor fails: {value} != {total}"
                    )


def check_bijection(report: VerifyReport, n_max: int, force: bool) -> None:
    cap = BIJECTION_CAP
    for n in _capped(report, "bijection/chain-shift", 1, n_max, force, cap, "enumeration cap"):
        with timed_check(report, "bijection/chain-shift", {"n": n}) as failures:
            failure = trees.chain_shift_failure(n)
            if failure is not None:
                failures.append(failure)


def check_census(report: VerifyReport, n_max: int, force: bool) -> None:
    # second differences of the tree census against its structural witnesses
    limit = trees.CENSUS_LIMIT
    top = n_max if force else min(n_max, limit)
    for n in _capped(report, "census/second-difference", 2, n_max, force, limit, "census limit"):
        with timed_check(report, "census/second-difference", {"n": n}) as failures:
            census_tables(top, limit=top)  # as in check_enumeration
            failure = trees.census_identity_failure(census_tables(n, limit=n_max))
            if failure is not None:
                failures.append(failure)

    # the reduced recurrences as pure matrix identities
    _check_each(
        report, "census/matrix-recurrences", 2, n_max,
        lambda mat: recurrence_failure(mat, build_matrix(mat.n - 1, "D1")),
    )


def check_gf(report: VerifyReport, cap: int) -> None:
    """Both trivariate identities over the integers, at the full cap; the
    Q(sqrt 2) series path (gf.lambda_rhs, gf.omega_rhs) is the tests' oracle."""
    matrices = delta_matrices(gf.required_matrix_count(cap))
    for triangle in ("lower", "upper"):
        with timed_check(report, f"gf/{triangle}-triangle", {"cap": cap}) as failures:
            failures.extend(gf.triangle_series_failures(triangle, cap, matrices))


def check_poupard_matrices(report: VerifyReport) -> None:
    p_max, size = 5, 8  # the reindexed matrices lambda^(p), omega^(p) for p <= 5, 8 x 8
    # omega^(p_max)[size-1, size-1] is the cell of largest degree read
    matrices = delta_matrices(gf.required_matrix_count(2 * size + p_max - 2))
    for p in range(0, p_max + 1):
        with timed_check(report, "poupard-matrices/reindexed", {"p": p, "size": size}) as failures:
            for name, reindex in (("lambda", gf.reindex_lambda), ("omega", gf.reindex_omega)):
                res = is_poupard_matrix(reindex(p, size, matrices))
                if not res.ok:
                    failures.append(f"{name}^({p}) violates the four-term rule at {res.violation}")
    for p in range(1, p_max + 1):
        with timed_check(report, "poupard-matrices/transfer", {"p": p, "size": size}) as failures:
            failures.extend(gf.boundary_relations_check(p, size, matrices))


def check_closed_forms(report: VerifyReport, cap: int) -> None:
    """The bivariate closed forms over the integers, each ratio
    cross-multiplied; the Q(sqrt 2) series path (gf.lambda1_closed_forms)
    is the tests' oracle.  The cap is at least 12, that of acceptance
    criterion 11."""
    cap = max(cap, 12)
    # row 1 of omega^(4) reaches degree cap + 5, the largest read
    matrices = delta_matrices(gf.required_matrix_count(cap + 5))
    with timed_check(report, "closed-forms/bivariate", {"cap": cap}) as failures:
        failures.extend(gf.bivariate_closed_form_failures(cap, matrices))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


# Every suite in run order, with the run_checks arguments its
# check_<family> takes after the report.  The function is looked up by name
# when the suite runs, so a rebinding of verify.check_* is seen.
_SUITES = (
    ("golden", ("n_max",)),
    ("equivalence", ("n_max",)),
    ("enumeration", ("n_max", "force")),
    ("symmetry", ("n_max",)),
    ("diagonals", ("n_max",)),
    ("crossing", ("n_max",)),
    ("marginals", ("n_max",)),
    ("bijection", ("n_max", "force")),
    ("census", ("n_max", "force")),
    ("gf", ("cap",)),
    ("poupard-matrices", ()),
    ("closed-forms", ("cap",)),
)
ALL_CHECKS = tuple(name for name, _ in _SUITES)


def run_checks(
    checks: Sequence[str],
    n_max: int = 6,
    cap: int = 10,
    force: bool = False,
) -> VerifyReport:
    selected = list(dict.fromkeys(checks))
    if not selected:
        raise ValueError(f"no checks selected; available: {ALL_CHECKS}")
    unknown = [c for c in selected if c not in ("all", *ALL_CHECKS)]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {ALL_CHECKS}")
    if "all" in selected:
        selected = list(ALL_CHECKS)
    # below these bounds every suite would pass having checked nothing
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")

    report = VerifyReport()
    params = {"n_max": n_max, "cap": cap, "force": force}
    for name, args in _SUITES:
        if name in selected:
            check = globals()["check_" + name.replace("-", "_")]
            check(report, *(params[arg] for arg in args))
    return report
