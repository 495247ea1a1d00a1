"""Generating functions: triple series, reindexed grids, closed forms."""

import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, prod
from operator import getitem, sub
from pathlib import Path

import pytest

import poupard
import poupard.series as series_mod
from poupard import gf, verify
from poupard.cli import main
from poupard.delta import DeltaMatrix, delta_matrices, first_difference
from poupard.report import FAIL, PASS, VerifyReport
from poupard.scalars import SQRT2, RootTwoScalar
from poupard.series import LinearForm, TriSeries, of_linear_form, reciprocal, trig_in_x, trig_series
from poupard.triangle import is_poupard_matrix


@pytest.fixture(scope="module")
def matrices():
    return delta_matrices(10)


def test_lambda_identity_small_cap(matrices):
    cap = 6
    lhs = gf.lambda_lhs(cap, matrices)
    rhs = gf.lambda_rhs(cap)
    assert lhs == rhs
    assert rhs.is_rational()


def test_omega_identity_small_cap(matrices):
    cap = 6
    lhs = gf.omega_lhs(cap, matrices)
    rhs = gf.omega_rhs(cap)
    assert lhs == rhs
    assert rhs.is_rational()


def test_cancellation_check_survives_optimize():
    # sin(sqrt2 x) sin(z) over 2cos^2 keeps a sqrt2-part; the check that
    # rejects it must not vanish under `python -O`
    script = (
        "from poupard import gf\n"
        "from poupard.scalars import ONE, ZERO\n"
        "from poupard.series import LinearForm\n"
        "gf.FORM_S2Z = LinearForm(ZERO, ZERO, ONE)\n"
        "gf.omega_rhs(4)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode != 0
    assert "ArithmeticError: sqrt2-parts must cancel in the upper-triangle series" in proc.stderr


def test_no_bare_assert_in_src():
    # an invariant written as `assert` vanishes under `python -O`
    package = Path(poupard.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_resolve_and_are_sorted():
    # a name deleted from a module but left in __all__ fails here
    missing = [name for name in poupard.__all__ if not hasattr(poupard, name)]
    assert missing == []
    assert poupard.__all__ == sorted(poupard.__all__)


def test_rhs_at_cap_zero():
    assert gf.lambda_rhs(0) == TriSeries.constant(1, 0)
    assert gf.omega_rhs(0) == TriSeries.zero(0)


def test_closed_forms_build_each_trig_series_once(matrices, monkeypatch):
    built = []
    trig_series = gf.trig_series

    def counting(kind, form, cap):
        built.append((kind, form))
        return trig_series(kind, form, cap)

    monkeypatch.setattr(gf, "trig_series", counting)
    assert gf.lambda1_closed_forms(6, matrices) == []
    assert len(built) == len(set(built)) == 7


def test_identities_at_cap_24():
    # criterion 10 at a cap the trivariate inverse could not reach in budget
    cap = 24
    start = time.perf_counter()
    matrices = delta_matrices(gf.required_matrix_count(cap))
    for lhs, rhs in ((gf.lambda_lhs, gf.lambda_rhs), (gf.omega_lhs, gf.omega_rhs)):
        closed = rhs(cap)
        assert lhs(cap, matrices) == closed
        assert closed.is_rational()
    assert time.perf_counter() - start < 30


DENOMINATORS = {
    "2cos^2((x+y+z)/sqrt2)": (gf.FORM_XYZ_OVER_S2, 2, 2),
    "cos((x+y)/sqrt2)": (gf.FORM_XY_OVER_S2, 1, 1),
    "2cos^2((x+y)/sqrt2)": (gf.FORM_XY_OVER_S2, 2, 2),
    "sqrt2 cos^2((x+y)/sqrt2)": (gf.FORM_XY_OVER_S2, SQRT2, 2),
}


@pytest.mark.parametrize("name", sorted(DENOMINATORS))
def test_univariate_inverse_matches_trivariate_reciprocal(name):
    form, factor, power = DENOMINATORS[name]

    def denominator(cos):
        return (cos * cos if power == 2 else cos).scale(factor)

    for cap in range(11):
        trivariate = reciprocal(denominator(trig_series("cos", form, cap)))
        univariate = of_linear_form(reciprocal(denominator(trig_in_x("cos", cap))), form)
        assert univariate == trivariate, cap


def test_denominators_are_inverted_in_x_alone(matrices, monkeypatch):
    inverted = []

    def recording(series):
        inverted.append(series)
        return reciprocal(series)

    monkeypatch.setattr(gf, "reciprocal", recording)
    gf.lambda_rhs(6)
    gf.omega_rhs(6)
    assert gf.lambda1_closed_forms(6, matrices) == []
    assert len(inverted) == 5
    assert all(j == k == 0 for series in inverted for _, j, k in series.coeffs)


@pytest.mark.parametrize("perm", [(0, 0, 0), (0, 1), (0, 1, 3), (1, 2, 0, 0)])
def test_permute_axes_rejects_non_permutations(perm):
    series = TriSeries(2, {(1, 0, 0): RootTwoScalar(1), (1, 0, 1): RootTwoScalar(2)})
    with pytest.raises(ValueError, match="permutation"):
        gf.permute_axes(series.coeffs, perm)


def test_series_spot_coefficients(matrices):
    lam = gf.lambda_lhs(8, matrices)
    assert lam.coefficient((0, 0, 0)) == RootTwoScalar(1)  # f_1(2,1)
    # x^1 y^0 z^5: f_4(3,1)/(1! 0! 5!) = 4/120
    assert lam.coefficient((1, 0, 5)) == RootTwoScalar(Fraction(1, 30))
    om = gf.omega_lhs(8, matrices)
    assert om.coefficient((0, 0, 0)).is_zero()
    assert om.coefficient((1, 0, 1)) == RootTwoScalar(1)  # f_2(2,3)


def test_series_symmetries(matrices):
    lam = gf.lambda_lhs(8, matrices)
    assert gf.permute_axes(lam.coeffs, (0, 2, 1)) == lam.coeffs
    om = gf.omega_lhs(8, matrices)
    assert gf.permute_axes(om.coeffs, (2, 1, 0)) == om.coeffs


def test_insufficient_matrices():
    few = delta_matrices(2)
    with pytest.raises(gf.InsufficientMatrices):
        gf.lambda_lhs(10, few)
    with pytest.raises(gf.InsufficientMatrices, match="M_3 required but not supplied"):
        gf.reindex_lambda(3, 8, few)
    with pytest.raises(gf.InsufficientMatrices, match="M_3 required but not supplied"):
        gf.boundary_relations_check(3, 8, few)
    with pytest.raises(gf.InsufficientMatrices, match="M_3 required but not supplied"):
        gf.bivariate_closed_form_failures(12, few)
    # the last matrix the corner cell reads is missing
    with pytest.raises(gf.InsufficientMatrices, match="M_10 required but not supplied"):
        gf.reindex_omega(4, 8, delta_matrices(9))


@pytest.mark.parametrize(
    "call",
    [
        lambda mats: gf.reindex_lambda(-1, 4, mats),
        lambda mats: gf.reindex_omega(-1, 4, mats),
        lambda mats: gf.reindex_lambda(1, 0, mats),
        lambda mats: gf.reindex_omega(1, 0, mats),
        lambda mats: gf.boundary_relations_check(1, 0, mats),
    ],
    ids=["lambda-p-1", "omega-p-1", "lambda-size0", "omega-size0", "transfer-size0"],
)
def test_meaningless_sizes_are_rejected(call, matrices):
    # p = -1 names no matrix, and a 0 x 0 grid would pass having checked nothing
    with pytest.raises(ValueError, match=r"need p >= [01] and size >= 1, got p=-?\d+, size=\d+$"):
        call(matrices)


def test_matrix_order_does_not_matter(matrices):
    backwards = list(reversed(matrices))
    for p in range(6):
        for reindex in (gf.reindex_lambda, gf.reindex_omega):
            assert reindex(p, 6, backwards) == reindex(p, 6, matrices), (p, reindex)
    for p in range(1, 6):
        assert gf.boundary_relations_check(p, 6, backwards) == []
    corrupted = bumped(matrices, 4, 8, 3)
    for cap in (0, 9, 12):
        for mats in (matrices, corrupted):
            assert gf.bivariate_closed_form_failures(cap, mats[::-1]) == (
                gf.bivariate_closed_form_failures(cap, mats)
            ), cap


def test_reindex_lambda1_grid(matrices):
    grid = gf.reindex_lambda(1, 7, matrices)
    assert grid[0] == (1, 0, 0, 0, 0, 0, 0)
    assert grid[1] == (0, 1, 0, 1, 0, 4, 0)
    assert grid[2][:5] == (0, 0, 2, 0, 8)
    assert grid[3][:4] == (0, 1, 0, 10)
    # entries on even counter-diagonals are the triangle's row sums
    assert grid[5][1] == 4  # f_3(2, .)


def test_reindex_omega_grids(matrices):
    omega1 = gf.reindex_omega(1, 8, matrices)
    assert omega1[0] == (0,) * 8
    assert omega1[1][:7] == (1, 0, 1, 0, 4, 0, 34)
    omega0 = gf.reindex_omega(0, 8, matrices)
    assert all(v == 0 for row in omega0 for v in row)
    lambda0 = gf.reindex_lambda(0, 8, matrices)
    assert all(v == 0 for row in lambda0 for v in row)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
def test_reindexed_grids_are_poupard(p, matrices):
    assert is_poupard_matrix(gf.reindex_lambda(p, 6, matrices)).ok
    assert is_poupard_matrix(gf.reindex_omega(p, 6, matrices)).ok


def lambda_cell(p, i, j):
    """(n, m, k) of lambda^(p)_{i,j} = f_n(i+j+2, j+1) at 2n = p+i+j+1, or
    None off that parity, where the entry is 0."""
    two_n = p + i + j + 1
    return None if two_n % 2 else (two_n // 2, i + j + 2, j + 1)


def omega_cell(p, i, j):
    """(n, m, k) of omega^(p)_{i,j} = f_n(p+1, p+j+2) at 2n = p+i+j+2, or
    None off that parity, where the entry is 0."""
    two_n = p + i + j + 2
    return None if two_n % 2 else (two_n // 2, p + 1, p + j + 2)


def paper_grid(cell, p, size, matrices):
    """The size x size reindexed matrix spelled from the paper's definition
    through DeltaMatrix.value (zero outside [1, 2n]^2)."""
    by_n = {mat.n: mat for mat in matrices}
    return tuple(
        tuple(
            0 if (c := cell(p, i, j)) is None else by_n[c[0]].value(c[1], c[2])
            for j in range(size)
        )
        for i in range(size)
    )


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
def test_reindexed_grids_match_the_definitions(p, matrices):
    assert gf.reindex_lambda(p, 8, matrices) == paper_grid(lambda_cell, p, 8, matrices)
    assert gf.reindex_omega(p, 8, matrices) == paper_grid(omega_cell, p, 8, matrices)


def test_transfer_relations(matrices):
    for p in range(1, 5):
        assert gf.boundary_relations_check(p, 6, matrices) == []
    lam1, lam2 = (paper_grid(lambda_cell, p, 6, matrices) for p in (1, 2))
    # p=2, i=0: lambda^(2)[0,0] = lambda^(1)[0,1] = 0
    assert lam2[0][0] == lam1[0][1] == 0
    # p=2, i=1: lambda^(2)[1,1] = lambda^(1)[2,1] + lambda^(1)[1,2]
    assert lam2[1][1] == lam1[2][1] + lam1[1][2]
    # a corrupted lambda^(1) cell the relation reads is named
    n, m, k = lambda_cell(1, 1, 1)
    failures = gf.boundary_relations_check(2, 6, bumped(matrices, n, m, k))
    assert failures[0] == f"lambda^2[0,1]=1 != lambda^1[1,1]+lambda^1[0,2]={lam1[1][1] + 1}"


# sha256 of the reindex and transfer verdicts below, recorded before the
# reindexed matrices were read as slices of the trivariate EGFs
REINDEX_VERDICTS_SHA256 = "9401b0ddcf4695221b35d1ddcd84e6171aef1ca681042290aa50bb120ea69960"


def reindex_verdict_lines():
    """One line per (p, variant): `is_poupard_matrix` of both reindexed
    matrices and, for p >= 1, the `boundary_relations_check` failures, for
    p <= 5 at size 8 on the true matrices and eight seeded +1 corruptions
    of single cells: two anywhere, two read by lambda^(p), two by omega^(p)
    and one each by lambda^(1) and omega^(1)."""
    size, p_max = 8, 5
    top = gf.required_matrix_count(2 * size + p_max - 2)
    matrices = delta_matrices(top)
    lines = []
    for p in range(p_max + 1):
        rng = random.Random(p)
        cells = []
        for _ in range(2):
            n = rng.randint(1, top)
            cells.append((n, rng.randint(1, 2 * n), rng.randint(1, 2 * n)))
        reads = [(lambda_cell, max(p, 1))] * 2 + [(omega_cell, p)] * 2
        for cell, q in reads + [(lambda_cell, 1), (omega_cell, 1)]:
            found = None
            while found is None:
                found = cell(q, rng.randrange(size), rng.randrange(size))
            cells.append(found)
        for mats in [matrices] + [bumped(matrices, *cell) for cell in cells]:
            verdicts = [is_poupard_matrix(gf.reindex_lambda(p, size, mats))]
            verdicts.append(is_poupard_matrix(gf.reindex_omega(p, size, mats)))
            if p >= 1:
                verdicts.append(gf.boundary_relations_check(p, size, mats))
            lines.append(repr((p, verdicts)))
    return lines


def test_reindex_verdicts_are_pinned():
    digest = hashlib.sha256("\n".join(reindex_verdict_lines()).encode()).hexdigest()
    assert digest == REINDEX_VERDICTS_SHA256


def test_closed_forms_small_cap(matrices):
    assert gf.lambda1_closed_forms(8, matrices) == []


# ---------------------------------------------------------------------------
# Integer path (EGF cross-multiplication) against the Q(sqrt 2) series path
# ---------------------------------------------------------------------------


def bumped(matrices, n, m, k):
    """A copy of matrices with f_n(m,k) increased by 1."""
    out = []
    for mat in matrices:
        if mat.n == n:
            rows = [list(row) for row in mat.rows]
            rows[m - 1][k - 1] += 1
            mat = DeltaMatrix(n, tuple(map(tuple, rows)))
        out.append(mat)
    return out


def integer_mismatch(which, cap, matrices):
    """The first monomial where the trivariate `closed_form_sides` differ, or None."""
    lhs = getattr(gf, f"{which}_egf")(cap, matrices)
    numerator = getattr(gf, f"{which}_numerator_egf")(cap)
    return first_difference(*gf.closed_form_sides(lhs, numerator, cap))


def integer_check_passes(which, cap, matrices):
    return integer_mismatch(which, cap, matrices) is None


def test_numerator_egfs_match_trig_series():
    # E(N) times 1/(i! j! l!) is the series the literal path builds
    cap = 9
    cos_x, cos_y, cos_z = (
        trig_series("cos", form, cap) for form in (gf.FORM_S2X, gf.FORM_S2Y, gf.FORM_S2Z)
    )
    sin_x, sin_z = (trig_series("sin", form, cap) for form in (gf.FORM_S2X, gf.FORM_S2Z))
    assert gf._egf_series(cap, gf.lambda_numerator_egf(cap)) == cos_x + cos_y * cos_z
    assert gf._egf_series(cap, gf.omega_numerator_egf(cap)) == sin_x * sin_z


def test_integer_path_agrees_with_series_path():
    matrices = delta_matrices(gf.required_matrix_count(16))
    for cap in range(17):
        n = gf.required_matrix_count(cap)  # the last matrix reaches degree cap exactly
        variants = {
            "true": (matrices, {"lambda": True, "omega": True}),
            "lower+1": (bumped(matrices, n, n + 1, n), {"lambda": False, "omega": True}),
            "upper+1": (bumped(matrices, n, n, n + 1), {"lambda": True, "omega": False}),
        }
        for which, lhs, rhs in (
            ("lambda", gf.lambda_lhs, gf.lambda_rhs(cap)),
            ("omega", gf.omega_lhs, gf.omega_rhs(cap)),
        ):
            for name, (mats, expected) in variants.items():
                series_passes = lhs(cap, mats) == rhs
                assert integer_check_passes(which, cap, mats) == series_passes, (cap, which, name)
                assert series_passes == expected[which], (cap, which, name)


# n, then (m, k) and its monomial for one lower and one upper cell of M_n:
# an interior matrix and the last one at cap 20
CORRUPTIONS = [
    (5, ((7, 3), (3, 2, 3)), ((3, 6), (4, 2, 2))),
    (11, ((12, 5), (6, 4, 10)), ((5, 14), (8, 8, 4))),
]


@pytest.mark.parametrize("n, lower, upper", CORRUPTIONS, ids=["M_5", "M_11"])
def test_gf_check_fails_on_one_corrupted_cell(n, lower, upper, monkeypatch):
    cap = 20
    assert gf.required_matrix_count(cap) == 11
    matrices = delta_matrices(11)
    for ((m, k), mono), failing in ((lower, "gf/lower-triangle"), (upper, "gf/upper-triangle")):
        monkeypatch.setattr(verify, "delta_matrices", lambda count: bumped(matrices, n, m, k))
        report = VerifyReport()
        verify.check_gf(report, cap)
        statuses = {r.name: r.status for r in report.checks}
        other = {"gf/lower-triangle", "gf/upper-triangle"} - {failing}
        assert statuses == {failing: FAIL, other.pop(): PASS}
        (record,) = [r for r in report.checks if r.status == FAIL]
        assert "(first at x^{} y^{} z^{}: ".format(*mono) in record.counterexample


def test_gf_check_reaches_cap_40():
    start = time.perf_counter()
    report = verify.run_checks(["gf"], cap=40)
    assert [r.status for r in report.checks] == [PASS, PASS]
    assert time.perf_counter() - start < 30  # criterion 10's budget


def test_verify_gf_never_touches_the_series_path(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the verify gf check used the Q(sqrt 2) series path")

    for module, name in (
        (gf, "lambda_rhs"),
        (gf, "omega_rhs"),
        (gf, "reciprocal"),
        (gf, "trig_series"),
        (gf, "lambda_lhs"),
        (gf, "omega_lhs"),
        (gf, "TriSeries"),
        (series_mod, "reciprocal"),
        (series_mod, "trig_series"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert main(["verify", "--checks", "gf", "--cap", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 checks: 2 passed, 0 failed, 0 skipped"


# ---------------------------------------------------------------------------
# Bivariate closed forms over the integers against lambda1_closed_forms
# ---------------------------------------------------------------------------

# the bumped cell (n, m, k) of f_n(m,k), the identity it must fail and that
# identity's first differing monomial at cap 12
CLOSED_FORM_CORRUPTIONS = {
    # lambda^(1)[1,5]
    "lambda1": ((4, 8, 6), "cos-ratio closed form != lambda^(1) grid series", (1, 5)),
    # omega^(1)[2,3]
    "omega1": ((4, 2, 6), "omega^(1) closed form != omega^(1) grid series", (2, 3)),
    # lambda^(1)[4,2], in column 2, which feeds lambda^(2) and lambda^(3)
    "lambda1-column": ((4, 8, 3), "column composition fails for lambda^(3)", (0, 4)),
    # omega^(3)[1,2], in row 1
    "omega3-row1": ((4, 4, 7), "row composition fails for omega^(3)", (2, 1)),
}


def strip_monomial(failures):
    return [re.sub(r" \(first at x\^\d+ y\^\d+\)$", "", f) for f in failures]


# (a, b) of cos(ax+by) and sin(ax+by), and (a,) of cos(ax) and sin(ax)
TRIG_COEFFICIENTS = ((1, 1), (1, -1), (2, 0), (0, 2), (2, 2), (3,), (-2,))


def at(grid):
    """The grid as a function of the monomial."""
    return lambda *mono: reduce(getitem, mono, grid)


def convolution(f, g):
    """E(FG) from E(F) and E(G), as functions of the monomial, by brute force:
    the sum over s <= mono of prod_k C(mono_k, s_k) E(F)(s) E(G)(mono - s)."""

    def value(*mono):
        return sum(
            prod(map(comb, mono, s)) * f(*s) * g(*map(sub, mono, s))
            for s in product(*(range(m + 1) for m in mono))
        )

    return value


def test_times_exp_is_the_binomial_convolution():
    cap = 7
    rng = random.Random(5)
    grids = {
        dims: (
            gf._grid(lambda *mono: rng.randint(-3, 3), cap, dims),
            gf._grid(lambda *mono: rng.randint(-3, 3) if sum(mono) % 2 else 0, cap, dims),
        )
        for dims in (2, 1)
    }
    for coeffs in TRIG_COEFFICIENTS:
        # E of cos(L) and sin(L), L = sum_k a_k x_k: prod_k a_k^(i_k) times
        # (-1)^(t//2) at total degree t, even for cos and odd for sin
        trig = [
            lambda *mono, r=r: prod(map(pow, coeffs, mono))
            * (-1) ** (sum(mono) // 2)
            * (sum(mono) % 2 == r)
            for r in (0, 1)
        ]
        dims = len(coeffs)
        for f in grids[dims]:
            expected = [gf._grid(convolution(at(f), g), cap, dims) for g in trig]
            assert list(gf._times_exp(f, coeffs, -1)) == expected, coeffs
            assert gf._times_exp(f, coeffs, -1, real_only=True) == (expected[0], None), coeffs


def test_trig_grids_match_trig_series():
    cap = 9
    for coeffs in TRIG_COEFFICIENTS:
        dims = len(coeffs)
        one = gf._dense({(0,) * dims: 1}, cap, dims)
        padding = (0,) * (3 - dims)
        form = LinearForm(*(RootTwoScalar(a) for a in coeffs + padding))
        for kind, grid in zip(("cos", "sin"), gf._times_exp(one, coeffs, -1)):
            egf = {
                mono + padding: v
                for mono in product(range(cap + 1), repeat=dims)
                if sum(mono) <= cap and (v := at(grid)(*mono))
            }
            assert gf._egf_series(cap, egf) == trig_series(kind, form, cap), (kind, coeffs)


def test_times_exp_cos_sqrt2_sum_is_the_binomial_convolution():
    rng = random.Random(7)
    for cap in range(7):
        cells = [
            (i, j, l)
            for i in range(cap + 1)
            for j in range(cap + 1 - i)
            for l in range(cap + 1 - i - j)
        ]
        f = {cell: rng.randint(-3, 3) for cell in cells}
        # E(cos(sqrt2 (x+y+z))) is (-2)^(t/2) at even total degree t, else 0
        cos = {(i, j, l): (-2) ** ((i + j + l) // 2) * ((i + j + l) % 2 == 0) for i, j, l in cells}
        expected = {
            (i, j, l): sum(
                comb(i, r) * comb(j, s) * comb(l, u) * f[r, s, u] * cos[i - r, j - s, l - u]
                for r, s, u in cells
                if r <= i and s <= j and u <= l
            )
            for i, j, l in cells
        }
        grid = gf._dense(f, cap, 3)
        cos_part = gf._times_exp(grid, (1, 1, 1), -2, real_only=True)
        assert cos_part == (gf._dense(expected, cap, 3), None), cap
        assert gf._times_exp(grid, (1, 1, 1), -2)[0] == cos_part[0], cap
        # one rotation moves the first axis last, and three restore the grid
        turned = gf._rotate(grid, 3)
        assert turned == gf._dense({(j, l, i): v for (i, j, l), v in f.items()}, cap, 3), cap
        assert gf._rotate(gf._rotate(turned, 3), 3) == grid, cap
        for dims in (1, 2):
            flat = gf._grid(lambda *mono: rng.randint(-3, 3), cap, dims)
            assert reduce(lambda g, _: gf._rotate(g, dims), range(dims), flat) == flat, (cap, dims)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CORRUPTIONS))
def test_closed_forms_fail_on_one_corrupted_cell(name, matrices, monkeypatch, capsys):
    cell, identity, mono = CLOSED_FORM_CORRUPTIONS[name]
    corrupted = bumped(matrices, *cell)
    assert identity in gf.lambda1_closed_forms(12, corrupted)
    named = "{} (first at x^{} y^{})".format(identity, *mono)
    assert named in gf.bivariate_closed_form_failures(12, corrupted)
    monkeypatch.setattr(verify, "delta_matrices", lambda count: corrupted)
    assert main(["verify", "--checks", "closed-forms"]) == 1
    assert capsys.readouterr().out.startswith("FAIL    closed-forms/bivariate [cap=12]")


def test_report_lists_every_failure_of_a_check(matrices, monkeypatch, capsys):
    # +1 on f_4(8,3), a lambda^(1) column-2 cell, breaks six identities
    failing = [
        "cos-ratio closed form != lambda^(1) grid series",
        "sine-ratio closed form != lambda^(1) grid series",
        "cosine-sum closed form != lambda^(1) grid series",
        "column composition fails for lambda^(1)",
        "column composition fails for lambda^(2)",
        "column composition fails for lambda^(3)",
    ]
    corrupted = bumped(matrices, 4, 8, 3)
    monkeypatch.setattr(verify, "delta_matrices", lambda count: corrupted)
    report = verify.run_checks(["closed-forms"], n_max=6, cap=12)
    (record,) = report.checks
    assert strip_monomial(record.failures) == failing
    assert record.counterexample == record.failures[0]
    data = json.loads(report.to_json())["checks"][0]
    assert strip_monomial([data["counterexample"]] + data["more_failures"]) == failing
    lines = report.summary_lines()
    assert strip_monomial([l.split("also: ", 1)[1] for l in lines if "also: " in l]) == failing[1:]
    assert main(["verify", "--checks", "closed-forms"]) == 1
    assert capsys.readouterr().out.count("\n        also: ") == 5


def test_passing_records_gain_no_failure_list(matrices):
    report = verify.run_checks(["closed-forms"], n_max=6, cap=12)
    assert report.passed()
    assert "more_failures" not in report.to_json()
    assert not any("also: " in line for line in report.summary_lines())


def axis_cell(cap):
    """(n, m, k) of the x-axis cell of degree exactly cap: lambda^(1)[cap,0]
    at even caps, omega^(1)[cap,0] at odd ones."""
    return (cap // 2 + 1, cap + 2, 1) if cap % 2 == 0 else ((cap + 3) // 2, 2, 3)


def test_closed_form_paths_agree(matrices):
    variants = [matrices] + [
        bumped(matrices, *cell) for cell, _, _ in CLOSED_FORM_CORRUPTIONS.values()
    ]
    for cap in range(15):
        last_degree = bumped(matrices, *axis_cell(cap))
        assert gf.lambda1_closed_forms(cap, last_degree) != [], cap
        for index, mats in enumerate(variants + [last_degree]):
            integer = gf.bivariate_closed_form_failures(cap, mats)
            assert strip_monomial(integer) == gf.lambda1_closed_forms(cap, mats), (cap, index)


# sha256 of the integer checks' verdicts below, recorded before the grid
# engine behind them was rewritten
INTEGER_VERDICTS_SHA256 = "3d35f4b8e10109910ef9d5c28146aecc60b6ae9ed5764c1976c9b03d86756326"


def integer_verdict_lines():
    """One line per (cap, variant): the first monomial where the
    `closed_form_sides` differ, for both triangles, and the
    `bivariate_closed_form_failures` list, for caps 0..24 on the true
    matrices, the degree-cap axis cell and four seeded +1 corruptions."""
    top = delta_matrices((24 + 7) // 2)
    lines = []
    for cap in range(25):
        need = (cap + 7) // 2
        matrices = top[:need]
        rng = random.Random(cap)
        variants = [matrices, bumped(matrices, *axis_cell(cap))]
        for _ in range(4):
            n = rng.randint(1, need)
            variants.append(bumped(matrices, n, rng.randint(1, 2 * n), rng.randint(1, 2 * n)))
        for mats in variants:
            monomials = [integer_mismatch(which, cap, mats) for which in ("lambda", "omega")]
            lines.append(repr((cap, monomials, gf.bivariate_closed_form_failures(cap, mats))))
    return lines


def test_integer_verdicts_are_pinned():
    digest = hashlib.sha256("\n".join(integer_verdict_lines()).encode()).hexdigest()
    assert digest == INTEGER_VERDICTS_SHA256


def test_closed_forms_check_reaches_cap_60():
    start = time.perf_counter()
    report = verify.run_checks(["closed-forms"], cap=60)
    assert [r.status for r in report.checks] == [PASS]
    assert time.perf_counter() - start < 30  # criterion 10's budget


def test_verify_closed_forms_never_touches_the_series_path(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the verify closed-forms check used the Q(sqrt 2) series path")

    for module in (gf, series_mod):
        for name in ("trig_series", "reciprocal", "of_linear_form", "trig_in_x", "TriSeries"):
            monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(gf, "lambda1_closed_forms", forbidden)
    assert main(["verify", "--checks", "closed-forms", "--cap", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1 checks: 1 passed, 0 failed, 0 skipped"
