"""Trigonometric generating functions for the lower and upper triangles.

The lower-triangle entries of the matrices M_n assemble into

  Lambda(x,y,z) = sum f_n(m,k) x^(m-k-1)/(m-k-1)! y^(k-1)/(k-1)! z^(2n-m)/(2n-m)!
                = (cos(sqrt2 x) + cos(sqrt2 y) cos(sqrt2 z)) / (2 cos^2((x+y+z)/sqrt2))

over 2 <= k+1 <= m <= 2n, and the upper-triangle entries into

  Omega(x,y,z) = sum f_n(m,k) x^(2n-k)/(2n-k)! y^(k-m-1)/(k-m-1)! z^(m-1)/(m-1)!
               = sin(sqrt2 x) sin(sqrt2 z) / (2 cos^2((x+y+z)/sqrt2)),

both truncated by total degree (a monomial from M_n has total degree 2n-2).
All right-hand sides live in Q(sqrt2); the sqrt2-parts must cancel, which is
checked rather than assumed.

The same entries, reindexed, give infinite matrices lambda^(p), omega^(p)
(slice p collects the p-th diagonal layer of lower/upper triangles).  These
satisfy the four-term Poupard rule, fixed column/row transfer relations, and
closed-form bivariate generating functions, all checked here exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .delta import DeltaMatrix
from .scalars import HALF_SQRT2, SQRT2, ZERO, RootTwoScalar
from .series import LinearForm, Monomial, TriSeries, of_linear_form, reciprocal
from .series import trig_in_x, trig_series

Grid = Tuple[Tuple[int, ...], ...]


class InsufficientMatrices(ValueError):
    """A required M_n is missing from the supplied list."""


def _lookup(matrices: Sequence[DeltaMatrix], n: int) -> DeltaMatrix:
    for mat in matrices:
        if mat.n == n:
            return mat
    raise InsufficientMatrices(f"M_{n} required but not supplied")


# ---------------------------------------------------------------------------
# Linear forms used throughout
# ---------------------------------------------------------------------------

FORM_S2X = LinearForm(SQRT2, ZERO, ZERO)  # sqrt2 * x
FORM_S2Y = LinearForm(ZERO, SQRT2, ZERO)
FORM_S2Z = LinearForm(ZERO, ZERO, SQRT2)
FORM_XYZ_OVER_S2 = LinearForm(HALF_SQRT2, HALF_SQRT2, HALF_SQRT2)  # (x+y+z)/sqrt2


# ---------------------------------------------------------------------------
# Full trivariate series
# ---------------------------------------------------------------------------


def _over_2cos2_xyz(num: TriSeries, triangle: str) -> TriSeries:
    """num / (2 cos^2((x+y+z)/sqrt2)), whose sqrt2-parts must cancel.  The
    denominator is inverted in x alone and (x+y+z)/sqrt2 substituted after."""
    c = trig_in_x("cos", num.cap)
    out = num * of_linear_form(reciprocal((c * c).scale(2)), FORM_XYZ_OVER_S2)
    if not out.is_rational():
        raise ArithmeticError(f"sqrt2-parts must cancel in the {triangle}-triangle series")
    return out


def lambda_rhs(cap: int) -> TriSeries:
    """(cos(sqrt2 x) + cos(sqrt2 y) cos(sqrt2 z)) / (2 cos^2((x+y+z)/sqrt2))."""
    num = trig_series("cos", FORM_S2X, cap) + trig_series(
        "cos", FORM_S2Y, cap
    ) * trig_series("cos", FORM_S2Z, cap)
    return _over_2cos2_xyz(num, "lower")


def omega_rhs(cap: int) -> TriSeries:
    """sin(sqrt2 x) sin(sqrt2 z) / (2 cos^2((x+y+z)/sqrt2))."""
    num = trig_series("sin", FORM_S2X, cap) * trig_series("sin", FORM_S2Z, cap)
    return _over_2cos2_xyz(num, "upper")


def required_matrix_count(cap: int) -> int:
    # a matrix M_n contributes monomials of total degree 2n-2
    return (cap + 2) // 2


def _triangle_series(
    cap: int,
    matrices: Sequence[DeltaMatrix],
    exponents: Callable[[int, int, int], Optional[Monomial]],
) -> TriSeries:
    """sum f_n(m,k) x^i y^j z^l / (i! j! l!) over the cells where
    exponents(2n, m, k) gives (i, j, l); each monomial comes from one cell."""
    coeffs: Dict[Monomial, RootTwoScalar] = {}
    for n in range(1, required_matrix_count(cap) + 1):
        mat = _lookup(matrices, n)
        for m, row in enumerate(mat.rows, 1):
            for k, v in enumerate(row, 1):
                mono = exponents(2 * n, m, k)
                if v and mono is not None:
                    i, j, l = mono
                    coeffs[mono] = RootTwoScalar(
                        Fraction(v, factorial(i) * factorial(j) * factorial(l))
                    )
    return TriSeries(cap, coeffs)


def lambda_lhs(cap: int, matrices: Sequence[DeltaMatrix]) -> TriSeries:
    """Assemble the lower-triangle series directly from matrix entries."""
    return _triangle_series(
        cap, matrices, lambda w, m, k: (m - k - 1, k - 1, w - m) if k < m else None
    )


def omega_lhs(cap: int, matrices: Sequence[DeltaMatrix]) -> TriSeries:
    """Assemble the upper-triangle series (column 2n is zero, so summing the
    full upper triangle matches the k <= 2n-1 statement)."""
    return _triangle_series(
        cap, matrices, lambda w, m, k: (w - k, k - m - 1, m - 1) if m < k else None
    )


def swap_variables(series: TriSeries, perm: Tuple[int, int, int]) -> TriSeries:
    """Permute exponent axes, e.g. perm=(0,2,1) swaps y and z."""
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"perm must be a permutation of (0, 1, 2), not {perm!r}")
    out: Dict[Monomial, RootTwoScalar] = {}
    for mono, c in series.monomials():
        out[(mono[perm[0]], mono[perm[1]], mono[perm[2]])] = c
    return TriSeries(series.cap, out)


# ---------------------------------------------------------------------------
# Reindexed infinite matrices (finite truncations)
# ---------------------------------------------------------------------------


def lambda_entry(p: int, i: int, j: int, matrices: Sequence[DeltaMatrix]) -> int:
    """lambda^(p)_{i,j}: zero on one parity class, else a lower-triangle
    f_n(m,k) with k=j+1, m=i+j+2, 2n=p+i+j+1."""
    if (i + j) % 2 == p % 2:
        return 0
    two_n = p + i + j + 1
    return _lookup(matrices, two_n // 2).value(i + j + 2, j + 1)


def omega_entry(p: int, i: int, j: int, matrices: Sequence[DeltaMatrix]) -> int:
    """omega^(p)_{i,j}: zero off the parity class of p, else an upper-triangle
    f_n(m,k) with m=p+1, k=p+j+2, 2n=p+i+j+2."""
    if (i + j) % 2 != p % 2:
        return 0
    two_n = p + i + j + 2
    return _lookup(matrices, two_n // 2).value(p + 1, p + j + 2)


def reindex_lambda(p: int, size: int, matrices: Sequence[DeltaMatrix]) -> Grid:
    return tuple(
        tuple(lambda_entry(p, i, j, matrices) for j in range(size)) for i in range(size)
    )


def reindex_omega(p: int, size: int, matrices: Sequence[DeltaMatrix]) -> Grid:
    return tuple(
        tuple(omega_entry(p, i, j, matrices) for j in range(size)) for i in range(size)
    )


def boundary_relations_check(
    p: int, size: int, matrices: Sequence[DeltaMatrix]
) -> List[str]:
    """Column/row transfer relations tying lambda^(p) and omega^(p) back to
    the p=1 matrices; returns human-readable failure strings (empty = pass)."""
    failures = []
    if p < 1:
        raise ValueError("transfer relations need p >= 1")
    for i in range(size):
        lhs = lambda_entry(p, i, 0, matrices)
        rhs = lambda_entry(1, i, p - 1, matrices)
        if lhs != rhs:
            failures.append(f"lambda^{p}[{i},0]={lhs} != lambda^1[{i},{p-1}]={rhs}")
        lhs = lambda_entry(p, i, 1, matrices)
        rhs = lambda_entry(1, i + 1, p - 1, matrices) + lambda_entry(1, i, p, matrices)
        if lhs != rhs:
            failures.append(
                f"lambda^{p}[{i},1]={lhs} != lambda^1[{i+1},{p-1}]+lambda^1[{i},{p}]={rhs}"
            )
    for j in range(size):
        lhs = omega_entry(p, 1, j, matrices)
        rhs = omega_entry(1, p, j, matrices)
        if lhs != rhs:
            failures.append(f"omega^{p}[1,{j}]={lhs} != omega^1[{p},{j}]={rhs}")
    return failures


# ---------------------------------------------------------------------------
# Bivariate grid generating functions and closed forms
# ---------------------------------------------------------------------------


def _bivariate_egf(value: Callable[[int, int], int], cap: int) -> TriSeries:
    """sum value(i, j) x^i y^j / (i! j!) to total degree cap.  With
    value(i, j) = c(i + j) this is sum_t c(t) (x+y)^t / t!."""
    coeffs: Dict[Monomial, RootTwoScalar] = {}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            v = value(i, j)
            if v:
                coeffs[(i, j, 0)] = RootTwoScalar(Fraction(v, factorial(i) * factorial(j)))
    return TriSeries(cap, coeffs)


def grid_egf(
    entry: Callable[..., int], p: int, cap: int, matrices: Sequence[DeltaMatrix]
) -> TriSeries:
    """sum g^(p)_{i,j} x^i y^j / (i! j!) to total degree cap, where g is
    lambda_entry or omega_entry."""
    return _bivariate_egf(lambda i, j: entry(p, i, j, matrices), cap)


FORM_XY_OVER_S2 = LinearForm(HALF_SQRT2, HALF_SQRT2, ZERO)  # (x+y)/sqrt2
FORM_XmY_OVER_S2 = LinearForm(HALF_SQRT2, -HALF_SQRT2, ZERO)  # (x-y)/sqrt2
FORM_S2_XY = LinearForm(SQRT2, SQRT2, ZERO)  # sqrt2*(x+y)


def lambda1_closed_forms(cap: int, matrices: Sequence[DeltaMatrix]) -> List[str]:
    """Exact cross-checks of every bivariate closed form against the grids.

    Verified as series identities at the given cap:
      * cos((x-y)/sqrt2)/cos((x+y)/sqrt2), (sin sqrt2x + sin sqrt2y)/sin(sqrt2(x+y))
        (by cross-multiplication) and (cos sqrt2x + cos sqrt2y)/(2cos^2((x+y)/sqrt2))
        all equal the lambda^(1) grid generating function;
      * the grid function restricted to one variable is identically 1;
      * omega^(1) grid function equals sin(sqrt2 x)/(sqrt2 cos^2((x+y)/sqrt2));
      * the column/row composition formulas reproduce lambda^(p), omega^(p)
        grid functions for p <= 4.
    Returns failure descriptions; empty means all identities hold.
    """
    failures: List[str] = []
    grid1 = grid_egf(lambda_entry, 1, cap, matrices)
    sin_s2x = trig_series("sin", FORM_S2X, cap)
    sin_s2y = trig_series("sin", FORM_S2Y, cap)
    cos_s2y = trig_series("cos", FORM_S2Y, cap)
    cos_xmy = trig_series("cos", FORM_XmY_OVER_S2, cap)
    cos_xy = trig_series("cos", FORM_XY_OVER_S2, cap)
    # denominators in cos((x+y)/sqrt2): invert in x alone, substitute after
    cos_x = trig_in_x("cos", cap)
    cos2_x = cos_x * cos_x

    def over_xy(denominator: TriSeries) -> TriSeries:
        return of_linear_form(reciprocal(denominator), FORM_XY_OVER_S2)

    form_a = cos_xmy * over_xy(cos_x)
    if form_a != grid1:
        failures.append("cos-ratio closed form != lambda^(1) grid series")

    # sine form has a non-unit denominator: compare by cross-multiplication
    sin_sum = sin_s2x + sin_s2y
    sin_xy = trig_series("sin", FORM_S2_XY, cap)
    if grid1 * sin_xy != sin_sum:
        failures.append("sine-ratio closed form != lambda^(1) grid series")
    if sin_sum * cos_xy != cos_xmy * sin_xy:
        failures.append("sine-ratio and cos-ratio closed forms disagree")

    cos_sum = trig_series("cos", FORM_S2X, cap) + cos_s2y
    form_c = cos_sum * over_xy(cos2_x.scale(2))
    if form_c != grid1:
        failures.append("cosine-sum closed form != lambda^(1) grid series")

    one = TriSeries.constant(1, cap)
    x_only = TriSeries(cap, {m: c for m, c in grid1.monomials() if m[1] == 0})
    y_only = TriSeries(cap, {m: c for m, c in grid1.monomials() if m[0] == 0})
    if x_only != one or y_only != one:
        failures.append("lambda^(1)(x,0) or lambda^(1)(0,y) differs from 1")

    # omega^(1): sin(sqrt2 x) / (sqrt2 cos^2((x+y)/sqrt2))
    omega1 = grid_egf(omega_entry, 1, cap, matrices)
    om_closed = sin_s2x * over_xy(cos2_x.scale(SQRT2))
    if om_closed != omega1:
        failures.append("omega^(1) closed form != omega^(1) grid series")

    # column composition for lambda^(p), row composition for omega^(p)
    sin_s2y_over = sin_s2y.scale(HALF_SQRT2)
    sin_s2x_over = sin_s2x.scale(HALF_SQRT2)

    def lambda1_column_at_xy(q: int) -> TriSeries:
        return _bivariate_egf(lambda i, j: lambda_entry(1, i + j, q, matrices), cap)

    lambda1_columns = [lambda1_column_at_xy(q) for q in range(5)]

    def omega_row1_at_xy(p: int) -> TriSeries:
        return _bivariate_egf(lambda i, j: omega_entry(p, 1, i + j, matrices), cap)

    for p in range(1, 5):
        composed = lambda1_columns[p - 1] * cos_s2y + lambda1_columns[p] * sin_s2y_over
        if composed != grid_egf(lambda_entry, p, cap, matrices):
            failures.append(f"column composition fails for lambda^({p})")
        ocomposed = sin_s2x_over * omega_row1_at_xy(p)
        if ocomposed != grid_egf(omega_entry, p, cap, matrices):
            failures.append(f"row composition fails for omega^({p})")
    return failures
