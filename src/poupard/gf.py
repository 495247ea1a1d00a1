"""Trigonometric generating functions for the lower and upper triangles.

The lower-triangle entries of the matrices M_n assemble into

  Lambda(x,y,z) = sum f_n(m,k) x^(m-k-1)/(m-k-1)! y^(k-1)/(k-1)! z^(2n-m)/(2n-m)!
                = (cos(sqrt2 x) + cos(sqrt2 y) cos(sqrt2 z)) / (2 cos^2((x+y+z)/sqrt2))

over 2 <= k+1 <= m <= 2n, and the upper-triangle entries into

  Omega(x,y,z) = sum f_n(m,k) x^(2n-k)/(2n-k)! y^(k-m-1)/(k-m-1)! z^(m-1)/(m-1)!
               = sin(sqrt2 x) sin(sqrt2 z) / (2 cos^2((x+y+z)/sqrt2)),

both truncated by total degree (a monomial from M_n has total degree 2n-2).

The paper's reindexed infinite matrices are layers of their EGFs
E(i,j,l) = i! j! l! [x^i y^j z^l]: lambda^(p)_{i,j} = E_Lambda(i, j, p-1) and
omega^(p)_{i,j} = E_Omega(i, j, p), that is f_n(i+j+2, j+1) at 2n = p+i+j+1
and f_n(p+1, p+j+2) at 2n = p+i+j+2, and 0 off that parity.  They satisfy
the four-term Poupard rule, fixed column/row transfer relations, and
closed-form bivariate generating functions, all checked here exactly.

Each generating-function identity is checked by two independent paths:

* The Q(sqrt2) series path divides TriSeries (`lambda_rhs`, `omega_rhs`,
  `lambda1_closed_forms`); the sqrt2-parts must cancel, which is checked
  rather than assumed.  The tests use this path as the oracle, and
  `poupard gf` / `export` dump `lambda_lhs` / `omega_lhs`.
* The integer path, used by `verify`, works with the EGF
  E(i,j,...) = i! j! ... [x^i y^j ...] on a dense grid.  Every identity is a
  grid times cos or sin of a linear form against a numerator, once the unit
  denominator is cross-multiplied, and in EGF normalization multiplying by
  exp(c sum_k a_k x_k), c^2 = d, is the binomial transform
  sum_s C(t,s) (a_k c)^(t-s) E(s) along each axis in turn (`_times_exp`),
  with ints only.  In the trivariate check (`triangle_series_failures`) the
  left-hand sides are the matrix entries themselves (`lambda_egf`,
  `omega_egf`) and 2cos^2(S/sqrt2) = 1 + cos(sqrt2 S), S = x+y+z; the
  bivariate one (`bivariate_closed_form_failures`) first substitutes
  x -> sqrt2 x, y -> sqrt2 y so that every coefficient is an integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb, factorial
from operator import getitem, mul
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .delta import DeltaMatrix, first_difference
from .scalars import HALF_SQRT2, SQRT2, ZERO, RootTwoScalar
from .series import LinearForm, Monomial, TriSeries, of_linear_form, reciprocal
from .series import trig_in_x, trig_series

Rows = Tuple[Tuple[int, ...], ...]
EGF = Dict[Monomial, int]  # E(i,j,l) = i! j! l! [x^i y^j z^l]
T = TypeVar("T")


class InsufficientMatrices(ValueError):
    """A required M_n is missing from the supplied list."""


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


def _triangle_egf(
    cap: int, matrices: Sequence[DeltaMatrix], lower: bool, layers: Sequence[int]
) -> EGF:
    """E(i,j,l) = f_n(m,k) over the nonzero cells of the lower (k < m) or
    upper (m < k) triangles of M_1..M_N, N = required_matrix_count(cap), on
    the given layers.  Layer l of M_n is part of one row, filling i+j = d in
    order: row m = 2n-l in the lower triangle, (m-k-1, k-1, 2n-m), and row
    m = l+1 in the upper, (2n-k, k-m-1, m-1)."""
    by_n = {mat.n: mat for mat in matrices}
    coeffs: EGF = {}
    for n in range(1, required_matrix_count(cap) + 1):
        if n not in by_n:
            raise InsufficientMatrices(f"M_{n} required but not supplied")
        for l in layers:
            if 0 <= l <= 2 * n - 2:
                m = 2 * n - l if lower else l + 1
                row = by_n[n].rows[m - 1]
                cells = row[: m - 1] if lower else row[m:]
                d = len(cells) - 1
                coeffs.update({(d - j, j, l): v for j, v in enumerate(cells) if v})
    return coeffs


def lambda_egf(cap: int, matrices: Sequence[DeltaMatrix]) -> EGF:
    """E(i,j,l) of the lower-triangle series: the matrix entries themselves."""
    return _triangle_egf(cap, matrices, True, range(cap + 1))


def omega_egf(cap: int, matrices: Sequence[DeltaMatrix]) -> EGF:
    """E(i,j,l) of the upper-triangle series (column 2n is zero, so summing the
    full upper triangle matches the k <= 2n-1 statement)."""
    return _triangle_egf(cap, matrices, False, range(cap + 1))


def _egf_series(cap: int, coeffs: EGF) -> TriSeries:
    """The series sum E(i,j,l) x^i y^j z^l / (i! j! l!)."""
    return TriSeries(
        cap,
        {
            (i, j, l): RootTwoScalar(Fraction(v, factorial(i) * factorial(j) * factorial(l)))
            for (i, j, l), v in coeffs.items()
        },
    )


def lambda_lhs(cap: int, matrices: Sequence[DeltaMatrix]) -> TriSeries:
    """Assemble the lower-triangle series directly from matrix entries."""
    return _egf_series(cap, lambda_egf(cap, matrices))


def omega_lhs(cap: int, matrices: Sequence[DeltaMatrix]) -> TriSeries:
    """Assemble the upper-triangle series directly from matrix entries."""
    return _egf_series(cap, omega_egf(cap, matrices))


def permute_axes(coeffs: Dict[Monomial, T], perm: Tuple[int, int, int]) -> Dict[Monomial, T]:
    """Permute exponent axes, e.g. perm=(0,2,1) swaps y and z."""
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"perm must be a permutation of (0, 1, 2), not {perm!r}")
    a, b, c = perm
    return {(mono[a], mono[b], mono[c]): v for mono, v in coeffs.items()}


# ---------------------------------------------------------------------------
# Integer path: the same identities cross-multiplied in EGF normalization
# ---------------------------------------------------------------------------


def lambda_numerator_egf(cap: int) -> EGF:
    """E of cos(sqrt2 x) + cos(sqrt2 y) cos(sqrt2 z)."""
    out: EGF = {(i, 0, 0): (-2) ** (i // 2) for i in range(0, cap + 1, 2)}
    for j in range(0, cap + 1, 2):
        for l in range(0, cap + 1 - j, 2):
            out[(0, j, l)] = out.get((0, j, l), 0) + (-2) ** ((j + l) // 2)
    return out


def omega_numerator_egf(cap: int) -> EGF:
    """E of sin(sqrt2 x) sin(sqrt2 z)."""
    return {
        (i, 0, l): 2 * (-2) ** ((i + l) // 2 - 1)
        for i in range(1, cap + 1, 2)
        for l in range(1, cap + 1 - i, 2)
    }


# A dense EGF over one or more axes: grid[i][j]... = E(i, j, ...) over total
# degree <= cap, as nested lists, so grid[i] is the grid of cap - i with one
# axis fewer.
Grid = list


def _grid(value: Callable[..., int], cap: int, dims: int) -> Grid:
    """The grid of value(i, j, ...)."""
    if dims == 1:
        return [value(i) for i in range(cap + 1)]
    return [_grid(partial(value, i), cap - i, dims - 1) for i in range(cap + 1)]


def _dense(coeffs: Dict[Tuple[int, ...], int], cap: int, dims: int) -> Grid:
    """The grid of a sparse EGF whose monomials are within the cap: a zero
    grid with each coefficient set."""
    if dims == 1:
        grid = [0] * (cap + 1)
    elif dims == 2:
        grid = [[0] * (cap + 1 - i) for i in range(cap + 1)]
    else:
        grid = [_dense({}, cap - i, dims - 1) for i in range(cap + 1)]
    for mono, v in coeffs.items():
        reduce(getitem, mono[:-1], grid)[mono[-1]] = v
    return grid


def _rotate(grid: Grid, dims: int) -> Grid:
    """out[j]...[i] = grid[i][j]..., so the first axis becomes the last."""
    if dims == 1:
        return grid
    out = [[row[j] for row in grid[: len(grid) - j]] for j in range(len(grid))]
    return out if dims == 2 else [_rotate(part, dims - 1) for part in out]


def _add(f: Grid, g: Grid, c: int = 1) -> Grid:
    """f + c g."""
    if isinstance(f[0], list):
        return [_add(u, v, c) for u, v in zip(f, g)]
    return [u + c * v for u, v in zip(f, g)]


@lru_cache(maxsize=None)
def _exp_weights(a: int, d: int, cap: int) -> Tuple[tuple, tuple]:
    """C(t,k) (ac)^k for t <= cap, c^2 = d, with (ac)^k = (a^2 d)^(k//2),
    times ac when k is odd.  even[t] holds k = 0, 2, ... (pairing with
    f(t), f(t-2), ...) and odd[t] k = 1, 3, ... with the factor c left to
    the caller."""
    r = a * a * d
    w = [[comb(t, k) * r ** (k // 2) * a ** (k % 2) for k in range(t + 1)] for t in range(cap + 1)]
    return tuple(row[0::2] for row in w), tuple(row[1::2] for row in w)


def _times_exp_line(
    f: List[int], g: Optional[List[int]], a: int, d: int, cap: int, real_only: bool = False
) -> Tuple[List[int], List[int]]:
    """(f + g c)(t) -> sum_s C(t,s) (ac)^(t-s) (f + g c)(s) along one line,
    c^2 = d: in EGF normalization, multiplication by exp(acx).  g is None
    for a real line; with real_only the c part is left empty."""
    even, odd = _exp_weights(a, d, cap)
    re, im = [], []
    for t in range(len(f)):
        e, o = even[t], odd[t]  # o is empty at t = 0, so the slices never wrap
        re.append(sum(map(mul, e, f[t::-2])))
        if g is not None:
            re[t] += d * sum(map(mul, o, g[t - 1 :: -2]))
        if not real_only:
            im.append(sum(map(mul, o, f[t - 1 :: -2])))
            if g is not None:
                im[t] += sum(map(mul, e, g[t::-2]))
    return re, im


def _times_exp_lines(
    re: Grid, im: Optional[Grid], a: int, d: int, cap: int, dims: int, real_only: bool
) -> Tuple[Grid, Grid]:
    """`_times_exp_line` on every line along the last axis; im is None for
    a real grid."""
    if dims == 1:
        return _times_exp_line(re, im, a, d, cap, real_only)
    lines = zip(re, im or [None] * len(re))
    if dims == 2:
        pairs = [_times_exp_line(f, g, a, d, cap, real_only) for f, g in lines]
    else:
        pairs = [_times_exp_lines(f, g, a, d, cap, dims - 1, real_only) for f, g in lines]
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


def _times_exp(
    grid: Grid, coeffs: Tuple[int, ...], d: int, real_only: bool = False
) -> Tuple[Grid, Optional[Grid]]:
    """The rational part and the c part of E(G exp(c sum_k a_k x_k)), c^2 = d,
    (a_k) = coeffs; with d = -1, E(G cos L) and E(G sin L).  The last axis is
    transformed first, then each other one as it is rotated into the last
    place; an axis whose coefficient is 0 is skipped.  With real_only the
    last pass computes the rational part only, and the c part is None."""
    dims, cap = len(coeffs), len(grid) - 1
    # step s transforms axis s - 1 (the last axis at s = 0), then rotates;
    # dims rotations restore the axes, and none is needed if only the last moves
    last = max((s for s in range(dims) if coeffs[s - 1]), default=0)
    re, im = grid, None
    for s in range(dims if last else 1):
        if coeffs[s - 1]:
            only = real_only and s == last
            re, im = _times_exp_lines(re, im, coeffs[s - 1], d, cap, dims, only)
            im = None if only else im
        if last:
            re, im = _rotate(re, dims), im and _rotate(im, dims)
    return re, im


def closed_form_sides(lhs: EGF, numerator: EGF, cap: int) -> Tuple[Grid, Grid]:
    """The grids [i][j][l], total degree <= cap, of E(lhs (1 + cos(sqrt2
    (x+y+z)))) and E(numerator); cos(sqrt2 S) is the rational part of
    exp(cS), c = sqrt(-2)."""
    grid = _dense(lhs, cap, 3)
    cos_part = _times_exp(grid, (1, 1, 1), -2, real_only=True)[0]
    return _add(grid, cos_part), _dense(numerator, cap, 3)


def triangle_series_failures(
    triangle: str, cap: int, matrices: Sequence[DeltaMatrix]
) -> List[str]:
    """The "lower" (Lambda) or "upper" (Omega) series over the integers to the
    cap: at the first monomial where the `closed_form_sides` differ, and where
    it changes under the axis swap that should fix it.  Empty if both hold."""
    if triangle not in ("lower", "upper"):
        raise ValueError(f'triangle must be "lower" or "upper", not {triangle!r}')
    lower = triangle == "lower"
    lhs = (lambda_egf if lower else omega_egf)(cap, matrices)  # as bound at call time
    numerator = (lambda_numerator_egf if lower else omega_numerator_egf)(cap)
    perm, swap = ((0, 2, 1), "y<->z") if lower else ((2, 1, 0), "x<->z")
    sides = closed_form_sides(lhs, numerator, cap)
    mono = first_difference(*sides)
    failures = []
    if mono is not None:
        values = [reduce(getitem, mono, side) for side in sides]
        failures.append(
            f"{triangle}-triangle series differs from its closed form (first at "
            "x^{} y^{} z^{}: series times denominator {}, numerator {})".format(*mono, *values)
        )
    mirror = permute_axes(lhs, perm)
    if mirror != lhs:
        at = min(m for m in {*lhs, *mirror} if lhs.get(m) != mirror.get(m))
        values = [lhs.get(at, 0), mirror.get(at, 0)]
        failures.append(
            f"{triangle}-triangle series not symmetric under {swap} "
            "(first at x^{} y^{} z^{}: {}, swapped {})".format(*at, *values)
        )
    return failures


# ---------------------------------------------------------------------------
# Reindexed infinite matrices (finite truncations)
# ---------------------------------------------------------------------------


def _reindexed(
    cap: int, matrices: Sequence[DeltaMatrix], lower: bool, ps: Iterable[int]
) -> Callable[[int, int, int], int]:
    """(p, i, j) -> lambda^(p)_{i,j} = E_Lambda(i, j, p-1) (lower) or
    omega^(p)_{i,j} = E_Omega(i, j, p) for p in ps, over degree <= cap."""
    shift = 1 if lower else 0
    egf = _triangle_egf(cap, matrices, lower, [p - shift for p in ps])
    return lambda p, i, j: egf.get((i, j, p - shift), 0)


def _reindex(p: int, size: int, cap: int, matrices: Sequence[DeltaMatrix], lower: bool) -> Rows:
    """The size x size corner of lambda^(p) (lower) or omega^(p), whose cell
    [size-1, size-1] has degree cap, the largest."""
    if p < 0 or size < 1:  # no matrix has p < 0; a 0 x 0 grid checks nothing
        raise ValueError(f"need p >= 0 and size >= 1, got p={p}, size={size}")
    entry = _reindexed(cap, matrices, lower, (p,))
    return tuple(tuple(entry(p, i, j) for j in range(size)) for i in range(size))


def reindex_lambda(p: int, size: int, matrices: Sequence[DeltaMatrix]) -> Rows:
    return _reindex(p, size, 2 * size + p - 3, matrices, True)


def reindex_omega(p: int, size: int, matrices: Sequence[DeltaMatrix]) -> Rows:
    return _reindex(p, size, 2 * size + p - 2, matrices, False)


def boundary_relations_check(
    p: int, size: int, matrices: Sequence[DeltaMatrix]
) -> List[str]:
    """Column/row transfer relations tying lambda^(p) and omega^(p) back to
    the p=1 matrices; returns human-readable failure strings (empty = pass).
    The lambda cells read have degree <= size+p-1, the omega ones size+p."""
    if p < 1 or size < 1:
        raise ValueError(f"transfer relations need p >= 1 and size >= 1, got p={p}, size={size}")
    lam = _reindexed(size + p - 1, matrices, True, (1, p))
    om = _reindexed(size + p, matrices, False, (1, p))
    failures = []
    for i in range(size):
        lhs, rhs = lam(p, i, 0), lam(1, i, p - 1)
        if lhs != rhs:
            failures.append(f"lambda^{p}[{i},0]={lhs} != lambda^1[{i},{p-1}]={rhs}")
        lhs, rhs = lam(p, i, 1), lam(1, i + 1, p - 1) + lam(1, i, p)
        if lhs != rhs:
            failures.append(
                f"lambda^{p}[{i},1]={lhs} != lambda^1[{i+1},{p-1}]+lambda^1[{i},{p}]={rhs}"
            )
    for j in range(size):
        lhs, rhs = om(p, 1, j), om(1, p, j)
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
    Returns failure descriptions; empty means all identities hold.  Column
    4 of lambda^(1) reaches degree cap+4, row 1 of omega^(4) cap+5.
    """
    failures: List[str] = []
    lam = _reindexed(cap + 4, matrices, True, range(1, 5))
    om = _reindexed(cap + 5, matrices, False, range(1, 5))
    grid1 = _bivariate_egf(partial(lam, 1), cap)
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
    omega1 = _bivariate_egf(partial(om, 1), cap)
    om_closed = sin_s2x * over_xy(cos2_x.scale(SQRT2))
    if om_closed != omega1:
        failures.append("omega^(1) closed form != omega^(1) grid series")

    # column composition for lambda^(p), row composition for omega^(p)
    sin_s2y_over = sin_s2y.scale(HALF_SQRT2)
    sin_s2x_over = sin_s2x.scale(HALF_SQRT2)

    lambda1_columns = [_bivariate_egf(lambda i, j: lam(1, i + j, q), cap) for q in range(5)]
    for p in range(1, 5):
        composed = lambda1_columns[p - 1] * cos_s2y + lambda1_columns[p] * sin_s2y_over
        if composed != _bivariate_egf(partial(lam, p), cap):
            failures.append(f"column composition fails for lambda^({p})")
        ocomposed = sin_s2x_over * _bivariate_egf(lambda i, j: om(p, 1, i + j), cap)
        if ocomposed != _bivariate_egf(partial(om, p), cap):
            failures.append(f"row composition fails for omega^({p})")
    return failures


# ---------------------------------------------------------------------------
# Integer path for the bivariate closed forms
# ---------------------------------------------------------------------------

def _scaled_grid(value: Callable[[int, int], int], shift: int, cap: int) -> Grid:
    """S(i,j) = 2^((i+j+shift)/2) value(i,j): the EGF of G(sqrt2 x, sqrt2 y)
    times 2^(shift/2).  The grids here are zero where i+j+shift is odd
    (every monomial of M_n has even total degree 2n-2), so S is an integer
    and those cells are not evaluated."""
    return _grid(
        lambda i, j: value(i, j) << (i + j + shift) // 2 if (i + j + shift) % 2 == 0 else 0, cap, 2
    )


def bivariate_closed_form_failures(cap: int, matrices: Sequence[DeltaMatrix]) -> List[str]:
    """The identities of `lambda1_closed_forms`, checked over the integers.

    Substituting x -> sqrt2 x, y -> sqrt2 y turns every trig factor into cos
    or sin of x+y, x-y, 2x, 2y or 2(x+y), whose EGF coefficients are
    integers.  Each grid g becomes S(i,j) = 2^((i+j+e)/2) g(i,j) with a shift
    e that makes it integral: 0 for lambda^(1), 1 for sqrt2 omega^(1), p+1
    for lambda^(p), p for omega^(p), q for column q of lambda^(1) and p-1
    for row 1 of omega^(p).  The denominators cos(x+y) and
    2cos^2(x+y) = 1 + cos(2(x+y)) are units, so each ratio is checked by
    cross-multiplication.  Every product has one factor cos or sin of a
    linear form, so it is `_times_exp` with c = i; the trig factors
    themselves are the unit grid so transformed.  Returns the same failure
    texts, each followed by the first differing monomial.
    """
    failures: List[str] = []
    lam = _reindexed(cap + 4, matrices, True, range(1, 5))
    om = _reindexed(cap + 5, matrices, False, range(1, 5))

    def check(lhs: Grid, rhs: Grid, identity: str) -> None:
        mono = first_difference(lhs, rhs)
        if mono is not None:
            failures.append(f"{identity} (first at x^{mono[0]} y^{mono[1]})")

    lam1 = _scaled_grid(partial(lam, 1), 0, cap)
    one = _dense({(0, 0): 1}, cap, 2)
    (cos_2x, sin_2x), (cos_2y, sin_2y) = _times_exp(one, (2, 0), -1), _times_exp(one, (0, 2), -1)
    cos_xmy = _times_exp(one, (1, -1), -1, real_only=True)[0]
    lam1_cos_2xy, lam1_sin_2xy = _times_exp(lam1, (2, 2), -1)

    # H cos(x+y) = cos(x-y);  H sin(2(x+y)) = sin 2x + sin 2y
    check(
        _times_exp(lam1, (1, 1), -1, real_only=True)[0],
        cos_xmy,
        "cos-ratio closed form != lambda^(1) grid series",
    )
    sin_sum = _add(sin_2x, sin_2y)
    check(lam1_sin_2xy, sin_sum, "sine-ratio closed form != lambda^(1) grid series")
    check(
        _times_exp(sin_sum, (1, 1), -1, real_only=True)[0],
        _times_exp(cos_xmy, (2, 2), -1)[1],
        "sine-ratio and cos-ratio closed forms disagree",
    )
    # H 2cos^2(x+y) = H (1 + cos 2(x+y)) = cos 2x + cos 2y
    check(
        _add(lam1, lam1_cos_2xy),
        _add(cos_2x, cos_2y),
        "cosine-sum closed form != lambda^(1) grid series",
    )
    axes = _grid(lambda i, j: lam1[i][j] if i * j == 0 else 0, cap, 2)
    check(axes, one, "lambda^(1)(x,0) or lambda^(1)(0,y) differs from 1")

    # K 2cos^2(x+y) = 2 sin 2x, K the grid of sqrt2 omega^(1)
    om1 = _scaled_grid(partial(om, 1), 1, cap)
    check(
        _add(om1, _times_exp(om1, (2, 2), -1, real_only=True)[0]),
        _add(sin_2x, sin_2x),
        "omega^(1) closed form != omega^(1) grid series",
    )

    # L_p = 2 C_(p-1) cos 2y + C_p sin 2y;  W_p = sin 2x R_p.  Each column
    # C_q times exp(2iy) serves compositions q and q+1.
    columns = [
        _times_exp(_scaled_grid(lambda i, j: lam(1, i + j, q), q, cap), (0, 2), -1)
        for q in range(5)
    ]
    for p in range(1, 5):
        composed = _add(columns[p][1], columns[p - 1][0], 2)
        lambda_p = _scaled_grid(partial(lam, p), p + 1, cap)
        check(composed, lambda_p, f"column composition fails for lambda^({p})")
        row1 = _scaled_grid(lambda i, j: om(p, 1, i + j), p - 1, cap)
        check(
            _times_exp(row1, (2, 0), -1)[1],
            _scaled_grid(partial(om, p), p, cap),
            f"row composition fails for omega^({p})",
        )
    return failures
