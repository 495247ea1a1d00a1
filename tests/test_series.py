"""Truncated trivariate series: products, inverses, trig expansions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poupard.scalars import HALF_SQRT2, ONE, SQRT2, RootTwoScalar
from poupard.series import (
    CapMismatch,
    LinearForm,
    TriSeries,
    ZeroConstantTerm,
    dump_lines,
    of_linear_form,
    reciprocal,
    trig_series,
)

R0 = RootTwoScalar(0)
X = LinearForm(ONE, R0, R0)
S2X = LinearForm(SQRT2, R0, R0)
X_OVER_S2 = LinearForm(HALF_SQRT2, R0, R0)
XYZ_OVER_S2 = LinearForm(HALF_SQRT2, HALF_SQRT2, HALF_SQRT2)
S2_XYZ = LinearForm(SQRT2, SQRT2, SQRT2)


def poly(cap, **monos):
    """poly(5, x1=1, y2=-2) -> 1*x + (-2)*y^2 at cap 5."""
    coeffs = {}
    for key, val in monos.items():
        mono = [0, 0, 0]
        axis = {"c": None, "x": 0, "y": 1, "z": 2}[key[0]]
        if axis is not None:
            mono[axis] = int(key[1:]) if len(key) > 1 else 1
        coeffs[tuple(mono)] = RootTwoScalar(val)
    return TriSeries(cap, coeffs)


def test_product_of_binomials():
    one_plus = poly(4, c=1, x1=1)
    one_minus = poly(4, c=1, x1=-1)
    assert one_plus * one_minus == poly(4, c=1, x2=-1)


def test_pythagorean_identity():
    cap = 10
    s = trig_series("sin", S2X, cap)
    c = trig_series("cos", S2X, cap)
    assert s * s + c * c == TriSeries.constant(1, cap)


def test_half_angle_identity():
    # cos^2 of the scaled sum, expanded two independent ways
    cap = 8
    lhs = trig_series("cos", XYZ_OVER_S2, cap) * trig_series("cos", XYZ_OVER_S2, cap)
    rhs = (TriSeries.constant(1, cap) + trig_series("cos", S2_XYZ, cap)).scale(
        Fraction(1, 2)
    )
    assert lhs == rhs


def test_geometric_series():
    cap = 7
    inv = reciprocal(poly(cap, c=1, x1=-1))
    expected = TriSeries(cap, {(k, 0, 0): ONE for k in range(cap + 1)})
    assert inv == expected


def test_reciprocal_of_cos_squared_constant_term():
    cap = 6
    c = trig_series("cos", XYZ_OVER_S2, cap)
    inv = reciprocal((c * c).scale(2))
    assert inv.coefficient((0, 0, 0)) == RootTwoScalar(Fraction(1, 2))
    assert inv * (c * c).scale(2) == TriSeries.constant(1, cap)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ZeroConstantTerm):
        reciprocal(poly(4, x1=1, x2=1))


def test_cap_mismatch_rejected():
    with pytest.raises(CapMismatch):
        poly(3, c=1) * poly(4, c=1)


def test_trig_coefficients():
    cos = trig_series("cos", S2X, 6)
    assert cos.coefficient((2, 0, 0)) == RootTwoScalar(-1)  # -2/2!
    sin = trig_series("sin", S2X, 6)
    assert sin.coefficient((1, 0, 0)) == SQRT2
    # sqrt2*tan(x/sqrt2) has x^3 coefficient (T_3/2)/3! = 1/6
    tan_scaled = (
        trig_series("sin", X_OVER_S2, 9) * reciprocal(trig_series("cos", X_OVER_S2, 9))
    ).scale(SQRT2)
    assert tan_scaled.coefficient((3, 0, 0)) == RootTwoScalar(Fraction(1, 6))
    assert tan_scaled.coefficient((1, 0, 0)) == ONE


def test_of_linear_form_rejects_y_and_z_exponents():
    for bad in (poly(4, c=1, y1=1), poly(4, x2=1, z1=3), poly(4, x1=1, y3=-1)):
        with pytest.raises(ValueError, match="x alone"):
            of_linear_form(bad, XYZ_OVER_S2)


def test_of_linear_form_cap_zero_keeps_constant_term():
    u = TriSeries.constant(RootTwoScalar(3, -1), 0)
    assert of_linear_form(u, S2_XYZ) == u
    assert of_linear_form(TriSeries.zero(0), S2_XYZ) == TriSeries.zero(0)


def test_of_linear_form_substitutes_powers():
    # 1/(1 - x) at x = sqrt2*x + sqrt2*y + sqrt2*z is 1/(1 - L)
    cap = 5
    inv = reciprocal(poly(cap, c=1, x1=-1))
    expected = reciprocal(TriSeries.constant(1, cap) - of_linear_form(poly(cap, x1=1), S2_XYZ))
    assert of_linear_form(inv, S2_XYZ) == expected


ORACLE_FORMS = {
    "(x+y+z)/sqrt2": XYZ_OVER_S2,
    "(x-y)/sqrt2": LinearForm(HALF_SQRT2, -HALF_SQRT2, R0),
    "sqrt2(x+y)": LinearForm(SQRT2, SQRT2, R0),
    "(1+sqrt2)x-y/sqrt2+3z/2": LinearForm(
        RootTwoScalar(1, 1), RootTwoScalar(0, Fraction(-1, 2)), RootTwoScalar(Fraction(3, 2))
    ),
}


@pytest.mark.parametrize("cap", [0, 1, 8])
@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_trig_series_against_sympy(name, cap):
    sympy = pytest.importorskip("sympy")
    x, y, z, t = sympy.symbols("x y z t")

    def sym(c):
        return sympy.Rational(c.a.numerator, c.a.denominator) + sympy.Rational(
            c.b.numerator, c.b.denominator
        ) * sympy.sqrt(2)

    form = ORACLE_FORMS[name]
    arg = sum(sym(c) * v for c, v in zip(form.coefficients(), (x, y, z)))
    for kind, fn in (("cos", sympy.cos), ("sin", sympy.sin)):
        # the degree-d part of fn(L) is the t^d coefficient of fn(t L)
        taylor = sympy.series(fn(t * arg), t, 0, cap + 1).removeO().subs(t, 1)
        poly = sympy.Poly(sympy.expand(taylor), x, y, z)
        expected = {mono: c for mono, c in poly.terms() if c != 0}
        ours = trig_series(kind, form, cap)
        assert {mono for mono, _ in ours.monomials()} == set(expected), (kind, name)
        for mono, c in ours.monomials():
            assert sympy.expand(sym(c) - expected[mono]) == 0, (kind, name, mono)


small_scalars = st.builds(
    RootTwoScalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def small_series(draw, cap=4):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    coeffs = {}
    for _ in range(n_terms):
        i = draw(st.integers(min_value=0, max_value=cap))
        j = draw(st.integers(min_value=0, max_value=cap - i))
        k = draw(st.integers(min_value=0, max_value=cap - i - j))
        coeffs[(i, j, k)] = draw(small_scalars)
    return TriSeries(cap, coeffs)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_series_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * TriSeries.constant(1, a.cap) == a


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_reciprocal_is_inverse_for_units(a):
    unit = a + TriSeries.constant(RootTwoScalar(1, 1), a.cap)  # force a unit
    assert unit * reciprocal(unit) == TriSeries.constant(1, a.cap)


def test_dump_format():
    s = TriSeries(
        2,
        {
            (0, 0, 0): RootTwoScalar(1),
            (1, 0, 1): RootTwoScalar(Fraction(-1, 3), Fraction(1, 2)),
        },
    )
    assert dump_lines(s) == ["0 0 0 1/1 0/1", "1 0 1 -1/3 1/2"]
    assert dump_lines(TriSeries.zero(3)) == []
