"""Trivariate formal power series over Q(sqrt 2), truncated by total degree.

A TriSeries maps exponent triples (i, j, k), with i+j+k <= cap, to raw
RootTwoScalar coefficients (the number multiplying x^i y^j z^k).  Arithmetic
is exact; the only approximation anywhere is the total-degree truncation.
Bivariate and univariate series are the same type with unused exponents
pinned to zero.

`of_linear_form(u, L)` substitutes a linear form L = ax+by+cz into a series
u in x alone, stepping through the powers of L with the series product.
Every function of one linear form is built that way: cos/sin of L
(`trig_series`), and the closed forms' denominators, which are squared and
inverted in x alone before L is substituted once.  No other composition is
needed: every closed form in scope has linear arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, NamedTuple, Tuple

from .scalars import ZERO, RootTwoScalar

Monomial = Tuple[int, int, int]


class CapMismatch(ValueError):
    """Raised when combining series with different truncation caps."""


class ZeroConstantTerm(ValueError):
    """Raised when inverting a series whose constant term is not a unit."""


class LinearForm(NamedTuple):
    """A linear form alpha*x + beta*y + gamma*z with Q(sqrt 2) coefficients."""

    alpha: RootTwoScalar
    beta: RootTwoScalar
    gamma: RootTwoScalar

    def coefficients(self) -> Tuple[RootTwoScalar, RootTwoScalar, RootTwoScalar]:
        return (self.alpha, self.beta, self.gamma)


class TriSeries:
    """Truncated trivariate power series with RootTwoScalar coefficients."""

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap: int, coeffs: Dict[Monomial, RootTwoScalar] | None = None):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.cap = cap
        self.coeffs: Dict[Monomial, RootTwoScalar] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if sum(mono) > cap:
                    raise ValueError(f"monomial {mono} exceeds cap {cap}")
                if not c.is_zero():
                    self.coeffs[mono] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value: RootTwoScalar | int | Fraction, cap: int) -> "TriSeries":
        if not isinstance(value, RootTwoScalar):
            value = RootTwoScalar(value)
        return TriSeries(cap, {(0, 0, 0): value})

    @staticmethod
    def zero(cap: int) -> "TriSeries":
        return TriSeries(cap)

    # -- accessors ------------------------------------------------------

    def coefficient(self, mono: Monomial) -> RootTwoScalar:
        return self.coeffs.get(mono, ZERO)

    def monomials(self) -> Iterable[Tuple[Monomial, RootTwoScalar]]:
        return self.coeffs.items()

    def is_rational(self) -> bool:
        """True iff every sqrt(2)-part vanishes."""
        return all(c.is_rational() for c in self.coeffs.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.cap == other.cap and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("TriSeries is unhashable")

    def __repr__(self) -> str:
        return f"TriSeries(cap={self.cap}, {len(self.coeffs)} terms)"

    # -- arithmetic -------------------------------------------------------

    def _check_cap(self, other: "TriSeries") -> None:
        if self.cap != other.cap:
            raise CapMismatch(f"cap {self.cap} != cap {other.cap}")

    def __add__(self, other: "TriSeries") -> "TriSeries":
        self._check_cap(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return TriSeries(self.cap, out)

    def __neg__(self) -> "TriSeries":
        return TriSeries(self.cap, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        return self + (-other)

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        self._check_cap(other)
        cap = self.cap
        out: Dict[Monomial, RootTwoScalar] = {}
        for (i1, j1, k1), c1 in self.coeffs.items():
            d1 = i1 + j1 + k1
            for (i2, j2, k2), c2 in other.coeffs.items():
                if d1 + i2 + j2 + k2 > cap:
                    continue
                mono = (i1 + i2, j1 + j2, k1 + k2)
                prod = c1 * c2
                s = out.get(mono)
                out[mono] = prod if s is None else s + prod
        return TriSeries(cap, out)

    def scale(self, value: RootTwoScalar | int | Fraction) -> "TriSeries":
        if not isinstance(value, RootTwoScalar):
            value = RootTwoScalar(value)
        return TriSeries(self.cap, {m: c * value for m, c in self.coeffs.items()})


def reciprocal(a: TriSeries) -> TriSeries:
    """Multiplicative inverse up to the cap.

    Solves r*a = 1 coefficient by coefficient in graded order; requires the
    constant term of `a` to be a unit of Q(sqrt 2), i.e. nonzero.
    """
    c0 = a.coefficient((0, 0, 0))
    if c0.is_zero():
        raise ZeroConstantTerm("series has zero constant term")
    inv0 = c0.inverse()
    cap = a.cap
    rest = [(m, c) for m, c in a.coeffs.items() if m != (0, 0, 0)]
    out: Dict[Monomial, RootTwoScalar] = {(0, 0, 0): inv0}
    for total in range(1, cap + 1):
        for i in range(total, -1, -1):
            for j in range(total - i, -1, -1):
                mono = (i, j, total - i - j)
                # coefficient of `mono` in r*a must vanish:
                # c0*r[mono] + sum_{0<f<=mono} a[f]*r[mono-f] = 0
                acc = ZERO
                for (fi, fj, fk), af in rest:
                    ri, rj, rk = mono[0] - fi, mono[1] - fj, mono[2] - fk
                    if ri < 0 or rj < 0 or rk < 0:
                        continue
                    r = out.get((ri, rj, rk))
                    if r is not None:
                        acc = acc + af * r
                if not acc.is_zero():
                    out[mono] = -(inv0 * acc)
    return TriSeries(cap, out)


def of_linear_form(u: TriSeries, form: LinearForm) -> TriSeries:
    """u(L) = sum u_s L^s for a series u in x alone and a linear form L."""
    if any(j or k for _, j, k in u.coeffs):
        raise ValueError("of_linear_form needs a series in x alone")
    cap = u.cap
    total = TriSeries.constant(u.coefficient((0, 0, 0)), cap)
    if cap == 0:
        return total  # L itself is truncated away
    lin = TriSeries(cap, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), form.coefficients())))
    power = lin
    for s in range(1, cap + 1):
        c = u.coefficient((s, 0, 0))
        if c:
            total = total + power.scale(c)
        if s < cap:
            power = power * lin
    return total


def trig_in_x(kind: str, cap: int) -> TriSeries:
    """cos(x) or sin(x) as a series in x alone: (-1)^floor(s/2) x^s / s!
    over even (cos) or odd (sin) s <= cap."""
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', not {kind!r}")
    return TriSeries(
        cap,
        {
            (s, 0, 0): RootTwoScalar(Fraction((-1) ** (s // 2), factorial(s)))
            for s in range(kind == "sin", cap + 1, 2)
        },
    )


def trig_series(kind: str, form: LinearForm, cap: int) -> TriSeries:
    """Exact Taylor expansion of cos(L) or sin(L) for a linear form L."""
    return of_linear_form(trig_in_x(kind, cap), form)


def dump_lines(series: TriSeries) -> list[str]:
    """Golden-test dump: one `i j k a_num/a_den b_num/b_den` line per nonzero
    monomial, sorted by (i+j+k, i, j)."""
    lines = []
    for (i, j, k), c in sorted(
        series.monomials(), key=lambda item: (sum(item[0]), item[0][0], item[0][1])
    ):
        lines.append(
            f"{i} {j} {k} "
            f"{c.a.numerator}/{c.a.denominator} "
            f"{c.b.numerator}/{c.b.denominator}"
        )
    return lines
