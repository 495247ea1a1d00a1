"""Exact arithmetic in the ring Q(sqrt(2)).

Every scalar is stored as a pair of rationals (a, b) denoting a + b*sqrt(2).
Because sqrt(2) is irrational, a + b*sqrt(2) = 0 iff a = b = 0, so equality
and zero-tests are exact.  fractions.Fraction keeps both components in lowest
terms with positive denominators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class RootTwoScalar:
    """An element a + b*sqrt(2) with exact rational components."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RootTwoScalar") -> "RootTwoScalar":
        return RootTwoScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RootTwoScalar") -> "RootTwoScalar":
        return RootTwoScalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RootTwoScalar":
        return RootTwoScalar(-self.a, -self.b)

    def __mul__(self, other: "RootTwoScalar") -> "RootTwoScalar":
        # (a + b√2)(c + d√2) = (ac + 2bd) + (ad + bc)√2
        return RootTwoScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "RootTwoScalar":
        """Multiplicative inverse; the norm a^2 - 2b^2 never vanishes for
        a nonzero element."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        norm = self.a * self.a - 2 * self.b * self.b
        return RootTwoScalar(self.a / norm, -self.b / norm)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootTwoScalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"RootTwoScalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.a}+{self.b}*sqrt2"


ZERO = RootTwoScalar(0, 0)
ONE = RootTwoScalar(1, 0)
SQRT2 = RootTwoScalar(0, 1)
HALF_SQRT2 = RootTwoScalar(0, Fraction(1, 2))  # 1/sqrt(2)
