"""Triangle rows, tangent numbers, and the Poupard-matrix predicate."""

from math import factorial

import pytest

from poupard.scalars import ONE, ZERO
from poupard.series import LinearForm, reciprocal, trig_series
from poupard.triangle import (
    Triangle,
    is_poupard_matrix,
    poupard_triangle,
    tangent_numbers,
)

# Frozen from an independent symbolic expansion of tan (see
# test_tangent_against_sympy, which recomputes them from scratch).
TANGENT_ORACLE = [1, 2, 16, 272, 7936, 353792, 22368256]

TABLE_ROWS = [
    [1],
    [0, 1, 0],
    [0, 1, 2, 1, 0],
    [0, 4, 8, 10, 8, 4, 0],
    [0, 34, 68, 94, 104, 94, 68, 34, 0],
]


def test_first_rows_match_table():
    tri = poupard_triangle(4)
    for n, row in enumerate(TABLE_ROWS):
        assert list(tri.row(n)) == row


def test_row_properties_through_n8():
    tri = poupard_triangle(8)
    for n in range(1, 9):
        row = tri.row(n)
        assert row[0] == 0 and row[-1] == 0
        # palindromic rows
        assert list(row) == list(reversed(row))
        # second difference against the previous row
        for m in range(1, 2 * n):
            d2 = tri.value(n, m + 2) - 2 * tri.value(n, m + 1) + tri.value(n, m)
            assert d2 + 2 * tri.value(n - 1, m) == 0
        if n < len(TANGENT_ORACLE):
            assert sum(row) == TANGENT_ORACLE[n] // 2**n


@pytest.mark.parametrize("n", [-3, -1, 3])
def test_rows_outside_0_to_n_max_are_not_computed(n):
    tri = poupard_triangle(2)
    for read in (tri.row, lambda n: tri.value(n, 1)):
        with pytest.raises(IndexError, match=f"^row {n} not computed$"):
            read(n)


def test_row5_sum():
    assert sum(poupard_triangle(5).row(5)) == 11056


def test_tangent_numbers_frozen():
    assert tangent_numbers(7) == TANGENT_ORACLE
    assert tangent_numbers(1) == [1]


def test_tangent_against_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    series = sympy.series(sympy.tan(u), u, 0, 16).removeO()
    expected = [
        int(series.coeff(u, k) * sympy.factorial(k)) for k in range(1, 16, 2)
    ]
    assert tangent_numbers(8) == expected


def test_tangent_against_series_division():
    # tan = sin / cos as exact univariate series, independent of the triangle
    count = 10
    cap = 2 * count - 1
    u = LinearForm(ONE, ZERO, ZERO)
    tan = trig_series("sin", u, cap) * reciprocal(trig_series("cos", u, cap))
    assert tan.is_rational()
    expected = [tan.coefficient((k, 0, 0)).a * factorial(k) for k in range(1, cap + 1, 2)]
    assert all(t.denominator == 1 for t in expected)
    assert tangent_numbers(count) == expected


def test_tangent_power_of_two_divisibility():
    ts = tangent_numbers(8)
    for idx, t in enumerate(ts):
        assert t % 2**idx == 0


def test_is_poupard_matrix():
    # a reindexed lower-triangle grid (known to satisfy the rule)
    grid = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 4, 0],
        [0, 0, 2, 0, 8, 0, 68],
        [0, 1, 0, 10, 0, 94, 0],
        [0, 0, 8, 0, 104, 0, 1712],
        [0, 4, 0, 94, 0, 1816, 0],
        [0, 0, 68, 0, 1712, 0, 47312],
    ]
    assert is_poupard_matrix(grid).ok
    zero = [[0] * 5 for _ in range(5)]
    assert is_poupard_matrix(zero).ok
    grid[2][2] += 1
    res = is_poupard_matrix(grid)
    assert not res.ok
    i, j = res.violation
    # the violated four-term rule must touch the perturbed cell (2,2)
    assert (i, j) in {(2, 0), (1, 1), (0, 2), (2, 2)}


def test_triangle_json_roundtrip():
    tri = poupard_triangle(3)
    again = Triangle.from_json(tri.to_json())
    assert again == tri


@pytest.mark.parametrize(
    "text",
    [
        '{"rows": [[1.9], [true, 1, 0]]}',
        '{"rows": [[1], [0, 1, "0"]]}',
        '{"rows": [[1], [0, 1, false]]}',
        '{"rows": [1, [0, 1, 0]]}',
        '{"rows": {"0": [1]}}',
        '{"row": [[1]]}',
        "[[1], [0, 1, 0]]",
        "not json",
        '{"rows": [[1], [0, 1], [5]]}',
    ],
)
def test_triangle_from_json_rejects_inexact(text):
    with pytest.raises(ValueError):
        Triangle.from_json(text)


def test_bfile_lines():
    tri = poupard_triangle(1)
    assert tri.bfile_lines() == ["1 1", "2 0", "3 1", "4 0"]
