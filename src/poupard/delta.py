"""Bivariate difference-equation matrices M_n and their nine constructions.

Each M_n is a (2n)x(2n) nonnegative integer matrix f_n(m, k) (1-based, zero
diagonal, zero outside the grid) determined from M_{n-1} by recurrences

  R1:  f_n(m+2,k) - 2 f_n(m+1,k) + f_n(m,k)   + 2 f_{n-1}(m,k)   = 0  on L1
  R2:  f_n(m,k+2) - 2 f_n(m,k+1) + f_n(m,k)   + 2 f_{n-1}(m,k)   = 0  on U1
  R3:  f_n(m+2,k) - 2 f_n(m+1,k) + f_n(m,k)   + 2 f_{n-1}(m,k-2) = 0  on U2
  R4:  f_n(m,k+2) - 2 f_n(m,k+1) + f_n(m,k)   + 2 f_{n-1}(m-2,k) = 0  on L2

over the four index triangles

  L1 = {2 <= k+1 <= m <= 2n-2}      L2 = {4 <= k+3 <= m <= 2n}
  U1 = {2 <= m+1 <= k <= 2n-2}      U2 = {4 <= m+3 <= k <= 2n}

plus boundary data taken from the marginals of M_{n-1} (conditions I1-I4 on
the outermost rows/columns, or just the 2x2 SW / NE corners).  Nine catalog
strategies combine these; all are solved by one generic propagation engine.
It runs in rounds over int bitmasks of the flat grid: a round derives at once
the lone unknown cell of every instance whose other two cells are known, z
before y before x per recurrence (level-synchronous, bit-parallel
propagation).  It flags under-determination (Unresolved) and contradictions
(Inconsistent) instead of trusting any particular fill order.  Which cells
propagation reaches depends on no value, so `certifies` tells without
solving whether a system has a given matrix as its one solution: the matrix
satisfies every instance, and the closure of the known cells under the
recurrences (`_closure`) is the whole grid.  Each pass of the closure fills
whole runs of instances, by doubling, so a catalog system closes in two.
`build_matrix` takes D1's M_n for D2-D9 that way when D1's chain holds it,
and solves their own systems otherwise.  A chain walks up from the largest
matrix it keeps below the one asked for; it keeps M_1..M_CHAIN_KEEP and,
past that, the last two matrices it built.

The instances are written once, in `_REGIONS` and `_RECURRENCES`: each
recurrence is a step, a prev offset and its region, one run of anchors per
row (`_region_runs`), which `_anchor_mask` and `region_cells` read as a
bitmask of the flat grid.  The solver visits instances bit by bit; the
checks of a whole matrix (the certificate, the oracle `recurrence_failure`
and the census identity's `recurrence_residuals`) read them a row run at a
time, as list slices (`_matrix_residuals`), and never propagate.  The
boundary conditions are written once, in `_CONDITIONS`: each fixes a
segment on each of two adjacent rows or columns, with values from the
marginals of M_{n-1}.  The solver reads them as known cells (`_known_for`);
a chain's certificate compares them with whole slices of the candidate and
reads their cells as row runs and column strides (`_certifies_own`), and
builds the known cells only when it fails and the solver runs.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from operator import add, is_not, sub
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

Cell = Tuple[int, int]


class Unresolved(ValueError):
    """Constraint propagation reached a fixpoint with unknown cells left."""

    def __init__(self, n: int, cells: Sequence[Cell]):
        self.n = n
        self.cells = tuple(sorted(cells))
        super().__init__(f"M_{n}: {len(self.cells)} cells undetermined, e.g. {self.cells[:4]}")


class Inconsistent(ValueError):
    """Two derivations disagree, or a fully known instance is violated."""

    def __init__(self, n: int, detail: str):
        self.n = n
        super().__init__(f"M_{n}: {detail}")


def first_difference(f: Sequence, g: Sequence) -> Optional[Tuple[int, ...]]:
    """First index path (i, j, ...), lexicographic, where two grids of nested
    lists or tuples differ, or None if they are equal.  A length mismatch at
    any depth is a difference, at the index where the shorter one ends."""
    if f is g:  # a strategy's matrix is most often D1's own
        return None
    for i, (u, v) in enumerate(zip(f, g)):
        if u != v:
            nested = isinstance(u, (list, tuple)) and isinstance(v, (list, tuple))
            at = first_difference(u, v) if nested else ()
            if at is not None:  # None: a list and a tuple of equal entries
                return (i, *at)
    return None if len(f) == len(g) else (min(len(f), len(g)),)


class DeltaMatrix(NamedTuple):
    """(2n)x(2n) big-integer grid; rows[m-1][k-1] = f_n(m, k)."""

    n: int
    rows: Tuple[Tuple[int, ...], ...]

    def value(self, m: int, k: int) -> int:
        """f_n(m,k) with the zero convention outside [1,2n]^2."""
        if 1 <= m <= 2 * self.n and 1 <= k <= 2 * self.n:
            return self.rows[m - 1][k - 1]
        return 0

    def row_sum(self, m: int) -> int:
        return sum(self.rows[m - 1]) if 1 <= m <= 2 * self.n else 0

    def col_sum(self, k: int) -> int:
        if not 1 <= k <= 2 * self.n:
            return 0
        return sum(row[k - 1] for row in self.rows)

    def row_sums(self) -> Tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)

    def col_sums(self) -> Tuple[int, ...]:
        return tuple(map(sum, zip(*self.rows)))

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def first_difference(self, other: "DeltaMatrix") -> Optional[tuple]:
        """(m, k, f_n(m,k), other's f(m,k)) at the first cell, in (m, k)
        order, where the grids differ, or None if they are equal; a cell off
        either grid reads None there."""
        at = first_difference(self.rows, other.rows)
        if at is None:
            return None
        m, k = at[0], at[1] if len(at) > 1 else 0
        grids = (self.rows, other.rows)
        return m + 1, k + 1, *(g[m][k] if m < len(g) and k < len(g[m]) else None for g in grids)

    # -- interchange formats -------------------------------------------

    def to_json(self) -> str:
        return "".join(self.json_parts())

    def json_parts(self) -> Iterator[str]:
        """The text of `to_json` in pieces, one row at a time: a writer of a
        large matrix need not hold its whole text."""
        yield f'{{"n":{self.n},"rows":['
        for i, row in enumerate(self.rows):
            yield ("," if i else "") + json.dumps(row, separators=(",", ":"))
        yield "]}"

    @staticmethod
    def from_json(text: str) -> "DeltaMatrix":
        data = json.loads(text)
        if not isinstance(data, dict) or not {"n", "rows"} <= data.keys():
            raise ValueError('expected a JSON object with keys "n" and "rows"')
        n, rows = data["n"], data["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError('"rows" must be a list of lists')
        # exact entries only: no floats, strings or booleans to coerce
        if any(type(v) is not int for v in [n, *(v for r in rows for v in r)]):
            raise ValueError('"n" and every entry must be JSON integers')
        return DeltaMatrix._checked(n, tuple(tuple(r) for r in rows))

    def to_csv(self) -> str:
        return "\n".join(self.csv_lines())

    def csv_lines(self) -> Iterator[str]:
        """The lines of `to_csv`, one row each, without their newlines."""
        return (",".join(map(str, row)) for row in self.rows)

    @staticmethod
    def from_csv(text: str) -> "DeltaMatrix":
        """Parse `to_csv` text: 2n rows fix n, and any grid that is not
        (2n)x(2n) is rejected."""
        cells = [line.split(",") for line in text.strip().splitlines()]
        # plain ASCII decimals only: int() would also read 1_0, +1 and ١
        bad = [v for row in cells for v in row if not re.fullmatch(r"-?[0-9]+", v.strip())]
        if bad:
            raise ValueError(f"not an integer cell: {bad[0]!r}")
        rows = tuple(tuple(int(v) for v in row) for row in cells)
        return DeltaMatrix._checked(len(rows) // 2, rows)

    @staticmethod
    def _checked(n: int, rows: Tuple[Tuple[int, ...], ...]) -> "DeltaMatrix":
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(rows) != 2 * n or any(len(r) != 2 * n for r in rows):
            raise ValueError(f"expected a {2*n}x{2*n} grid")
        return DeltaMatrix(n, rows)

    def pretty(self) -> str:
        return "\n".join(self.pretty_lines())

    def pretty_lines(self) -> Iterator[str]:
        """The lines of `pretty`, one row each, without their newlines: every
        entry right-aligned to the longest, which is the smallest or the
        largest entry, so no entry is turned into text twice."""
        lo, hi = min(map(min, self.rows)), max(map(max, self.rows))
        width = max(len(str(lo)), len(str(hi)))
        return (" ".join(str(v).rjust(width) for v in row) for row in self.rows)


# ---------------------------------------------------------------------------
# Regions and recurrence instances
# ---------------------------------------------------------------------------

#: region tag -> (below the diagonal?, gap d, top offset t): a lower region is
#: {1 <= k, k+d <= m <= 2n+t}, an upper one {1 <= m, m+d <= k <= 2n+t}
_REGIONS: Dict[str, Tuple[bool, int, int]] = {
    "L1": (True, 1, -2),
    "L2": (True, 3, 0),
    "U1": (False, 1, -2),
    "U2": (False, 3, 0),
}


def _region(tag: str) -> Tuple[bool, int, int]:
    if tag not in _REGIONS:
        raise ValueError(f"unknown region {tag!r}")
    return _REGIONS[tag]


def in_region(tag: str, n: int, m: int, k: int) -> bool:
    lower, d, t = _region(tag)
    if not lower:
        m, k = k, m
    return 1 <= k and k + d <= m <= 2 * n + t


def _region_runs(tag: str, n: int) -> Iterator[Tuple[int, int]]:
    """Each row of one region of the 2n x 2n grid, flattened as
    (m-1)*2n + k-1, as one run a0..a1-1 of flat indices, k from kl to kr."""
    lower, d, t = _region(tag)
    w, top = 2 * n, 2 * n + t
    for m in range(1, top + 1):
        kl, kr = (1, m - d) if lower else (m + d, top)
        if kl <= kr:
            yield (m - 1) * w + kl - 1, (m - 1) * w + kr


def _region_mask(tag: str, n: int) -> int:
    """One region as a bitmask of the flat grid, bit (m-1)*2n + k-1 set for
    each of its cells (m, k): one run of ones per row."""
    mask = 0
    for a0, a1 in _region_runs(tag, n):
        mask |= ((1 << (a1 - a0)) - 1) << a0
    return mask


def region_cells(tag: str, n: int) -> Tuple[Cell, ...]:
    """The cells of one region in (m, k) order."""
    return _cells(n, *_bits(_region_mask(tag, n)))


#: recurrence tag -> (anchor region, vertical?, prev-matrix index shift)
_RECURRENCES: Dict[str, Tuple[str, bool, Tuple[int, int]]] = {
    "R1": ("L1", True, (0, 0)),
    "R2": ("U1", False, (0, 0)),
    "R3": ("U2", True, (0, -2)),
    "R4": ("L2", False, (-2, 0)),
}


@lru_cache(maxsize=None)
def _anchor_mask(n: int, tag: str) -> Tuple[str, int, int, int]:
    """(tag, step, prev offset, anchors) of one recurrence.

    On the 2n x 2n grid flattened as (m-1)*2n + k-1, the instance of a
    recurrence at anchor a reads the cells a, a+step, a+2*step and, for the
    constant 2 f_{n-1}, the cell a+offset of `_prev_grid`; the regions keep
    all four on the grid.
    The anchors are the bitmask of the recurrence's region.
    """
    if tag not in _RECURRENCES:
        raise ValueError(f"unknown recurrence {tag!r}")
    region, vertical, (dm, dk) = _RECURRENCES[tag]
    w = 2 * n
    return tag, w if vertical else 1, dm * w + dk, _region_mask(region, n)


def _table(n: int, tags) -> List[Tuple[str, int, int, int]]:
    """The `_anchor_mask` of each recurrence in tags, in tag order."""
    return [_anchor_mask(n, tag) for tag in sorted(frozenset(tags))]


def _bits(mask: int) -> List[int]:
    """The indices of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1] if mask else ""  # bit i at index i; most masks are 0
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _prev_grid(n: int, prev: Optional[DeltaMatrix]) -> List[int]:
    """f_{n-1} flattened onto the 2n x 2n grid, zero-padded (0 without prev).
    It holds prev's own ints, no doubled copies: an instance with p there
    reads its residual x - 2y + z + 2p as x + z - 2 (y - p)."""
    if prev is not None and prev.n != n - 1:
        raise ValueError(f"prev must be M_{n-1}, got M_{prev.n}")
    w = 2 * n
    grid = [0] * (w * w)
    if prev is not None:
        for i, row in enumerate(prev.rows):
            grid[i * w : i * w + w - 2] = row
    return grid


def _residuals(
    table, vals: Sequence[Optional[int]], pv: Sequence[int]
) -> Iterator[Tuple[str, int, int, int]]:
    """(tag, anchor, step, x - 2y + z + 2 f_{n-1}) for every instance of
    table whose three cells are known, in (tag, anchor) order."""
    for tag, s, off, anchors in table:
        for a in _bits(anchors):
            x, y, z = vals[a], vals[a + s], vals[a + 2 * s]
            if x is not None and y is not None and z is not None:
                yield tag, a, s, x + z - 2 * (y - pv[a + off])


def _cells(n: int, *flat: int) -> Tuple[Cell, ...]:
    """The (m, k) cells at flat indices of the 2n x 2n grid."""
    w = 2 * n
    return tuple((i // w + 1, i % w + 1) for i in flat)


def _matrix_residuals(
    mat: DeltaMatrix, prev: Optional[DeltaMatrix]
) -> Iterator[Tuple[str, int, int, List[int], List[int]]]:
    """Every R1-R4 instance of M_n = mat against prev, one row of its region
    at a time, in (tag, anchor) order: (tag, step, a0, lhs, rhs), where the
    instance at anchor a0 + i has x + z = lhs[i] and 2 (y - f_{n-1}) = rhs[i].
    A row's anchors are one run, so are its x, y, z and f_{n-1}."""
    n = mat.n
    vals = [v for row in mat.rows for v in row]
    pv = _prev_grid(n, prev)
    for tag, s, off, _anchors in _table(n, _RECURRENCES):
        for a0, a1 in _region_runs(_RECURRENCES[tag][0], n):
            xz = list(map(add, vals[a0:a1], vals[a0 + 2 * s : a1 + 2 * s]))
            yp = list(map(sub, vals[a0 + s : a1 + s], pv[a0 + off : a1 + off]))
            yield tag, s, a0, xz, list(map(add, yp, yp))


def _instances(runs) -> Iterator[Tuple[str, int, int, int]]:
    """(tag, anchor, step, x - 2y + z + 2 f_{n-1}) for each instance of the
    `_matrix_residuals` runs."""
    for tag, s, a0, lhs, rhs in runs:
        for a, r in enumerate(map(sub, lhs, rhs), a0):
            yield tag, a, s, r


def _residual_failure(n: int, residuals) -> Optional[str]:
    for tag, a, s, r in residuals:
        if r != 0:
            return f"{tag} instance at cells {_cells(n, a, a + s, a + 2 * s)} has residual {r}"
    return None


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------

#: condition -> (rows?, lines, first, values): the condition fixes, on each of
#: two adjacent rows (or columns) of M_n, a segment from cell `first` on, and
#: values(rs, cs) gives the two segments' values from the row sums rs[m-1] =
#: f_{n-1}(m, .) and column sums cs[k-1] = f_{n-1}(., k) of M_{n-1}, m, k in
#: 1..2n-2.  A line or first cell i <= 0 stands for 2n + i.
_CONDITIONS: Dict[str, Tuple[bool, Tuple[int, int], int, Callable[..., Tuple[tuple, tuple]]]] = {
    "I1": (False, (0, -1), 1, lambda rs, cs: ((0,) * (len(rs) + 2), (*rs, 0, 0))),
    "I2": (True, (0, -1), 1, lambda rs, cs: ((*rs, 0, 0), (*map(add, rs, cs), 0, 0))),
    "I3": (True, (1, 2), 1, lambda rs, cs: ((0,) * (len(rs) + 2), (0, *rs, 0))),
    "I4": (False, (1, 2), 1, lambda rs, cs: ((0, *rs, 0), (0, 0, *map(add, rs[1:], rs), rs[-1]))),
    "SW": (False, (1, 2), -1, lambda rs, cs: ((cs[0], 0), (rs[1] + cs[1], cs[0]))),
    "NE": (False, (-1, 0), 1, lambda rs, cs: ((0, rs[1]), (0, 0))),
}

#: a segment (rows?, line, first, values): f_n(line, first + i) = values[i],
#: or f_n(first + i, line) for a column
Segment = Tuple[bool, int, int, Tuple[int, ...]]


def _segments(tag: str, n: int, rs: Tuple[int, ...], cs: Tuple[int, ...]) -> Tuple[Segment, ...]:
    """The two segments of M_n that one boundary condition fixes, given the
    marginals rs, cs of M_{n-1}."""
    if tag not in _CONDITIONS:
        raise ValueError(f"unknown boundary condition {tag!r}")
    rows, lines, first, values = _CONDITIONS[tag]

    def at(i: int) -> int:
        return i if i > 0 else 2 * n + i

    return tuple((rows, at(line), at(first), v) for line, v in zip(lines, values(rs, cs)))


def _segment_cells(
    rows: bool, line: int, first: int, values: Tuple[int, ...]
) -> Iterator[Tuple[Cell, int]]:
    """(cell, value) along one segment, from its first cell on."""
    for i, v in enumerate(values, first):
        yield ((line, i) if rows else (i, line)), v


class BuildStrategy(NamedTuple):
    tag: str
    recurrences: FrozenSet[str]
    boundary: FrozenSet[str]


def _strategy(tag: str, recs: str, bounds: str) -> BuildStrategy:
    return BuildStrategy(tag, frozenset(recs.split()), frozenset(bounds.split()))


#: The nine equivalent construction schemes.  D5's corner condition needs the
#: first two rows alongside it (the upper triangle is otherwise untouched by
#: R1/R3/R4 and the corner alone pins too few cells).
STRATEGIES: Dict[str, BuildStrategy] = {
    s.tag: s
    for s in (
        _strategy("D1", "R1 R2", "I1 I2"),
        _strategy("D2", "R3 R4", "I3 I4"),
        _strategy("D3", "R1 R3", "I2 I3"),
        _strategy("D4", "R2 R4", "I1 I4"),
        _strategy("D5", "R1 R3 R4", "SW I3"),
        _strategy("D6", "R1 R2 R4", "SW I1"),
        _strategy("D7", "R1 R2 R3", "NE I2"),
        _strategy("D8", "R2 R3 R4", "NE I4"),
        _strategy("D9", "R1 R2 R3 R4", "SW NE"),
    )
}

M1 = DeltaMatrix(1, ((0, 0), (1, 0)))


# ---------------------------------------------------------------------------
# Generic propagation solver
# ---------------------------------------------------------------------------


def _known_grid(n: int, known: Mapping[Cell, int]) -> Tuple[List[Optional[int]], int]:
    """The 2n x 2n grid flattened, vals[(m-1)*2n + k-1] = f_n(m, k), with the
    known cells set and None elsewhere, and the mask of the known cells;
    ValueError for a cell off the grid or a value that is not an int."""
    w = 2 * n
    vals: List[Optional[int]] = [None] * (w * w)
    known_bits = 0  # bit i set when vals[i] is known
    for cell, v in known.items():
        m, k = cell
        if not (1 <= m <= w and 1 <= k <= w):
            raise ValueError(f"known cell {cell} outside the {w}x{w} grid")
        if type(v) is not int:  # exact arithmetic: no float, Fraction or bool
            raise ValueError(f"known value at {cell} must be an int, got {v!r}")
        i = (m - 1) * w + k - 1
        vals[i] = v
        known_bits |= 1 << i
    return vals, known_bits


def solve_constraints(
    n: int,
    known: Mapping[Cell, int],
    recurrences: FrozenSet[str] | Sequence[str],
    prev: Optional[DeltaMatrix],
) -> DeltaMatrix:
    """Determine M_n from known-cell assignments plus recurrence instances.

    `known` maps cells (m, k) to int values.  `prev` is M_{n-1}, or None
    for the bare second differences.  Propagation runs in rounds over
    bitmasks of the flat grid: each round takes, per recurrence in tag
    order, the instances missing only z, then only y, then only x, and
    derives each such cell from cells known before the round, unless an
    earlier instance derived it this round.  It stops after a round that
    derives nothing.  A final sweep checks every fully known instance that
    derived no cell, so Inconsistent (a nonzero residual or an odd middle
    value) takes precedence over Unresolved (cells left unknown).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pv = _prev_grid(n, prev)
    w = 2 * n
    vals, known_bits = _known_grid(n, known)

    table = _table(n, recurrences)
    derived = [0] * len(table)  # the instances that derived their lone cell
    # instance (a, a+s, a+2s) is bit a of its anchor mask; k0, k1, k2 mark
    # the instances whose x, y, z were known before the round
    while True:
        new = 0  # the cells derived this round
        for r, (tag, s, off, anchors) in enumerate(table):
            k0 = known_bits & anchors
            k1 = (known_bits >> s) & anchors
            k2 = (known_bits >> 2 * s) & anchors
            lone_z = k0 & k1 & ~k2 & ~(new >> 2 * s)
            for a in _bits(lone_z):
                vals[a + 2 * s] = 2 * (vals[a + s] - pv[a + off]) - vals[a]
            new |= lone_z << 2 * s
            lone_y = k0 & k2 & ~k1 & ~(new >> s)
            for a in _bits(lone_y):
                # 2 (y - p) = x + z; the division must be exact
                num = vals[a] + vals[a + 2 * s]
                if num % 2 != 0:
                    cells = _cells(n, a, a + s, a + 2 * s)
                    raise Inconsistent(n, f"odd middle value in {tag} at {cells}")
                vals[a + s] = num // 2 + pv[a + off]
            new |= lone_y << s
            lone_x = k1 & k2 & ~k0 & ~new
            for a in _bits(lone_x):
                vals[a] = 2 * (vals[a + s] - pv[a + off]) - vals[a + 2 * s]
            new |= lone_x
            derived[r] |= lone_z | lone_y | lone_x
        if not new:
            break
        known_bits |= new

    # only the instances known from the start or completed by others remain
    swept = []
    for (tag, s, off, anchors), d in zip(table, derived):
        full = known_bits & (known_bits >> s) & (known_bits >> 2 * s) & anchors
        swept.append((tag, s, off, full & ~d))
    failure = _residual_failure(n, _residuals(swept, vals, pv))
    if failure is not None:
        raise Inconsistent(n, failure)
    if None in vals:
        raise Unresolved(n, _cells(n, *(i for i, v in enumerate(vals) if v is None)))
    return DeltaMatrix(n, tuple(tuple(vals[i : i + w]) for i in range(0, w * w, w)))


def _last_call(fn):
    """fn with a one-slot memo keyed on the identity of its arguments: a
    call with the very objects of the last call returns its result.  No
    argument is hashed, which for a matrix would read every entry."""
    last: list = []  # [args, result] of the last call

    def memo(*args):
        if not last or any(map(is_not, args, last[0])):
            last[:] = args, fn(*args)
        return last[1]

    return memo


@_last_call  # the strategies certified at one n share a pass
def _nonzero_residuals(mat: DeltaMatrix, prev: Optional[DeltaMatrix]) -> FrozenSet[str]:
    """The recurrences among R1-R4 with an instance of nonzero residual on
    M_n = mat against prev."""
    return frozenset(tag for tag, _s, _a0, lhs, rhs in _matrix_residuals(mat, prev) if lhs != rhs)


def _fill(reached: int, s: int, anchors: int) -> int:
    """reached with the cells that one recurrence (step s, anchors) reaches
    from it along whole runs of anchors.  An instance with x and y reached
    reaches z, and so gives the next instance, s on, its x and y: reaching z
    runs forward to the end of a run of anchors, and reaching x (from y and
    z) likewise backward.  Both are taken by doubling, as carry-lookahead
    takes a carry: after the shift d, `fwd` holds every anchor less than 2d
    along a run past an instance that reached z at first, and `run_up` every
    anchor whose 2d/s - 1 predecessors, s apart, are anchors too; `back` and
    `run_down` mirror them."""
    k0, k1, k2 = reached & anchors, (reached >> s) & anchors, (reached >> 2 * s) & anchors
    fwd, back, middle = k0 & k1, k1 & k2, k0 & k2
    run_up = run_down = anchors
    d = s
    while run_up and (fwd or back):
        fwd |= (fwd << d) & run_up
        back |= (back >> d) & run_down
        run_up &= run_up << d
        run_down &= run_down >> d
        d += d
    return reached | fwd << 2 * s | back | middle << s


def _closure(reached: int, table) -> int:
    """The cells that the recurrences of table reach from those set in
    reached: an instance with two cells reached reaches its third.  This is
    the fixpoint of the rounds of `solve_constraints`, without their values.
    Each pass fills whole runs (`_fill`); a catalog system closes in two
    passes, one that fills and one that finds nothing more."""
    while True:
        before = reached
        for _tag, s, _off, anchors in table:
            reached = _fill(reached, s, anchors)
        if reached == before:
            return reached


def _certified(
    n: int, reached: int, recurrences, prev: Optional[DeltaMatrix], candidate: DeltaMatrix
) -> bool:
    """The certificate once the known cells agree with candidate: no
    instance of the recurrences has a nonzero residual on candidate against
    prev, and they reach every cell from the known ones, set in reached."""
    table = _table(n, recurrences)
    if not _nonzero_residuals(candidate, prev).isdisjoint(tag for tag, *_ in table):
        return False
    return _closure(reached, table) == (1 << 4 * n * n) - 1


def certifies(
    n: int,
    known: Mapping[Cell, int],
    recurrences: FrozenSet[str] | Sequence[str],
    prev: Optional[DeltaMatrix],
    candidate: DeltaMatrix,
) -> bool:
    """Whether `solve_constraints(n, known, recurrences, prev)` would return
    `candidate` without raising, decided without solving.

    It would exactly when the known cells agree with candidate, no instance
    of the recurrences has a nonzero residual on candidate against prev, and
    the recurrences reach every cell from the known ones (`_closure`, where
    the solver's rounds end): then the system has one solution, and
    candidate is it.  Otherwise the solver raises or returns another matrix.
    """
    if n < 1 or candidate.n != n:
        return False
    try:
        reached = _known_grid(n, known)[1]
    except ValueError:
        return False
    if any(candidate.rows[m - 1][k - 1] != v for (m, k), v in known.items()):
        return False
    return _certified(n, reached, recurrences, prev, candidate)


@_last_call  # the strategies built at one n share M_{n-1}
def _marginals(prev: DeltaMatrix) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return prev.row_sums(), prev.col_sums()


def _boundary(strategy: BuildStrategy, n: int, prev: DeltaMatrix) -> List[Tuple[Segment, ...]]:
    """The segments of M_n that each boundary condition of strategy fixes,
    condition by condition in tag order.  The solver's known cells
    (`_known_for`) and the chain's certificate (`_certifies_own`) both
    read them here."""
    rs, cs = _marginals(prev)
    return [_segments(tag, n, rs, cs) for tag in sorted(strategy.boundary)]


def _known_for(strategy: BuildStrategy, n: int, prev: DeltaMatrix) -> Dict[Cell, int]:
    """The known cells of strategy's system for M_n: the zero diagonal, then
    each condition's cells, index by index along its two segments;
    Inconsistent at the first cell given two values."""
    known: Dict[Cell, int] = {(i, i): 0 for i in range(1, 2 * n + 1)}
    for segments in _boundary(strategy, n, prev):
        for cells in zip(*(_segment_cells(*segment) for segment in segments)):
            for cell, v in cells:
                if known.setdefault(cell, v) != v:
                    raise Inconsistent(
                        n, f"boundary conditions disagree at {cell}: {known[cell]} vs {v}"
                    )
    return known


def _stride(a: int, step: int, count: int) -> int:
    """The bitmask of count bits, step apart, from bit a on."""
    return ((1 << step * count) - 1) // ((1 << step) - 1) << a


def _certifies_own(
    strategy: BuildStrategy, n: int, prev: DeltaMatrix, candidate: DeltaMatrix
) -> bool:
    """`certifies` for strategy's own system of M_n, read off its segments
    with no known-cell Mapping: candidate's diagonal is zero and each
    segment equals a slice of one of its rows or columns.  The known cells
    are the diagonal and each segment's row run or column stride."""
    w, rows = 2 * n, candidate.rows
    if any(rows[i][i] for i in range(w)):
        return False
    reached = _stride(0, w + 1, w)
    for segments in _boundary(strategy, n, prev):
        for is_row, line, first, values in segments:
            along = slice(first - 1, first - 1 + len(values))
            seen = rows[line - 1][along] if is_row else tuple(row[line - 1] for row in rows[along])
            if seen != values:
                return False
            m, k = (line, first) if is_row else (first, line)
            reached |= _stride((m - 1) * w + k - 1, 1 if is_row else w, len(values))
    return _certified(n, reached, strategy.recurrences, prev, candidate)


#: Past M_CHAIN_KEEP, a chain keeps only the last two matrices it built (the
#: marginals and census suites read M_{n-1} right after M_n)
CHAIN_KEEP = 64

#: tag -> {k: M_k}, the matrices each strategy's chain keeps
_chains: Dict[str, Dict[int, DeltaMatrix]] = {}


def _build_chain(n: int, tag: str) -> DeltaMatrix:
    """M_n under one strategy, each M_k from the strategy's own M_{k-1}.
    Past D1, a step takes D1's M_k itself when D1's chain holds it and it
    certifies the strategy's system, which is when solving that system
    would return it; otherwise the step solves.  No step builds D1.  A chain
    walks to M_n from the largest M_j it keeps with j < n, keeps each M_k it
    builds, and then drops every M_j past CHAIN_KEEP but M_{k-1} and M_k."""
    chain = _chains.setdefault(tag, {1: M1})
    if n in chain:
        return chain[n]
    d1 = _chains.get("D1", {})  # for D1 itself, chain: it holds no M_k walked to
    strategy = STRATEGIES[tag]
    mat = chain[max(j for j in chain if j < n)]
    for k in range(mat.n + 1, n + 1):
        prev, mat = mat, d1.get(k)
        if mat is None or not _certifies_own(strategy, k, prev, mat):
            mat = solve_constraints(k, _known_for(strategy, k, prev), strategy.recurrences, prev)
        chain[k] = mat
        for j in [j for j in chain if j > CHAIN_KEEP and not k - 1 <= j <= k]:
            del chain[j]
    return mat


def build_matrix(n: int, tag: str = "D1") -> DeltaMatrix:
    """Build M_n under the strategy tagged D1..D9, in any case (M_1 is fixed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = tag.upper() if isinstance(tag, str) else None
    if key not in STRATEGIES:
        raise ValueError(f"unknown strategy {tag!r}; expected D1..D9")
    return _build_chain(n, key)


def delta_matrices(n_max: int) -> List[DeltaMatrix]:
    """[M_1, ..., M_{n_max}]; every strategy builds the same matrices."""
    return [build_matrix(n) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# Matrix-level identities
# ---------------------------------------------------------------------------


class PropertyReport(NamedTuple):
    """Outcome of the per-matrix identity checks; first failure wins."""

    n: int
    ok: bool
    failures: Tuple[str, ...]


# Each predicate below returns a description of its identity's first failure,
# or None when the identity holds.


def counter_diagonal_failure(mat: DeltaMatrix) -> Optional[str]:
    """f_n(m,k) = f_n(2n+1-k, 2n+1-m) for every cell."""
    # the counter-transpose: columns right to left, each read bottom up
    diff = mat.first_difference(DeltaMatrix(mat.n, tuple(zip(*mat.rows[::-1]))[::-1]))
    if diff is None:
        return None
    return "counter-diagonal symmetry fails at (m,k)=({},{}): {} != {}".format(*diff)


def sub_super_diagonal_failure(mat: DeltaMatrix) -> Optional[str]:
    """f_n(k+1,k) = f_n(k,k+1); holds from n = 2 on (M_1 has f_1(2,1) = 1)."""
    if mat.n < 2:
        return None
    f = mat.value
    for k in range(1, 2 * mat.n):
        if f(k + 1, k) != f(k, k + 1):
            return f"sub/super diagonal equality fails at k={k}: {f(k+1,k)} != {f(k,k+1)}"
    return None


def crossing_failure(mat: DeltaMatrix) -> Optional[str]:
    """f(k+1,k-1) + f(k-1,k+1) = f(k+1,k) + f(k-1,k) = f(k,k+1) + f(k,k-1)."""
    f = mat.value
    for k in range(2, 2 * mat.n):
        s1 = f(k + 1, k - 1) + f(k - 1, k + 1)
        s2 = f(k + 1, k) + f(k - 1, k)
        s3 = f(k, k + 1) + f(k, k - 1)
        if not (s1 == s2 == s3):
            return f"crossing equality fails at k={k}: {s1}, {s2}, {s3}"
    return None


def marginals_failure(
    mat: DeltaMatrix, prev: Optional[DeltaMatrix], triangle_row: Optional[Sequence[int]] = None
) -> Optional[str]:
    """The eoc/pom marginal equality; given M_{n-1}, the marginal difference
    equations; given a 1-D triangle row, the marginals against it."""
    n = mat.n
    w = 2 * n
    # rs[m] = f_n(m, .) and cs[k] = f_n(., k), zero outside 1..2n
    rs = (0, *mat.row_sums(), 0, 0)
    cs = (0, *mat.col_sums(), 0, 0)
    if prev is not None:
        if prev.n != n - 1:
            raise ValueError(f"prev must be M_{n-1}, got M_{prev.n}")
        prev_rs = (0, *prev.row_sums(), 0)
        prev_cs = (0, *prev.col_sums())
        for m in range(1, w):
            residual = rs[m + 2] - 2 * rs[m + 1] + rs[m] + 2 * prev_rs[m]
            if residual != 0:
                return f"row-marginal difference equation fails at m={m}: residual {residual}"
        for k in range(0, w - 1):
            residual = cs[k + 2] - 2 * cs[k + 1] + cs[k] + 2 * prev_cs[k]
            if residual != 0:
                return f"column-marginal difference equation fails at k={k}: residual {residual}"

    # marginals against the 1-D triangle: row sums align at the same index,
    # column sums at index k+1 (the verified alignment).
    if triangle_row is not None:
        tri = list(triangle_row)  # entries f_n(1..2n+1)
        if len(tri) != w + 1:
            raise ValueError(f"triangle row for n={n} must have {w + 1} entries, got {len(tri)}")
        for m in range(1, w + 1):
            if rs[m] != tri[m - 1]:
                return f"row marginal != triangle at m={m}: row sum {rs[m]}, triangle {tri[m - 1]}"
        for k in range(1, w + 1):
            if cs[k] != tri[k]:
                return (
                    f"column marginal != triangle at k={k} (index k+1): "
                    f"column sum {cs[k]}, triangle {tri[k]}"
                )

    # the marginal equidistribution: #(eoc = k+1) = #(pom = k)
    at = first_difference(rs[2 : w + 2], cs[1 : w + 1])
    if at is None:
        return None
    k = at[0] + 1
    return f"eoc/pom marginal equality fails at k={k}: eoc {rs[k + 1]}, pom {cs[k]}"


def recurrence_residuals(mat: DeltaMatrix) -> Iterator[Tuple[str, Tuple[Cell, ...], int]]:
    """(tag, cells, x - 2y + z) for every R1-R4 instance of M_n: the bare
    second differences of `mat`, without the 2 f_{n-1} term, which
    `recurrence_failure` adds."""
    for tag, a, s, r in _instances(_matrix_residuals(mat, None)):
        yield tag, _cells(mat.n, a, a + s, a + 2 * s), r


def recurrence_failure(mat: DeltaMatrix, prev: DeltaMatrix) -> Optional[str]:
    """Every R1-R4 instance of M_n has zero residual against M_{n-1}.  The
    pass reads `mat` alone, never the solver's propagation."""
    runs = _matrix_residuals(mat, prev)
    unequal = (run for run in runs if run[3] != run[4])  # lhs != rhs
    return _residual_failure(mat.n, _instances(unequal))


def matrix_properties_check(
    mat: DeltaMatrix, prev: Optional[DeltaMatrix], triangle_row: Optional[Sequence[int]] = None
) -> PropertyReport:
    """Check the counter-diagonal symmetry, the sub/super-diagonal equality,
    the crossing equalities, and (given M_{n-1}) the marginal difference
    equations; optionally pin marginals against a 1-D triangle row."""
    results = (
        counter_diagonal_failure(mat),
        sub_super_diagonal_failure(mat),
        crossing_failure(mat),
        marginals_failure(mat, prev, triangle_row),
    )
    failures = tuple(r for r in results if r is not None)
    return PropertyReport(mat.n, not failures, failures)


def eoc_pom_polynomial(mat: DeltaMatrix) -> Tuple[Tuple[int, ...], ...]:
    """Coefficient grid g_n(m,k) = f_n(m, 2n+1-k) of the symmetric joint
    generating polynomial (the pom axis reversed).  g = g^T is the
    counter-diagonal symmetry of M_n; raises ValueError if it fails."""
    failure = counter_diagonal_failure(mat)
    if failure is not None:
        raise ValueError(f"joint generating polynomial not symmetric: {failure}")
    w = 2 * mat.n
    return tuple(
        tuple(mat.value(m, w + 1 - k) for k in range(1, w + 1)) for m in range(1, w + 1)
    )
