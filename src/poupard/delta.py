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
(Inconsistent) instead of trusting any particular fill order.

The instances are written once, as flat anchors with a step and a prev offset
(`_instance_table`, and `_anchor_mask` as bits); one residual pass serves both
the solver's final check and the oracle `recurrence_failure`, which never
propagates.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    for i, (u, v) in enumerate(zip(f, g)):
        if u != v:
            nested = isinstance(u, (list, tuple)) and isinstance(v, (list, tuple))
            at = first_difference(u, v) if nested else ()
            if at is not None:  # None: a list and a tuple of equal entries
                return (i, *at)
    return None if len(f) == len(g) else (min(len(f), len(g)),)


@dataclass(frozen=True)
class DeltaMatrix:
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
        return json.dumps(
            {"n": self.n, "rows": [list(r) for r in self.rows]}, separators=(",", ":")
        )

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
        return "\n".join(",".join(str(v) for v in row) for row in self.rows)

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
        width = max(len(str(v)) for row in self.rows for v in row)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in self.rows)


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


def region_cells(tag: str, n: int) -> Iterator[Cell]:
    """The cells of one region in (m, k) order."""
    lower, d, t = _region(tag)
    top = 2 * n + t
    if lower:
        for m in range(1 + d, top + 1):
            for k in range(1, m - d + 1):
                yield (m, k)
    else:
        for m in range(1, top - d + 1):
            for k in range(m + d, top + 1):
                yield (m, k)


#: recurrence tag -> (anchor region, vertical?, prev-matrix index shift)
_RECURRENCES: Dict[str, Tuple[str, bool, Tuple[int, int]]] = {
    "R1": ("L1", True, (0, 0)),
    "R2": ("U1", False, (0, 0)),
    "R3": ("U2", True, (0, -2)),
    "R4": ("L2", False, (-2, 0)),
}


def _instance_table(n: int, tags) -> List[Tuple[str, int, int, List[int]]]:
    """(tag, step, prev offset, anchors) per recurrence, in tag order.

    On the 2n x 2n grid flattened as (m-1)*2n + k-1, the instance of a
    recurrence at anchor a reads the cells a, a+step, a+2*step and the
    constant 2 f_{n-1} at a+offset; the regions keep all four on the grid.
    """
    w = 2 * n
    table = []
    for tag in sorted(frozenset(tags)):
        if tag not in _RECURRENCES:
            raise ValueError(f"unknown recurrence {tag!r}")
        region, vertical, (dm, dk) = _RECURRENCES[tag]
        anchors = [(m - 1) * w + k - 1 for m, k in region_cells(region, n)]
        table.append((tag, w if vertical else 1, dm * w + dk, anchors))
    return table


@lru_cache(maxsize=None)
def _anchor_mask(n: int, tag: str) -> Tuple[str, int, int, int]:
    """One recurrence's row of `_instance_table`, with its anchors as a
    bitmask of the flat grid: bit a is set when an instance anchors at a."""
    ((tag, s, off, anchors),) = _instance_table(n, (tag,))
    digits = bytearray(b"0" * (4 * n * n))  # bit i at index i
    for a in anchors:
        digits[a] = ord("1")
    return tag, s, off, int(digits[::-1], 2)


def _bits(mask: int) -> List[int]:
    """The indices of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1] if mask else ""  # bit i at index i; most masks are 0
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _twice_prev(n: int, prev: Optional[DeltaMatrix]) -> List[int]:
    """2 f_{n-1} flattened onto the 2n x 2n grid, zero-padded (0 without prev)."""
    if prev is not None and prev.n != n - 1:
        raise ValueError(f"prev must be M_{n-1}, got M_{prev.n}")
    w = 2 * n
    twice = [0] * (w * w)
    if prev is not None:
        for i, row in enumerate(prev.rows):
            twice[i * w : i * w + w - 2] = [2 * v for v in row]
    return twice


def _residuals(
    table, vals: Sequence[Optional[int]], twice: Sequence[int]
) -> Iterator[Tuple[str, int, int, int]]:
    """(tag, anchor, step, x - 2y + z + 2 f_{n-1}) for every instance whose
    three cells are known, in (tag, anchor) order."""
    for tag, s, off, anchors in table:
        for a in anchors:
            x, y, z = vals[a], vals[a + s], vals[a + 2 * s]
            if x is not None and y is not None and z is not None:
                yield tag, a, s, x - 2 * y + z + twice[a + off]


def _cells(n: int, *flat: int) -> Tuple[Cell, ...]:
    """The (m, k) cells at flat indices of the 2n x 2n grid."""
    w = 2 * n
    return tuple((i // w + 1, i % w + 1) for i in flat)


def _residual_failure(n: int, table, vals, twice) -> Optional[str]:
    for tag, a, s, r in _residuals(table, vals, twice):
        if r != 0:
            return f"{tag} instance at cells {_cells(n, a, a + s, a + 2 * s)} has residual {r}"
    return None


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------

def _boundary_cells(
    tag: str, w: int, rs: Tuple[int, ...], cs: Tuple[int, ...]
) -> Dict[Cell, int]:
    """Known-cell assignments contributed by one boundary condition."""
    # rs[m-1] = f_{n-1}(m, .) and cs[k-1] = f_{n-1}(., k), for 1..2n-2
    out: Dict[Cell, int] = {}
    if tag == "I1":
        col = rs + (0,) * (w - len(rs))  # zero-padded to 2n entries
        for m in range(1, w + 1):
            out[(m, w)] = 0
            out[(m, w - 1)] = col[m - 1]
    elif tag == "I2":
        row = rs + (0,) * (w - len(rs))
        for k in range(1, w + 1):
            out[(w, k)] = row[k - 1]
            out[(w - 1, k)] = (
                rs[k - 1] + cs[k - 1] if k <= len(rs) else 0
            )
    elif tag == "I3":
        for k in range(1, w + 1):
            out[(1, k)] = 0
            # row 2 reads 0, f_{n-1}(1,.), f_{n-1}(2,.), ..., zero-padded
            out[(2, k)] = rs[k - 2] if 2 <= k <= len(rs) + 1 else 0
    elif tag == "I4":
        for m in range(1, w + 1):
            out[(m, 1)] = rs[m - 2] if 2 <= m <= len(rs) + 1 else 0
            if m <= 2:
                out[(m, 2)] = 0
            elif m <= w - 1:
                out[(m, 2)] = rs[m - 2] + rs[m - 3]
            else:
                out[(m, 2)] = rs[w - 3]  # f_{n-1}(2n-2, .)
    elif tag == "SW":
        out[(w - 1, 1)] = cs[0]
        out[(w - 1, 2)] = rs[1] + cs[1]
        out[(w, 1)] = 0
        out[(w, 2)] = cs[0]
    elif tag == "NE":
        out[(1, w - 1)] = 0
        out[(1, w)] = 0
        out[(2, w - 1)] = rs[1]
        out[(2, w)] = 0
    else:
        raise ValueError(f"unknown boundary condition {tag!r}")
    return out


@dataclass(frozen=True)
class BuildStrategy:
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
    twice = _twice_prev(n, prev)
    w = 2 * n
    vals: List[Optional[int]] = [None] * (w * w)  # vals[(m-1)*w + k-1] = f_n(m, k)
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

    # Instance (a, a+s, a+2s) of a recurrence is bit a of its anchor mask;
    # k0, k1, k2 mark the instances whose x, y, z are known before the round,
    # and derived[r] those that derived their lone cell.
    table = [_anchor_mask(n, tag) for tag in sorted(frozenset(recurrences))]
    derived = [0] * len(table)
    while True:
        new = 0
        for r, (tag, s, off, anchors) in enumerate(table):
            k0 = known_bits & anchors
            k1 = (known_bits >> s) & anchors
            k2 = (known_bits >> 2 * s) & anchors
            lone_z = k0 & k1 & ~k2 & ~(new >> 2 * s)
            for a in _bits(lone_z):
                vals[a + 2 * s] = 2 * vals[a + s] - vals[a] - twice[a + off]
            new |= lone_z << 2 * s
            lone_y = k0 & k2 & ~k1 & ~(new >> s)
            for a in _bits(lone_y):
                # 2*y = x + z + c; the division must be exact
                num = vals[a] + vals[a + 2 * s] + twice[a + off]
                if num % 2 != 0:
                    cells = _cells(n, a, a + s, a + 2 * s)
                    raise Inconsistent(n, f"odd middle value in {tag} at {cells}")
                vals[a + s] = num // 2
            new |= lone_y << s
            lone_x = k1 & k2 & ~k0 & ~new
            for a in _bits(lone_x):
                vals[a] = 2 * vals[a + s] - vals[a + 2 * s] - twice[a + off]
            new |= lone_x
            derived[r] |= lone_z | lone_y | lone_x
        if not new:
            break
        known_bits |= new

    # only the instances known from the start or completed by others remain
    swept = []
    for (tag, s, off, anchors), d in zip(table, derived):
        full = known_bits & (known_bits >> s) & (known_bits >> 2 * s) & anchors
        swept.append((tag, s, off, _bits(full & ~d)))
    failure = _residual_failure(n, swept, vals, twice)
    if failure is not None:
        raise Inconsistent(n, failure)
    if None in vals:
        raise Unresolved(n, _cells(n, *(i for i, v in enumerate(vals) if v is None)))
    return DeltaMatrix(n, tuple(tuple(vals[i : i + w]) for i in range(0, w * w, w)))


def _known_for(strategy: BuildStrategy, n: int, prev: DeltaMatrix) -> Dict[Cell, int]:
    known: Dict[Cell, int] = {(i, i): 0 for i in range(1, 2 * n + 1)}
    rs, cs = prev.row_sums(), prev.col_sums()
    for tag in sorted(strategy.boundary):
        for cell, v in _boundary_cells(tag, 2 * n, rs, cs).items():
            if cell in known and known[cell] != v:
                raise Inconsistent(
                    n, f"boundary conditions disagree at {cell}: {known[cell]} vs {v}"
                )
            known[cell] = v
    return known


@lru_cache(maxsize=None)
def _build_chain(n: int, tag: str) -> DeltaMatrix:
    if n == 1:
        return M1
    strategy = STRATEGIES[tag]
    # fill the cache upward, so each miss below n recurses one level only
    prev = M1
    for k in range(2, n):
        prev = _build_chain(k, tag)
    known = _known_for(strategy, n, prev)
    return solve_constraints(n, known, strategy.recurrences, prev)


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


@dataclass(frozen=True)
class PropertyReport:
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
    n = mat.n
    vals = [v for row in mat.rows for v in row]
    table = _instance_table(n, _RECURRENCES)
    for tag, a, s, r in _residuals(table, vals, _twice_prev(n, None)):
        yield tag, _cells(n, a, a + s, a + 2 * s), r


def recurrence_failure(mat: DeltaMatrix, prev: DeltaMatrix) -> Optional[str]:
    """Every R1-R4 instance of M_n has zero residual against M_{n-1}.  The
    pass reads `mat` alone, never the solver's propagation."""
    n = mat.n
    vals = [v for row in mat.rows for v in row]
    return _residual_failure(n, _instance_table(n, _RECURRENCES), vals, _twice_prev(n, prev))


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
