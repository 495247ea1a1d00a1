"""Strictly ordered binary trees and their eoc / pom statistics.

A tree lives on labels 1..2n+1: the root is 1, every node has 0 or 2
(unordered) children, and labels increase along every root-to-node path.
Such a tree has n interior nodes and n+1 leaves.

Statistics (defined for n >= 1):

  eoc   end of the minimal chain: start at the root and repeatedly descend
        to the minimum-labeled child; eoc is the leaf where that stops.
  pom   label of the parent of the maximum node 2n+1.

Enumeration is streaming and deterministic: a tree on a sorted label set S is
the root min(S) plus an unordered pair of subtrees on an odd-sized partition
of S minus the root; double counting is avoided by forcing the block that
contains the smallest remaining label to come first.  Blocks are visited by
ascending first-block size, then lexicographically, and the first subtree
varies slowest, so output order is reproducible across runs.

The enumerator works in label space: it yields each tree as a tuple of
(parent, childA, childB) label triples, which enumerate_trees reads into the
child dict of a Tree for the public API and the `trees` CLI; the bijection
check relabels them directly, through the kernel that ha12_map wraps.  One
recursion over the split streams the top level; only the sub-blocks it
reuses, up to size 11, are memoized, each on labels 1..size and relabeled into
its block as it is read.  The census tables do not use the enumerator: they
attach the labels in increasing order and count the partial trees by a small
state, so no tree, per-tree tuple or Tree is built.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .delta import DeltaMatrix
from .triangle import poupard_triangle

# Largest sub-block size kept in the memo table; bigger sub-blocks and every
# top level stream.  At n >= 7 a memo of the size-13 sub-blocks would hold
# 349 504 shapes.
_MEMO_MAX_SIZE = 11

# The census limit: census_tables / joint_distribution refuse larger n unless given
# a larger limit, and verify's census-backed suites stop here unless forced.
DEFAULT_ENUMERATION_LIMIT = 7


class EnumerationLimitError(ValueError):
    """Raised when a census is asked for an n above its limit."""


class StatisticUndefined(ValueError):
    """Raised for eoc/pom/bijection on the single-node tree (n = 0)."""


@dataclass
class Tree:
    """A strictly ordered binary tree on 2n+1 labels.

    `children` maps each interior label to its (smaller, larger) child pair.
    """

    n: int
    children: Dict[int, Tuple[int, int]]

    def size(self) -> int:
        return 2 * self.n + 1

    def validate(self) -> None:
        """Check every axiom; raises ValueError on the first violation."""
        if self.n < 0:
            raise ValueError(f"tree size n must be nonnegative, got {self.n}")
        size = self.size()
        labels = set(range(1, size + 1))
        seen_children = []
        for p, pair in self.children.items():
            if p not in labels:
                raise ValueError(f"parent {p} out of range")
            if len(pair) != 2 or pair[0] >= pair[1]:
                raise ValueError(f"child pair of {p} not sorted: {pair}")
            for c in pair:
                if c not in labels:
                    raise ValueError(f"child {c} out of range")
                _check_edge_order(p, c)
                seen_children.append(c)
        _check_one_parent_each(seen_children, size)
        # Now each of 2..size has one parent, of smaller label, so every
        # parent chain reaches 1, and the 2n children form n pairs.

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form `n=<n>; p:(a,b); ...`, parents ascending."""
        c = self.children
        return "; ".join([f"n={self.n}"] + [f"{p}:({c[p][0]},{c[p][1]})" for p in sorted(c)])

    @staticmethod
    def deserialize(text: str) -> "Tree":
        """Parse `serialize` text; a child pair may come in either order."""
        parts = [p.strip() for p in text.split(";") if p.strip()]
        # plain ASCII decimals only: int() would also read 1_0, +1 and ٣
        head = re.fullmatch(r"n=([0-9]+)", parts[0]) if parts else None
        if head is None:
            raise ValueError(f"malformed tree text: {text!r}")
        children: Dict[int, Tuple[int, int]] = {}
        for item in parts[1:]:
            match = re.fullmatch(r"([0-9]+):\(([0-9]+),([0-9]+)\)", item)
            if match is None:
                raise ValueError(f"malformed tree item {item!r} in {text!r}")
            parent, ca, cb = map(int, match.groups())
            if parent in children:
                raise ValueError(f"parent {parent} listed twice in {text!r}")
            children[parent] = (min(ca, cb), max(ca, cb))
        tree = Tree(n=int(head[1]), children=children)
        tree.validate()
        return tree


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _iter_shapes(size: int) -> Iterator[tuple]:
    """Stream the trees on labels 1..size, each a tuple of (parent, childA,
    childB) triples.  The root 1 splits 2..size into two odd blocks, with 2
    in the first, b1: by ascending |b1|, then lexicographic b1, the first
    subtree varying slowest.  A subtree on a block b is a tree on 1..|b|
    relabeled by l -> b[l]; sub-blocks up to _MEMO_MAX_SIZE come from the
    memo, larger ones stream as well."""
    if size == 1:
        yield ()
        return
    others = range(3, size + 1)
    for s in range(1, size - 1, 2):
        for extra in combinations(others, s - 1):
            chosen = set(extra)
            b1 = (0, 2, *extra)  # b[l] for l >= 1; b[0] is never read
            b2 = (0, *(v for v in others if v not in chosen))
            root = (1, 2, b2[1])
            for sh1 in _sub_shapes(s):
                t1 = [(b1[p], b1[a], b1[b]) for p, a, b in sh1]
                for sh2 in _sub_shapes(size - 1 - s):
                    yield (root, *t1, *[(b2[p], b2[a], b2[b]) for p, a, b in sh2])


def _sub_shapes(size: int) -> Iterable[tuple]:
    return _shapes(size) if size <= _MEMO_MAX_SIZE else _iter_shapes(size)


@lru_cache(maxsize=None)
def _shapes(size: int) -> Tuple[tuple, ...]:
    return tuple(_iter_shapes(size))


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Yield every strictly ordered binary tree on 2n+1 nodes exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for shape in _iter_shapes(2 * n + 1):
        yield Tree(n, {p: (a, b) for p, a, b in shape})


def tree_count(n: int) -> int:
    """|T_{2n+1}| = T_{2n+1} / 2^n: the sum of row n of the Poupard triangle,
    computed without enumeration."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(poupard_triangle(n).row(n))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def minimal_chain(t: Tree) -> List[int]:
    """Root-to-leaf path taking the minimum-labeled child at each step."""
    chain = [1]
    node = 1
    children = t.children
    while node in children:
        a, b = children[node]
        child = a if a < b else b
        if child <= node:
            raise ValueError(f"label order violated on edge {node}->{child}")
        node = child
        chain.append(node)
    return chain


def _check_edge_order(parent: int, child: int) -> None:
    """Raise ValueError unless the child's label is above its parent's."""
    if child <= parent:
        raise ValueError(f"label order violated on edge {parent}->{child}")


def _check_one_parent_each(children: Iterable[int], size: int) -> None:
    """Raise ValueError naming the first of labels 2..size that is not listed
    exactly once among the children."""
    parents = Counter(children)
    bad = next((v for v in range(2, size + 1) if parents[v] != 1), None)
    if bad is not None:
        raise ValueError(f"label {bad} has {parents[bad]} parents, not 1")


def _check_interior_count(t: Tree) -> None:
    # a tree short of interior labels still has a minimal chain to read
    if len(t.children) != t.n:
        raise ValueError(f"n={t.n} needs {t.n} interior labels, got {len(t.children)}")


def eoc(t: Tree) -> int:
    """End of the minimal chain; defined for n >= 1 and lies in [2, 2n]."""
    if t.n == 0:
        raise StatisticUndefined("eoc is undefined on the single-node tree")
    _check_interior_count(t)
    return minimal_chain(t)[-1]


def pom(t: Tree) -> int:
    """Parent of the maximum leaf 2n+1; defined for n >= 1, in [1, 2n-1]."""
    if t.n == 0:
        raise StatisticUndefined("pom is undefined on the single-node tree")
    top = 2 * t.n + 1
    for p, pair in t.children.items():
        if top in pair:
            return p
    raise ValueError(f"maximum label {top} has no parent")


def _chain_shift(triples: Iterable[Tuple[int, int, int]], size: int) -> Tuple[int, List[int]]:
    """eoc of the tree on labels 1..size given by its (parent, childA,
    childB) triples, and its chain-shift image as a parent list: index v
    holds the image parent of v, 0 for the root and the unused index 0.

    With minimal chain a_1 < ... < a_j: chain node a_i is relabeled
    a_{i+1} - 1, the final a_j becomes size, and every non-chain label a
    becomes a - 1.  The chain is walked once."""
    first = {p: (a if a < b else b) for p, a, b in triples}
    relabel = list(range(-1, size))  # v -> v - 1 off the chain; index 0 unused
    node = 1
    while node in first:
        child = first[node]
        if child <= node:
            raise ValueError(f"label order violated on edge {node}->{child}")
        relabel[node] = child - 1
        node = child
    relabel[node] = size
    parent = [0] * (size + 1)
    for p, a, b in triples:
        parent[relabel[a]] = parent[relabel[b]] = relabel[p]
    return node, parent


def ha12_map(t: Tree) -> Tree:
    """The chain-shift bijection with eoc(t) = pom(ha12_map(t)) + 1, as
    relabeled by `_chain_shift`."""
    if t.n == 0:
        raise StatisticUndefined("bijection undefined on the single-node tree")
    size = 2 * t.n + 1
    _check_interior_count(t)
    triples = [(p, *pair) for p, pair in t.children.items()]
    bad = next((v for triple in triples for v in triple if not 0 < v <= size), None)
    if bad is not None:
        raise ValueError(f"label {bad} out of range 1..{size}")
    _, parent = _chain_shift(triples, size)
    _check_one_parent_each((c for _, a, b in triples for c in (a, b)), size)
    for p, a, b in triples:  # _chain_shift checks the chain's edges only
        _check_edge_order(p, a)
        _check_edge_order(p, b)
    children: Dict[int, Tuple[int, ...]] = {}
    for v in range(2, size + 1):  # ascending, so each pair is (smaller, larger)
        children[parent[v]] = children.get(parent[v], ()) + (v,)
    return Tree(n=t.n, children=children)


# ---------------------------------------------------------------------------
# Joint distribution and structural censuses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusTables:
    """All tree counters for one n, gathered in a single pass over the labels.

    joint[m][k]    #{eoc=m, pom=k}
    r1_witness     trees with eoc=m+1, pom=k where m is the parent of the
                   two *leaves* m+1 and m+2   (second term of the Delta_m^2
                   census identity)
    r2_outside     trees with eoc=m, pom=k+1 where k+2 is a leaf child of
                   k+1, itself a child of k, and m is outside the subtree
                   rooted at k
    r2_inside      trees with eoc=m, pom=k+1 where the two children of k are
                   k+1 and the *leaf* k+2, and m lies inside the subtree
                   rooted at k (necessarily under k+1's other child)
    """

    n: int
    joint: Tuple[Tuple[int, ...], ...]
    r1_witness: Tuple[Tuple[int, ...], ...]
    r2_outside: Tuple[Tuple[int, ...], ...]
    r2_inside: Tuple[Tuple[int, ...], ...]


def census_tables(n: int, limit: Optional[int] = None) -> CensusTables:
    """Every per-(m,k) counter of T_{2n+1}; the tables of each n are
    counted once per process, whatever limit the callers pass.  Without a
    limit, DEFAULT_ENUMERATION_LIMIT applies, read at call time."""
    if n < 1:
        raise ValueError("census requires n >= 1")
    limit = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
    if n > limit:
        raise EnumerationLimitError(f"n={n} exceeds the census limit {limit}; pass a larger limit")
    return _census_walk(n)


def _census_states(n: int) -> Dict[tuple, int]:
    """The partial trees of T_{2n+1} after position 2n - 1, merged by state
    and counted; position = label - 1, and no tree is built.

    Positions 1..2n are attached in increasing order, as in West's generating
    tree of the family: position j becomes the second child of an open
    position (one with exactly one child) or the first child of a leaf.  It
    opens a leaf only while fewer than 2n - j positions are open; more could
    not all close by 2n, so no returned state has o > 1.  Each tree has one
    such sequence of moves.  A state (o, t, p, po, f, g) keeps what the grids
    read of a partial tree:
      o   the number of open positions;
      t   the tail of the first-child chain from the root, a leaf; eoc at the end;
      p   the position guessed as pom when it was placed (the root from the
          start), or None; po says whether p is open.  p is never closed
          before position 2n, so a wrong guess never completes;
      f   1 if t was just placed as the first child of t - 1, 2 once t + 1
          then closed t - 1, while t + 1 stays a leaf (the R1 witness);
      g   "pin" / "pout" if p was just placed as the first child of p - 1,
          which was / was not the tail (so eoc is inside / outside the
          subtree of p - 1); "in" / "out" once p + 1 then closed p - 1 /
          opened p, while p + 1 stays a leaf (the R2 witnesses).
    Each position these fields name is a move of its own; all other open
    positions make one move, and all other leaves another, weighted by their
    number.  t and j - 1 are leaves; t - 1 if f = 1, p - 1 if g = "pin" open."""
    w = 2 * n
    states = {(0, 0, None, False, 0, ""): 1, (0, 0, 0, False, 0, ""): 1}
    for j in range(1, w):
        step: Dict[tuple, int] = {}
        for (o, t, p, po, f, g), count in states.items():
            opened = {p if po else None, t - 1 if f == 1 else None, p - 1 if g == "pin" else None}
            leaves = {t, j - 1, None if po else p, t + 1 if f == 2 else None,
                      p + 1 if g in ("in", "out") else None}
            opened.discard(None)
            leaves.discard(None)
            # (position, closed or opened, multiplicity); -1 is every unnamed one
            moves = [(q, True, 1) for q in opened if q != p]
            moves.append((-1, True, o - len(opened)))
            if o < w - j:
                moves += [(q, False, 1) for q in leaves]
                closed = (j - 1 - o) // 2  # the j - 1 edges fill o + 2 * closed child slots
                moves.append((-1, False, j - o - closed - len(leaves)))
            for q, closes, mult in moves:
                if mult <= 0:
                    continue
                if closes:
                    new = (o - 1, t, p, po, (2 if q == t - 1 else 0) if f == 1 else f,
                           "in" if g == "pin" and q == p - 1 else g if g in ("in", "out") else "")
                else:
                    new = (o + 1, j if q == t else t, p, po or q == p,
                           int(t == j - 1) if q == t else 0 if f == 1 or q == t + 1 else f,
                           "out" if g == "pout" and q == p
                           else "" if g in ("pin", "pout") or g and q == p + 1 else g)
                news = [new]
                if p is None:  # j becomes p
                    attach = ("pin" if q == t else "pout") if not closes and q == j - 1 else ""
                    news.append(new[:2] + (j, False, new[4], attach))
                for key in news:
                    step[key] = step.get(key, 0) + count * mult
        states = step
    return states


# Keyed on n alone: a table is a few (2n)x(2n) grids, so keeping every n is cheap.
@lru_cache(maxsize=None)
def _census_walk(n: int) -> CensusTables:
    """The four grids of CensusTables, read off the final _census_states."""
    joint, r1w, r2o, r2i = ([[0] * (2 * n) for _ in range(2 * n)] for _ in range(4))
    for (o, t, p, po, f, g), count in _census_states(n).items():
        if o == 1 and po:  # position 2n closes p, the one open position
            joint[t][p] += count
            if f:  # with f = 1, t - 1 is open, so it is p
                r1w[t - 1][p] += count
            if g == "in":
                r2i[t][p - 1] += count
            elif g == "out":
                r2o[t][p - 1] += count
    freeze = lambda g: tuple(tuple(row) for row in g)
    return CensusTables(n, *(freeze(g) for g in (joint, r1w, r2o, r2i)))


census_tables.cache_clear = _census_walk.cache_clear


def joint_distribution(n: int, limit: Optional[int] = None) -> DeltaMatrix:
    """Exact joint (eoc, pom) counts on T_{2n+1}, from the census tables;
    entry (m, k) counts the trees with eoc = m and pom = k."""
    return DeltaMatrix(n, census_tables(n, limit).joint)

