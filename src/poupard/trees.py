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

One walk over the splits, _Blocks, serves enumeration and the bijection
check and relabels no tree: a tree on a block is a part of its first
subtree + a part for the root's edges + a part of its second subtree.
enumerate_trees sums tuples of (parent, childA, childB) label triples and
reads each into a Tree for the public API and the `trees` CLI.
chain_shift_failure, the whole bijection check, sums ints that hold the
chain-shift image, as the minimal chain lies in the first block of every
split.  Small blocks' parts live as long as one walk; enumeration streams
the larger blocks, so it starts at once at any n.  ha12_map relabels one
Tree with the kernel _chain_shift, which walks its minimal chain as
minimal_chain does.  The census tables do not use the walk: they attach the
labels in increasing order and count the partial trees by a small state,
so no tree, per-tree tuple or Tree is built.
One such pass up to the largest n asked for so far gives the tables of every
smaller n on its way, and they are kept for the process.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations, islice, repeat
from operator import add, eq, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .delta import DeltaMatrix, recurrence_residuals
from .triangle import poupard_triangle

# Largest blocks, off the minimal chain and holding it, whose parts one walk
# of _Blocks keeps; larger blocks are rebuilt where they recur, or streamed.
# Chain blocks recur less: keeping those of 7 labels too
# takes the check's peak at n = 5 from 0.93 to 1.15 MiB (tracemalloc) and
# saves only at n = 6, 0.09 of 0.37 s.
_PART_MEMO_MAX = {False: 7, True: 5}

# The census limit, about 1.6 s for one pass: census_tables / joint_distribution refuse
# larger n unless given a larger limit, and verify's census suites stop here unless forced.
CENSUS_LIMIT = 20


class CensusLimitError(ValueError):
    """Raised when a census is asked for an n above its limit."""


class StatisticUndefined(ValueError):
    """Raised for eoc/pom/bijection on the single-node tree (n = 0)."""


class Tree:
    """A strictly ordered binary tree on 2n+1 labels.

    `children` maps each interior label to its (smaller, larger) child pair.
    """

    def __init__(self, n: int, children: Dict[int, Tuple[int, int]]) -> None:
        self.n = n
        self.children = children

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.children) == (other.n, other.children)

    def __repr__(self) -> str:
        return f"Tree(n={self.n!r}, children={self.children!r})"

    def size(self) -> int:
        return 2 * self.n + 1

    def validate(self) -> None:
        """Check every axiom; raises ValueError on the first violation."""
        if self.n < 0:
            raise ValueError(f"tree size n must be nonnegative, got {self.n}")
        size = self.size()
        labels = range(1, size + 1)
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


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Yield every strictly ordered binary tree on 2n+1 nodes exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    shapes = _Blocks(lambda end, chain: (), lambda r, c, d, chain: ((r, c, d),), stream=True)
    for shape in shapes.of(tuple(range(1, 2 * n + 2)), True):
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
    return _minimal_chain(t.children)


def _minimal_chain(children: Dict[int, Tuple[int, int]]) -> List[int]:
    """minimal_chain read off a map from each interior label to its children."""
    chain = [1]
    node = 1
    while node in children:
        a, b = children[node]
        child = a if a < b else b
        _check_edge_order(node, child)
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
    chain = _minimal_chain({p: (a, b) for p, a, b in triples})
    relabel = list(range(-1, size))  # v -> v - 1 off the chain; index 0 unused
    for node, child in zip(chain, chain[1:]):
        relabel[node] = child - 1
    relabel[chain[-1]] = size
    parent = [0] * (size + 1)
    for p, a, b in triples:
        parent[relabel[a]] = parent[relabel[b]] = relabel[p]
    return chain[-1], parent


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


def chain_shift_failure(n: int) -> Optional[str]:
    """The first tree of T_{2n+1}, in enumeration order, whose chain-shift image
    collides with an earlier one, is not increasing, or has eoc != pom(image) + 1,
    named with its fault; else a count other than tree_count(n); else None.

    Column checks over the bytes of every _images key and one sort show that
    no tree fails; only when one does, a scan tree by tree names it."""
    if n < 1:  # no eoc on the single-node tree, and no tree below it
        raise StatisticUndefined(f"the bijection needs n >= 1, got {n}")
    keys = list(_images(n))
    failure = None if _every_image_holds(keys, 2 * n + 1) else _first_failure(n)
    return failure or ("bijection domain size mismatch" if len(keys) != tree_count(n) else None)


# pom + 1 byte by byte: labels fit in a byte up to n = 127, far past any enumerable n
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
# keys that _every_image_holds turns into bytes at a time
_BATCH = 1024


def _every_image_holds(keys: List[int], size: int) -> bool:
    """No two keys are equal, and each is increasing with eoc = pom + 1.
    Sorts keys in place."""
    w = size + 1
    below = [bytes(range(v)) for v in range(w)]
    for i in range(0, len(keys), _BATCH):
        # one row of w bytes per key, so that column v is blob[v::w]
        blob = b"".join([key.to_bytes(w, "little") for key in keys[i : i + _BATCH]])
        if blob[size::w].translate(_PLUS_ONE) != blob[::w]:
            return False
        if any(blob[v::w].translate(None, below[v]) for v in range(1, w)):
            return False  # some image parent of v is v or above
    keys.sort()
    return not any(map(eq, keys, islice(keys, 1, None)))


def _first_failure(n: int) -> Optional[str]:
    """chain_shift_failure's fault, found tree by tree; None if every tree passes."""
    size = 2 * n + 1
    seen = set()
    for i, key in enumerate(_images(n)):
        row = key.to_bytes(size + 1, "little")
        image, end, top_parent = row[1:], row[0], row[size]
        v = next((v for v in range(1, size + 1) if row[v] >= v), None)
        if image in seen:
            fault = "image collision at {}"
        elif v is not None:
            fault = f"image not increasing at {{}}: edge {row[v]}->{v}"
        elif end != top_parent + 1:
            fault = f"eoc != pom(image)+1 at {{}}: {end} vs {top_parent}"
        else:
            seen.add(image)
            continue
        return fault.format(next(islice(enumerate_trees(n), i, None)).serialize())
    return None


def _images(n: int) -> List[int]:
    """The chain-shift image of each tree of T_{2n+1}, in enumeration order,
    as an int key: byte v (1 <= v <= 2n+1) holds the image parent of v, as in
    _chain_shift's parent list, and byte 0 the end of the tree's minimal chain.

    The chain shift sends chain node a_i to a_{i+1} - 1, the chain's end to
    size, and every other label a to a - 1.  The minimal chain runs from the
    root into the first block of every split, so a key is a sum of parts: a
    chain block's holds the chain from its root on, the edge into its root
    and, in byte 0, the chain's end; an off-chain block's leaves out the edge
    into its root, whose image parent depends on the parent.  With r a
    block's root, c its first child and d its second, byte c - 1 holds r - 1:
    on the chain for the edge into r, whose image is c - 1; off it for r -> c.
    Byte d - 1 holds the image of r."""
    top = 8 * (2 * n + 1)  # bit offset of byte 2n+1

    def leaf(end: int, chain: bool) -> int:
        return ((end - 1) << top) + end if chain else 0

    def edges(r: int, c: int, d: int, chain: bool) -> int:
        return ((r - 1) << 8 * (c - 1)) + ((c - 1 if chain else r - 1) << 8 * (d - 1))

    return _Blocks(leaf, edges, stream=False).of(tuple(range(1, 2 * n + 2)), True)


class _Blocks:
    """One walk over the trees on a block, a sorted tuple of labels whose
    smallest is the root, and on the blocks below it.  The root splits the
    other labels into two odd blocks, as _splits gives them.  A tree's part
    is its first subtree's part + the part of the root's edges + its second
    subtree's part, the first subtree varying slowest, so a block's parts
    come out in enumeration order.

    leaf(label, chain) is the part of a one-label block, and edges(r, c, d,
    chain) the part of the edges from the root r to the roots c and d of its
    first and second block.  chain says whether the block holds the minimal
    chain: the whole tree does, and a split's first block does when the
    split block does.  The parts of blocks of up to _PART_MEMO_MAX[chain]
    labels are built whole and kept while the walk runs; larger blocks are
    streamed if `stream`, else built whole wherever they recur."""

    def __init__(self, leaf: Callable, edges: Callable, stream: bool):
        self.leaf, self.edges, self.stream = leaf, edges, stream
        self.memo: Dict[bool, Dict[tuple, list]] = {False: {}, True: {}}
        self.splits: Dict[int, list] = {}

    def of(self, block: tuple, chain: bool) -> Iterable:
        """The parts of every tree on the block, in enumeration order."""
        parts = self.memo[chain].get(block)
        if parts is not None:
            return parts
        k = len(block)
        kept = k <= _PART_MEMO_MAX[chain]
        if k == 1:
            parts = [self.leaf(block[0], chain)]
        elif self.stream and not kept:
            return self._stream(block, chain)
        else:
            r, c, edges = block[0], block[1], self.edges
            parts = []
            for first, second in self.splits.get(k) or self._read_splits(k):
                b2 = second(block)
                const = edges(r, c, b2[0], chain)
                parts += _sums(self.of(first(block), chain), self.of(b2, False), const)
        if kept:
            self.memo[chain][block] = parts
        return parts

    def _stream(self, block: tuple, chain: bool) -> Iterator:
        r, c, k = block[0], block[1], len(block)
        for first, second in self.splits.get(k) or self._read_splits(k):
            b2 = second(block)
            edges = self.edges(r, c, b2[0], chain)
            parts = self.of(b2, False)
            again = not isinstance(parts, list)  # streamed: read anew for each first part
            for a in self.of(first(block), chain):
                yield from map((a + edges).__add__, parts)
                if again:
                    parts = self.of(b2, False)

    def _read_splits(self, k: int) -> Iterator[Tuple[itemgetter, itemgetter]]:
        """_splits(k), kept in self.splits once read through.  A streamed
        block reads its 2^(k-3) splits only as far as it gets."""
        splits = []
        for split in _splits(k):
            splits.append(split)
            yield split
        self.splits[k] = splits


def _splits(k: int) -> Iterator[Tuple[itemgetter, itemgetter]]:
    """Each split of a block of k labels, in enumeration order, as a pair of
    getters that read the first and the second block off the block."""

    def getter(positions: tuple) -> itemgetter:  # a tuple even for one position
        if len(positions) == 1:
            return itemgetter(slice(positions[0], positions[0] + 1))
        return itemgetter(*positions)

    for s in range(1, k - 1, 2):
        for extra in combinations(range(2, k), s - 1):
            rest = tuple(i for i in range(2, k) if i not in extra)
            yield getter((1, *extra)), getter(rest)


def _sums(first: list, second: list, const):
    """[a + const + b for a in first for b in second], ints or tuples, with a
    Python loop over the shorter list only."""
    k = len(second)
    if k == 1:
        return list(map(add, first, repeat(const + second[0])))
    if len(first) <= k:
        out: list = []
        for a in first:
            out += map((a + const).__add__, second)
        return out
    out = [None] * (len(first) * k)
    for j, b in enumerate(second):
        out[j::k] = map(add, first, repeat(const + b))
    return out


# ---------------------------------------------------------------------------
# Joint distribution and structural censuses
# ---------------------------------------------------------------------------


class CensusTables(NamedTuple):
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
    """Every per-(m,k) counter of T_{2n+1}.  A pass serves every n up to its own,
    so ask for the largest n first; the limit defaults to CENSUS_LIMIT at call time."""
    if n < 1:
        raise ValueError("census requires n >= 1")
    limit = CENSUS_LIMIT if limit is None else limit
    if n > limit:
        raise CensusLimitError(f"n={n} exceeds the census limit {limit}; pass a larger limit")
    if n > len(_census):
        _census[:] = _census_pass(n)
    return _census[n - 1]


_census: List[CensusTables] = []  # n = 1..N, from the largest pass so far
census_tables.cache_clear = _census.clear


def _census_pass(top: int) -> Iterator[CensusTables]:
    """The census tables of n = 1..top, from one walk over the partial trees
    of T_{2 top + 1} merged by state and counted; position = label - 1.

    Positions are attached in increasing order, as in West's generating
    tree of the family: position j becomes the second child of an open
    position (one with exactly one child) or the first child of a leaf, one
    sequence of moves per tree.  A leaf opens only while o < w - j, w = 2 top,
    as more open positions could not all close by w.  No state that an n <= top
    completes is dropped, so _census_read reads n's grids after position 2n - 1.
    A state (o, t, p, po, f, g) keeps what the grids read of a partial tree:
      o   the number of open positions;
      t   the tail of the first-child chain from the root, a leaf; eoc at the end;
      p   the position guessed as pom when it was placed (the root from the
          start), or None; po says whether p is open.  p is never closed,
          so a wrong guess never completes;
      f   1 if t was just placed as the first child of t - 1, 2 once t + 1
          then closed t - 1, while t + 1 stays a leaf (the R1 witness);
      g   "pin" / "pout" if p was just placed as the first child of p - 1,
          which was / was not the tail (so eoc is inside / outside the
          subtree of p - 1); "in" / "out" once p + 1 then closed p - 1 /
          opened p, while p + 1 stays a leaf (the R2 witnesses).
    Each position these fields name is a move of its own; all other open
    positions make one move, and all other leaves another, weighted by their
    number.  t and j - 1 are leaves; t - 1 if f = 1, p - 1 if g = "pin" open."""
    w = 2 * top
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
        if j % 2:
            yield _census_read((j + 1) // 2, states)


def _census_read(n: int, states: Dict[tuple, int]) -> CensusTables:
    """n's four grids, read off the states after position 2n - 1 with p open alone."""
    joint, r1w, r2o, r2i = ([[0] * (2 * n) for _ in range(2 * n)] for _ in range(4))
    for (o, t, p, po, f, g), count in states.items():
        if o == 1 and po:  # position 2n closes p, the one open position
            joint[t][p] += count
            if f:  # with f = 1, t - 1 is open, so it is p
                r1w[t - 1][p] += count
            if g == "in":
                r2i[t][p - 1] += count
            elif g == "out":
                r2o[t][p - 1] += count
    return CensusTables(n, *(tuple(map(tuple, g)) for g in (joint, r1w, r2o, r2i)))


def census_identity_failure(tables: CensusTables) -> Optional[str]:
    """The first R1-R4 instance, in (tag, anchor) order, where the second
    difference d2 of the joint grid is not -2 times its witness count: the
    row ones R1/R3 by r1_witness, the column ones R2/R4 by r2_outside +
    r2_inside.  None if all hold."""
    for tag, cells, d2 in recurrence_residuals(DeltaMatrix(tables.n, tables.joint)):
        m, k = cells[0]
        if tag in ("R1", "R3"):
            witness = tables.r1_witness[m - 1][k - 1]
        else:
            witness = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
        if d2 + 2 * witness != 0:
            return f"{tag} second difference at (m,k)=({m},{k}): {d2}, witness {witness}"
    return None


def joint_distribution(n: int, limit: Optional[int] = None) -> DeltaMatrix:
    """Exact joint (eoc, pom) counts on T_{2n+1}, from the census tables;
    entry (m, k) counts the trees with eoc = m and pom = k."""
    return DeltaMatrix(n, census_tables(n, limit).joint)

