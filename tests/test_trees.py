"""Enumeration, statistics, and the chain-shift bijection."""

import gc
import hashlib
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import poupard
from poupard import trees
from poupard.trees import (
    CENSUS_LIMIT,
    CensusLimitError,
    StatisticUndefined,
    Tree,
    enumerate_trees,
    eoc,
    ha12_map,
    joint_distribution,
    minimal_chain,
    pom,
    tree_count,
)

# Worked pair: 1:{6,2} 2:{4,3} 4:{5,9} 3:{7,8} maps onto
# 1:{5,2} 2:{3,6} 3:{4,8} 6:{9,7} with eoc(t) = pom(t') + 1 = 7.
SOURCE_TREE = Tree(4, {1: (2, 6), 2: (3, 4), 3: (7, 8), 4: (5, 9)})
IMAGE_TREE = Tree(4, {1: (2, 5), 2: (3, 6), 3: (4, 8), 6: (7, 9)})

COUNTS = [1, 1, 4, 34, 496, 11056]  # |T_{2n+1}| for n = 0..5


def test_tree_count_values():
    for n, expected in enumerate(COUNTS):
        assert tree_count(n) == expected
    assert tree_count(6) == 349504


def test_enumeration_counts():
    for n in range(0, 5):
        assert sum(1 for _ in enumerate_trees(n)) == COUNTS[n]


def test_enumeration_yields_valid_distinct_trees():
    for n in range(0, 5):
        seen = set()
        for t in enumerate_trees(n):
            t.validate()
            s = t.serialize()
            assert s not in seen
            seen.add(s)


def test_n0_and_n1():
    (t0,) = list(enumerate_trees(0))
    assert t0.children == {}
    (t1,) = list(enumerate_trees(1))
    assert t1.children == {1: (2, 3)}


def test_enumeration_order_frozen():
    order = [t.serialize() for t in enumerate_trees(2)]
    assert order == [
        "n=2; 1:(2,3); 3:(4,5)",
        "n=2; 1:(2,5); 2:(3,4)",
        "n=2; 1:(2,4); 2:(3,5)",
        "n=2; 1:(2,3); 2:(4,5)",
    ]


# sha256 of the enumerate_trees(n) output, each tree serialized, joined by
# newlines; recorded before the split recursion was written once
_ORDER_DIGESTS = {
    0: "03a9b09b35d993ff9a6f031da89b66b46158eae60751c9fe1c424101d2f1cc3c",
    1: "381e44cc075987b4468171aed9f7f00365ef16807b55c193a9ce608878e608ea",
    2: "20f8c8423bb488ce52aac58382f09cf63550b3d00789390c7e19e1dabdd5688c",
    3: "15c77bb208347a949a3752d14af867ae257ecaeb96ccc784c0f05f8c4b3efd9d",
    4: "d0f5d95da9597483eeda25951c236a09119919cf8d54ecaa6cecdbe079df13bb",
    5: "0483ba8beca374d6ad5a7c42ae51d179e0f11b02991e4aecdaa1db0cd5c4618c",
    # n = 6 streams its blocks of 9 and 11 labels, and the chain's of 7
    6: "c0e96be69e3f23aa3263c55e9ae58c177d9c5fc87ab86062df39ee09858bfdf0",
}

# the same digest over the first 100 000 trees of n = 7, which pass through a
# streamed block of 13 labels, above every bound of _PART_MEMO_MAX
_ORDER_DIGEST_7_PREFIX = "1d411c7249537b39f5bdf56fac3682e59155a261a24bd5d056945fb200a70265"


def _order_digest(enumerated):
    text = "\n".join(t.serialize() for t in enumerated)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(_ORDER_DIGESTS))
def test_enumeration_order_matches_recorded_digest(n):
    assert _order_digest(enumerate_trees(n)) == _ORDER_DIGESTS[n]


def test_enumeration_order_past_the_memo_matches_recorded_digest():
    assert _order_digest(islice(enumerate_trees(7), 100_000)) == _ORDER_DIGEST_7_PREFIX


def _module_state():
    """Every module-level name of trees, with the size of each container and
    the statistics of each lru_cache."""
    state = {}
    for name, value in vars(trees).items():
        if hasattr(value, "cache_info"):
            state[name] = value.cache_info()
        elif isinstance(value, (dict, list, set)):
            state[name] = len(value)
        else:
            state[name] = None
    return state


def test_enumeration_leaves_no_module_state_behind():
    # each walk keeps its block parts only while it runs
    before = _module_state()
    assert len(list(enumerate_trees(5))) == COUNTS[5]
    next(enumerate_trees(6))
    next(enumerate_trees(7))
    assert _module_state() == before


def _small_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def test_first_tree_of_n20_streams():
    # a child process with 256 MiB of address space, so that an enumerator
    # that builds its blocks or their splits whole fails by the timeout or a
    # MemoryError instead of hanging the suite or filling the host's memory
    script = (
        "from poupard.trees import enumerate_trees\n"
        "print(next(enumerate_trees(20)).serialize())\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
        preexec_fn=_small_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    # the first split of every block puts its smallest label alone
    pairs = [f"{p}:({p + 1},{p + 2})" for p in range(3, 41, 2)]
    assert proc.stdout == "; ".join(["n=20", "1:(2,3)", *pairs]) + "\n"


def test_eoc_pom_examples():
    assert eoc(SOURCE_TREE) == 7
    assert pom(SOURCE_TREE) == 4
    assert pom(IMAGE_TREE) == 6
    t1 = Tree(1, {1: (2, 3)})
    assert eoc(t1) == 2 and pom(t1) == 1
    t = Tree(2, {1: (2, 3), 2: (4, 5)})
    assert eoc(t) == 4
    assert minimal_chain(SOURCE_TREE) == [1, 2, 3, 7]


def test_stats_follow_edited_children():
    t = Tree(2, {1: (2, 3), 2: (4, 5)})
    assert pom(t) == 2
    t.children = {1: (2, 5), 2: (3, 4)}
    t.validate()
    fresh = Tree(2, {1: (2, 5), 2: (3, 4)})
    assert t == fresh and pom(fresh) == 1
    assert pom(t) == 1


@pytest.mark.parametrize(
    "n, children, edge",
    [(1, {1: (1, 3)}, "1->1"), (2, {1: (2, 3), 2: (1, 4)}, "2->1")],
)
def test_minimal_chain_rejects_a_child_below_its_parent(n, children, edge):
    # a child process, so that an endless chain fails by the timeout instead
    # of hanging the suite; under -O, so that the check is no assert
    script = (
        "from poupard.trees import Tree, eoc, ha12_map, minimal_chain\n"
        f"t = Tree({n}, {children!r})\n"
        "for stat in (minimal_chain, eoc, ha12_map):\n"
        "    try:\n"
        "        stat(t)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"label order violated on edge {edge}"] * 3


def test_missing_label_is_a_value_error():
    # label 3 is missing and 4 is out of range: pom and ha12_map name the
    # label instead of raising a bare KeyError, also under -O
    expected = ["maximum label 3 has no parent", "label 4 out of range 1..3"]
    t = Tree(1, {1: (2, 4)})
    for stat, text in zip((pom, ha12_map), expected):
        with pytest.raises(ValueError) as info:
            stat(t)
        assert str(info.value) == text
    script = (
        "from poupard.trees import Tree, ha12_map, pom\n"
        "for stat in (pom, ha12_map):\n"
        "    try:\n"
        "        stat(Tree(1, {1: (2, 4)}))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_ha12_map_rejects_a_tree_with_too_few_interior_labels():
    # n = 2 needs two interior labels; with one, label 5 is never placed and
    # the map would otherwise return Tree(2, {1: (2, 5)}) and eoc 2, also
    # under -O
    expected = "n=2 needs 2 interior labels, got 1"
    for stat in (ha12_map, eoc):
        with pytest.raises(ValueError) as info:
            stat(Tree(2, {1: (2, 3)}))
        assert str(info.value) == expected
    script = (
        "from poupard.trees import Tree, eoc, ha12_map\n"
        "for stat in (ha12_map, eoc):\n"
        "    try:\n"
        "        stat(Tree(2, {1: (2, 3)}))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [expected] * 2


@pytest.mark.parametrize(
    "t, label",
    [
        (Tree(1, {0: (2, 3)}), "0 out of range 1..3"),
        (Tree(2, {1: (2, 3), -1: (4, 5)}), "-1 out of range 1..5"),
    ],
)
def test_ha12_map_rejects_a_label_below_one(t, label):
    with pytest.raises(ValueError, match=f"^label {label}$"):
        ha12_map(t)


_NOT_TREES = [
    # label 3 under both 1 and 2, so 5 is under nothing; the map returned
    # Tree(2, {1: (2,), 2: (3, 5), 0: (4,)})
    (2, {1: (2, 3), 2: (3, 4)}, "label 3 has 2 parents, not 1"),
    # the root hung off the chain under 3: label 5 is under nothing
    (2, {1: (2, 3), 3: (1, 4)}, "label 5 has 0 parents, not 1"),
    (3, {1: (2, 3), 2: (3, 4), 4: (3, 5)}, "label 3 has 3 parents, not 1"),
]


def test_ha12_map_rejects_a_label_with_two_parents_or_none():
    # the chain, interior count and label range of each are fine; also
    # under -O, so that the check is no assert
    for n, children, text in _NOT_TREES:
        with pytest.raises(ValueError, match=f"^{text}$"):
            ha12_map(Tree(n, children))
    script = (
        "from poupard.trees import Tree, ha12_map\n"
        f"for n, children, _ in {_NOT_TREES!r}:\n"
        "    try:\n"
        "        ha12_map(Tree(n, children))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [text for *_, text in _NOT_TREES]


def test_ha12_map_rejects_a_falling_edge_off_the_chain():
    # the chain 1->2, the interior count, the labels and their parents are
    # fine, but 3 hangs under 4; ha12_map returned a non-increasing image.
    # It shares the check of validate, also under -O
    text = "label order violated on edge 4->3"
    t = Tree(2, {1: (2, 4), 4: (3, 5)})
    for check in (ha12_map, Tree.validate):
        with pytest.raises(ValueError, match=f"^{text}$"):
            check(t)
    script = (
        "from poupard.trees import Tree, ha12_map\n"
        "for check in (ha12_map, Tree.validate):\n"
        "    try:\n"
        "        check(Tree(2, {1: (2, 4), 4: (3, 5)}))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [text] * 2


@pytest.mark.parametrize(
    "t, text",
    [
        (Tree(2, {1: (2, 3), 2: (3, 4)}), "label 3 has 2 parents, not 1"),
        (Tree(2, {1: (2, 3)}), "label 4 has 0 parents, not 1"),
    ],
)
def test_validate_names_the_label_without_one_parent(t, text):
    # the same check as ha12_map's
    with pytest.raises(ValueError, match=f"^{text}$"):
        t.validate()


def test_validate_does_not_build_the_label_set():
    # the label range is never spelled out, so a short text claiming a huge n
    # fails in little memory; a set of the 2 000 001 labels takes about 100 MiB
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="^label 4 has 0 parents, not 1$"):
            Tree.deserialize("n=1000000; 1:(2,3)")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1024 * 1024


def test_stats_reject_single_node_tree():
    t0 = Tree(0, {})
    with pytest.raises(StatisticUndefined):
        eoc(t0)
    with pytest.raises(StatisticUndefined):
        pom(t0)
    with pytest.raises(StatisticUndefined):
        ha12_map(t0)


def test_stat_ranges():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            assert 2 <= eoc(t) <= 2 * n
            assert eoc(t) not in t.children  # a leaf
            assert 1 <= pom(t) <= 2 * n - 1
            assert eoc(t) != pom(t)


def test_ha12_worked_pair():
    assert ha12_map(SOURCE_TREE) == IMAGE_TREE


def test_ha12_fixed_point_n1():
    t1 = Tree(1, {1: (2, 3)})
    assert ha12_map(t1) == t1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ha12_bijection_exhaustive(n):
    images = set()
    total = 0
    for t in enumerate_trees(n):
        image = ha12_map(t)
        image.validate()
        assert eoc(t) == pom(image) + 1
        images.add(image.serialize())
        total += 1
    assert len(images) == total == tree_count(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_shift_kernel_matches_the_tree_api(n):
    size = 2 * n + 1
    for t in enumerate_trees(n):
        end, parent = trees._chain_shift([(p, a, b) for p, (a, b) in t.children.items()], size)
        assert end == eoc(t)
        from_image = [0] * (size + 1)
        for p, (a, b) in ha12_map(t).children.items():
            from_image[a] = from_image[b] = p
        assert parent == from_image
        # the relabel rule spelled out again from minimal_chain
        chain = minimal_chain(t)
        relabel = {v: v - 1 for v in range(1, size + 1)}
        relabel.update(zip(chain, [c - 1 for c in chain[1:]] + [size]))
        expected = [0] * (size + 1)
        for p, (a, b) in t.children.items():
            expected[relabel[a]] = expected[relabel[b]] = relabel[p]
        assert parent == expected


def test_chain_shift_failure_holds_on_every_tree_and_needs_n_at_least_1():
    assert [trees.chain_shift_failure(n) for n in (1, 2, 3, 4)] == [None] * 4
    for n in (0, -1):
        with pytest.raises(StatisticUndefined, match=f"needs n >= 1, got {n}"):
            trees.chain_shift_failure(n)


def _kernel_keys(n):
    """The _images keys spelled from _chain_shift: eoc, then the parent list."""
    size = 2 * n + 1
    for t in enumerate_trees(n):
        end, parent = trees._chain_shift([(p, a, b) for p, (a, b) in t.children.items()], size)
        yield bytes([end, *parent[1:]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_built_images_match_the_kernel_in_order(n):
    built = [key.to_bytes(2 * n + 2, "little") for key in trees._images(n)]
    assert built == list(_kernel_keys(n))


# sha256 of the 349 504 keys of n = 6 in order, each as _kernel_keys gives it,
# recorded from _chain_shift over the trees of n = 6 in enumeration order
_IMAGES_6_DIGEST = "2075407d27395bbb31ec4f65106a364d95c93c9d870173336c59f8429f90680f"


def test_built_images_of_n6_match_the_recorded_kernel_digest():
    # the kernel loop takes about 1.3 s at n = 6, so its digest is pinned
    digest = hashlib.sha256()
    count = 0
    for key in trees._images(6):
        digest.update(key.to_bytes(14, "little"))
        count += 1
    assert count == tree_count(6) == 349504
    assert digest.hexdigest() == _IMAGES_6_DIGEST
    assert trees.chain_shift_failure(6) is None


def test_chain_shift_failure_keeps_nothing_after_it_returns():
    tree_count(5)  # the triangle's cache is not the check's
    before = _module_state()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    gc.disable()  # so that a reference cycle would keep its memory too
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert trees.chain_shift_failure(5) is None
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        gc.enable()
        if not tracing:
            tracemalloc.stop()
    # every module-level cache is as it was
    assert _module_state() == before
    # the 11 056 images and their parts alone take about 1 MiB while it runs
    assert kept < 64 * 1024


def test_chain_shift_failure_counts_the_domain(monkeypatch):
    # every tree passes, but a short count is a failure of its own
    monkeypatch.setattr(trees, "tree_count", lambda n: 4)
    assert trees.chain_shift_failure(2) is None
    assert trees.chain_shift_failure(3) == "bijection domain size mismatch"


def test_serialization_roundtrip():
    for t in enumerate_trees(3):
        assert Tree.deserialize(t.serialize()) == t
    assert Tree.deserialize("n=0") == Tree(0, {})
    assert Tree.deserialize("  n=1; 1:(3,2);  ") == Tree(1, {1: (2, 3)})


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1:(2,3)",
        "n=-3",
        "n=x",
        "n=2; 1:(2,3); 1:(4,5)",
        "n=1; 1:(2)",
        "n=1; 1:(2,x)",
        "n=3; 1:(2,3)",
        "n=1; 2:(1,3)",
        "n=1; 1:(2,\u0663)",
        "n=5; 1:(2,3); 3:(4,5); 5:(6,7); 7:(8,9); 9:(1_0,11)",
        "n=+1; 1:(2,3)",
        "n=1; 1:2,3",
        "n=1; 1:((2,3))",
    ],
)
def test_deserialize_rejects_malformed(text):
    with pytest.raises(ValueError):
        Tree.deserialize(text)


def test_joint_distribution_small():
    d1 = joint_distribution(1)
    assert d1.rows == ((0, 0), (1, 0))
    d2 = joint_distribution(2)
    assert d2.rows == ((0, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 0))
    d4 = joint_distribution(4)
    assert d4.total() == 496


def test_joint_distribution_structure():
    for n in (1, 2, 3):
        d = joint_distribution(n)
        w = 2 * n
        assert all(d.value(i, i) == 0 for i in range(1, w + 1))
        assert all(d.value(1, k) == 0 for k in range(1, w + 1))
        assert all(d.value(m, w) == 0 for m in range(1, w + 1))


def test_enumeration_limit_guard():
    limit = CENSUS_LIMIT
    with pytest.raises(CensusLimitError, match=f"^n={limit + 1} exceeds the census limit {limit};"):
        joint_distribution(limit + 1)
