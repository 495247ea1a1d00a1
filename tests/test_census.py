"""Second-difference census identities on enumerated trees."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import poupard
from poupard import delta, trees, verify
from poupard.delta import DeltaMatrix, build_matrix, region_cells
from poupard.report import FAIL, PASS, SKIPPED
from poupard.trees import (
    CensusLimitError,
    census_tables,
    enumerate_trees,
    eoc,
    minimal_chain,
    pom,
)
from poupard.verify import run_checks


def test_census_witness_examples():
    # grids are 0-based: field[m-1][k-1] counts the trees at (m, k)
    assert census_tables(3).r1_witness[3 - 1][1 - 1] == 1
    assert census_tables(3).r2_inside[2 - 1][3 - 1] == 0
    tables = census_tables(2)
    total = tables.r2_outside[4 - 1][1 - 1] + tables.r2_inside[4 - 1][1 - 1]
    assert total == 1  # equals f_1(2,1) via the reduction identity


@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_second_difference_identity(n):
    tables = census_tables(n)
    joint = DeltaMatrix(n, tables.joint)
    for (m, k) in list(region_cells("L1", n)) + list(region_cells("U2", n)):
        d2 = joint.value(m + 2, k) - 2 * joint.value(m + 1, k) + joint.value(m, k)
        assert d2 + 2 * tables.r1_witness[m - 1][k - 1] == 0, (n, m, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_column_second_difference_identity(n):
    tables = census_tables(n)
    joint = DeltaMatrix(n, tables.joint)
    for (m, k) in list(region_cells("L2", n)) + list(region_cells("U1", n)):
        d2 = joint.value(m, k + 2) - 2 * joint.value(m, k + 1) + joint.value(m, k)
        outside = tables.r2_outside[m - 1][k - 1]
        inside = tables.r2_inside[m - 1][k - 1]
        assert d2 + 2 * (outside + inside) == 0, (n, m, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inside_term_vanishes_above_diagonal(n):
    tables = census_tables(n)
    for (m, k) in region_cells("U1", n):
        assert tables.r2_inside[m - 1][k - 1] == 0


def test_witness_counts_match_previous_matrix():
    # the reduction identities: the R1 witness count at (m,k) equals
    # f_{n-1}(m,k) on L1 and f_{n-1}(m,k-2) on U2; the combined R2 witnesses
    # give f_{n-1}(m-2,k) on L2 and f_{n-1}(m,k) on U1.
    for n in (2, 3, 4):
        tables = census_tables(n)
        prev = build_matrix(n - 1, "D1")
        for (m, k) in region_cells("L1", n):
            assert tables.r1_witness[m - 1][k - 1] == prev.value(m, k)
        for (m, k) in region_cells("U2", n):
            assert tables.r1_witness[m - 1][k - 1] == prev.value(m, k - 2)
        for (m, k) in region_cells("L2", n):
            combined = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
            assert combined == prev.value(m - 2, k)
        for (m, k) in region_cells("U1", n):
            combined = tables.r2_outside[m - 1][k - 1] + tables.r2_inside[m - 1][k - 1]
            assert combined == prev.value(m, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_matrix_recurrences(n):
    mat = build_matrix(n, "D1")
    prev = build_matrix(n - 1, "D1")
    for (m, k) in region_cells("L1", n):
        assert (
            mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k)
            + 2 * prev.value(m, k)
            == 0
        )
    for (m, k) in region_cells("U2", n):
        assert (
            mat.value(m + 2, k) - 2 * mat.value(m + 1, k) + mat.value(m, k)
            + 2 * prev.value(m, k - 2)
            == 0
        )
    for (m, k) in region_cells("L2", n):
        assert (
            mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k)
            + 2 * prev.value(m - 2, k)
            == 0
        )
    for (m, k) in region_cells("U1", n):
        assert (
            mat.value(m, k + 2) - 2 * mat.value(m, k + 1) + mat.value(m, k)
            + 2 * prev.value(m, k)
            == 0
        )


def test_force_lifts_census_cap(monkeypatch):
    # a census limit below n_max, so that only force can reach n = 6; verify
    # reads it at call time
    monkeypatch.setattr(trees, "CENSUS_LIMIT", 5)

    def census_ns(force, status=PASS):
        report = run_checks(["census"], n_max=6, force=force)
        assert report.passed()
        return {
            r.params["n"]
            for r in report.checks
            if r.name == "census/second-difference" and r.status == status
        }

    assert census_ns(False) == {2, 3, 4, 5}
    assert census_ns(False, SKIPPED) == {6}
    assert census_ns(True) == {2, 3, 4, 5, 6}
    assert census_ns(True, SKIPPED) == set()


@pytest.mark.parametrize(
    "suite, name, n_min",
    [
        ("enumeration", "enumeration/joint", 1),
        ("bijection", "bijection/chain-shift", 1),
        ("census", "census/second-difference", 2),
    ],
)
def test_suite_records_n_above_its_cap_as_skipped(monkeypatch, suite, name, n_min):
    # bijection has a cap of its own; the other two stop at the census limit
    if suite == "bijection":
        monkeypatch.setattr(verify, "BIJECTION_CAP", 2)
    else:
        monkeypatch.setattr(trees, "CENSUS_LIMIT", 2)

    def statuses(force):
        report = run_checks([suite], n_max=3, force=force)
        assert report.passed()
        return {r.params["n"]: r.status for r in report.checks if r.name == name}

    checked = {n: PASS for n in range(n_min, 3)}
    assert statuses(False) == {**checked, 3: SKIPPED}
    assert statuses(True) == {**checked, 3: PASS}


def _bijection_records(n_max):
    report = run_checks(["bijection"], n_max=n_max)
    return {r.params["n"]: r for r in report.checks if r.name == "bijection/chain-shift"}


def test_bijection_check_fails_on_an_image_collision(monkeypatch):
    # every tree of one n is sent to the image of the first tree of that n
    images = trees._images

    def colliding(n):
        keys = list(images(n))
        return [keys[0]] * len(keys)

    monkeypatch.setattr(trees, "_images", colliding)
    records = _bijection_records(3)
    assert records[1].status == PASS  # T_3 has one tree, so nothing collides
    second = list(enumerate_trees(2))[1]
    assert records[2].status == FAIL
    assert records[2].counterexample == f"image collision at {second.serialize()}"
    assert records[3].status == FAIL
    assert records[3].counterexample.startswith("image collision at n=3;")


def test_bijection_check_fails_where_eoc_is_not_pom_of_the_image_plus_one(monkeypatch):
    # the identity is a bijection, but eoc(t) = pom(t) + 1 fails on most trees
    images = trees._images

    def identity(n):
        # each tree's own parent list as its image, byte 0 still its eoc
        for key, t in zip(images(n), enumerate_trees(n)):
            parent = [key & 255] + [0] * (2 * n + 1)
            for p, (a, b) in t.children.items():
                parent[a] = parent[b] = p
            yield int.from_bytes(bytes(parent), "little")

    monkeypatch.setattr(trees, "_images", identity)
    records = _bijection_records(2)
    assert records[1].status == PASS  # the one tree of T_3 is a fixed point of the map
    bad = next(t for t in enumerate_trees(2) if eoc(t) != pom(t) + 1)
    assert records[2].status == FAIL
    assert records[2].counterexample == (
        f"eoc != pom(image)+1 at {bad.serialize()}: {eoc(bad)} vs {pom(bad)}"
    )


_HUNG_UNDER_3 = """
from poupard import trees, verify

images = trees._images  # kept, as hung replaces the module's name

def hung(n):
    # label 2 hung under label 3 in every image: the map stays injective and
    # eoc = pom(image) + 1 still holds, but the image edge 3->2 decreases
    for key in images(n):
        row = bytearray(key.to_bytes(2 * n + 2, "little"))
        row[2] = 3
        yield int.from_bytes(row, "little")

trees._images = hung
for record in verify.run_checks(["bijection"], n_max=2).checks:
    print(record.params["n"], record.status, record.counterexample)
"""


def test_bijection_check_fails_on_an_image_that_is_not_increasing():
    # under -O as well, so that the check is no assert
    src = str(Path(poupard.__file__).resolve().parent.parent)
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _HUNG_UNDER_3],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        firsts = [next(enumerate_trees(n)).serialize() for n in (1, 2)]
        assert proc.stdout.splitlines() == [
            f"{n} {FAIL} image not increasing at {first}: edge 3->2"
            for n, first in zip((1, 2), firsts)
        ]


def test_bijection_check_builds_no_tree(monkeypatch):
    # the check runs on label triples; a Tree per tree was most of its cost.
    # trees.chain_shift_failure does the whole check, and verify still imports
    # Tree for its golden suite, so both names are patched
    def forbidden(*args, **kwargs):
        raise AssertionError("the bijection check built a Tree")

    monkeypatch.setattr(trees, "Tree", forbidden)
    monkeypatch.setattr(verify, "Tree", forbidden)
    report = run_checks(["bijection"], n_max=5)
    assert report.passed()
    assert [r.params["n"] for r in report.checks] == [1, 2, 3, 4, 5]


def test_report_that_checked_nothing_does_not_pass():
    report = run_checks(["census"], n_max=1)
    assert report.checks == []
    assert not report.passed()
    assert report.exit_code() == 1
    assert '"passed": false' in report.to_json()


@pytest.mark.parametrize(
    "checks, kwargs, message",
    [
        (["gf"], {"cap": -3}, "cap must be >= 0"),
        (["enumeration"], {"n_max": 0}, "n_max must be >= 1"),
    ],
    ids=["gf-cap", "enumeration-n-max"],
)
def test_run_checks_rejects_ranges_that_check_nothing(checks, kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_checks(checks, **kwargs)


def test_census_makes_one_pass_for_every_n(monkeypatch):
    # a pass for the largest n serves every smaller n, whatever limit the
    # callers pass, and the verify suites ask for their largest n first
    passes = []
    census_pass = trees._census_pass

    def counted(top):
        passes.append(top)
        return census_pass(top)

    monkeypatch.setattr(trees, "_census_pass", counted)
    census_tables.cache_clear()
    census_tables(3)
    census_tables(4)
    assert passes == [3, 4]  # a larger n runs a new pass
    census_tables.cache_clear()
    first = census_tables(20)
    ns = list(range(1, 21))
    for order in (ns, ns[::-1], random.Random(7).sample(ns, len(ns))):
        for n in order:
            tables = census_tables(n, limit=n)
            assert census_tables(n, limit=30) is tables
            assert trees.joint_distribution(n).rows == tables.joint
    assert census_tables(20) is first
    assert passes == [3, 4, 20]
    with pytest.raises(CensusLimitError):
        census_tables(3, limit=2)
    for checks in (["enumeration", "census"], ["census"]):
        census_tables.cache_clear()
        passes.clear()
        assert run_checks(checks, n_max=20).passed()
        assert passes == [20], checks


def test_census_limit_is_read_at_call_time(monkeypatch):
    # census_tables and joint_distribution read the default limit when they
    # are called, as verify does, not when the module is imported
    monkeypatch.setattr(trees, "CENSUS_LIMIT", 9)
    assert census_tables(8).joint == trees.joint_distribution(8).rows
    monkeypatch.setattr(trees, "CENSUS_LIMIT", 2)
    for count in (census_tables, trees.joint_distribution):
        with pytest.raises(CensusLimitError, match="^n=3 exceeds the census limit 2;"):
            count(3)


def _tables_from_tree_api(n):
    """The four CensusTables grids, recomputed tree by tree from the Tree API
    and the CensusTables definitions (subtree membership by walking parents
    up to the root).  The trees come from enumerate_trees, the shape
    enumerator, while census_tables walks its own labels, so the oracle test
    compares two independent enumerations of T_{2n+1}."""
    w = 2 * n
    grids = {name: [[0] * w for _ in range(w)] for name in ("joint", "r1", "out", "in")}
    for t in enumerate_trees(n):
        m, k = eoc(t), pom(t)
        assert m == minimal_chain(t)[-1] and m not in t.children
        par = {c: p for p, pair in t.children.items() for c in pair}
        ancestors = set()
        v = m
        while v != 1:
            v = par[v]
            ancestors.add(v)
        grids["joint"][m - 1][k - 1] += 1
        # r1_witness at (eoc-1, pom): eoc-1 is the parent of leaves eoc, eoc+1
        r = m - 1
        if t.children.get(r) == (r + 1, r + 2) and not {r + 1, r + 2} & t.children.keys():
            grids["r1"][r - 1][k - 1] += 1
        # r2 witnesses at (eoc, pom-1)
        q = k - 1
        if q < 1 or q + 2 in t.children:
            continue
        if q + 2 in t.children.get(q + 1, ()) and par[q + 1] == q and q not in ancestors:
            grids["out"][m - 1][q - 1] += 1
        if t.children.get(q) == (q + 1, q + 2) and q in ancestors:
            grids["in"][m - 1][q - 1] += 1
    freeze = lambda g: tuple(tuple(row) for row in g)
    return tuple(freeze(grids[name]) for name in ("joint", "r1", "out", "in"))


# sha256 of each CensusTables grid (joint, r1_witness, r2_outside, r2_inside),
# rows as space-separated decimals joined by newlines; recorded from the
# shape enumerator's census before the label walk replaced it
_CENSUS_DIGESTS = {
    1: (
        "f0f7128001712310bc43149807af957c76c9fc2e7ed896a96269b0276fd66219",
        "eadfc5d15bf20057723724f36bc6211546eb29298cde3be5ff596b7e641ce501",
        "cb9b7e9a81a3a08452ca1d29bda759ee80c88054ba46b528fca19e11f84318f2",
        "cb9b7e9a81a3a08452ca1d29bda759ee80c88054ba46b528fca19e11f84318f2",
    ),
    2: (
        "880b76b3b64756224f9b5dfe11b842154a5da87c5f5ea6c40d04fd9d260c8b4c",
        "68ceb3073fa16a9bbeeea3688368dbdba067135516abe8c1db326a5d6b1bbb7d",
        "43e0c7b55f88d5eb26bc2b6b849b92d973c5b908cb49b54e1ad6f440f7964839",
        "fef9da73b7a43250e4ca3b2db6350a6c6390a673f76bc9c408165f4e351bd85f",
    ),
    3: (
        "bbeaf9130f38696ac3e9a728d3b2de5bba5611b2a9b12faf2e3eaac9f4a44f56",
        "021d0fc422832873b36839c4b9873c72bba7d9026da39ebb20995e830dd1a0c5",
        "94e631fa9b8eb08b0d7e357e4b7000d3443784275a0b7ab5821313dab6df1d3c",
        "4ad0f0bdc81909c9f5924426faf34f4fd7550bea6c8c5129dc058a4ae527d0c9",
    ),
    4: (
        "9c438ca5b384cff712e0e6a2044ed2f97d207144e085ee9f1c64e46334acc4d2",
        "8abfcc2a4a24ee6b8bdc99c9d035a49f36f83184f081fc623631c6f996a3eca8",
        "c3770e9ab57caca0a12ff32ab152aef6768d0a01aecfb3f41f288e97628e56d5",
        "561fe7b5cfec72e5a3d4cbfc36092c34fd9d14f07733c80c280f721294cfa59a",
    ),
    5: (
        "6b582dca58bc3a80fce6bb2aaa883a5e2393401db7a1be6752889c5826efde9d",
        "dd23e6db8d63eecf8c5e196cdd48713b87bb90cb3b68fe712318949dced7a0ab",
        "2e505d0908b1c23dbb994583bca6433d8b8c4a18f3f9f9458fd36b99c6675add",
        "ef57d1758bf48f3dd86d5743c3a9263da5d232873005c6e9fb76cbb3ac037b5e",
    ),
    6: (
        "b3826a612b86c3531aeb694b1d0b40edbf6936fea2044123d28c829208571726",
        "8b75b1a2b07c7122d94f1714e425455a57d40a26c950cedfa898dca0f3cfdb05",
        "59396eb56faebf199911a970d181e42b7996e55f34bdf6053b2117eda2ccd81f",
        "7ab6eb9950654b3fc8c0cb40f36e34a1f34012c2a009aef4089fbeb22c54283a",
    ),
}


def _grid_digest(grid):
    text = "\n".join(" ".join(map(str, row)) for row in grid)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(_CENSUS_DIGESTS))
def test_census_tables_match_recorded_digests(n):
    tables = census_tables(n)
    grids = (tables.joint, tables.r1_witness, tables.r2_outside, tables.r2_inside)
    assert tuple(_grid_digest(g) for g in grids) == _CENSUS_DIGESTS[n]


def test_census_tables_need_no_solver(monkeypatch):
    # the census is an oracle for the matrices, so it must not be built from them
    def forbidden(*args, **kwargs):
        raise AssertionError("the census called the matrix solver")

    monkeypatch.setattr(delta, "build_matrix", forbidden)
    monkeypatch.setattr(delta, "solve_constraints", forbidden)
    census_tables.cache_clear()
    for n in sorted(_CENSUS_DIGESTS):
        tables = census_tables(n)
        grids = (tables.joint, tables.r1_witness, tables.r2_outside, tables.r2_inside)
        assert tuple(_grid_digest(g) for g in grids) == _CENSUS_DIGESTS[n]
        assert trees.census_identity_failure(tables) is None, n


def test_census_joint_matches_the_matrices_past_enumeration():
    census_tables(20)  # the largest n first, so that one pass serves them all
    for n in range(7, 21):
        assert census_tables(n, limit=n).joint == build_matrix(n, "D1").rows, n


def test_census_suites_stop_at_the_census_limit():
    # the census limit itself runs unforced; the n above it is skipped in
    # both suites, with the limit named
    limit = trees.CENSUS_LIMIT
    report = run_checks(["enumeration", "census"], n_max=limit + 1)
    assert report.passed()
    skipped = {(r.name, r.params["n"], r.counterexample) for r in report.checks if r.status == SKIPPED}
    reason = f"n={limit + 1} above census limit {limit}"
    assert skipped == {
        ("enumeration/joint", limit + 1, reason),
        ("census/second-difference", limit + 1, reason),
    }
    ran = {(r.name, r.params["n"]) for r in report.checks if r.status == PASS}
    assert {("enumeration/joint", limit), ("census/second-difference", limit)} <= ran


def test_census_pass_keeps_only_states_that_can_close(monkeypatch):
    # a leaf opens only while o < w - j, so after position j no state has more
    # than w - j open positions, and at j = w - 1 none has more than one;
    # without the bound the end step would still pick out the same states, and
    # the grids alone could not tell
    top = 8
    kept = {}
    read = trees._census_read

    def recording(n, states):
        kept[2 * n - 1] = max(o for o, *_ in states)
        return read(n, states)

    monkeypatch.setattr(trees, "_census_read", recording)
    census_tables.cache_clear()
    census_tables(top)
    assert kept == {j: min(j, 2 * top - j) for j in range(1, 2 * top, 2)}


def test_forced_tree_suites_pass_up_to_n_9():
    report = run_checks(["enumeration", "census"], n_max=9, force=True)
    assert report.passed()
    for name, n_min in (
        ("enumeration/joint", 1),
        ("census/second-difference", 2),
        ("census/matrix-recurrences", 2),
    ):
        statuses = {r.params["n"]: r.status for r in report.checks if r.name == name}
        assert statuses == {n: PASS for n in range(n_min, 10)}, name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_matches_tree_api_oracle(n):
    tables = census_tables(n)
    got = (tables.joint, tables.r1_witness, tables.r2_outside, tables.r2_inside)
    assert got == _tables_from_tree_api(n)
