"""The package's record types: value semantics, and an import graph that
leaves out `dataclasses` and what it loads."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

from poupard.delta import BuildStrategy, DeltaMatrix, PropertyReport
from poupard.report import CheckRecord, VerifyReport
from poupard.scalars import RootTwoScalar
from poupard.series import LinearForm
from poupard.trees import CensusTables, Tree
from poupard.triangle import Triangle

SRC = Path(__file__).resolve().parent.parent / "src"

# one value of each record type, as its fields in declaration order
FIELDS = {
    DeltaMatrix: {"n": 1, "rows": ((0, 0), (1, 0))},
    BuildStrategy: {
        "tag": "D1", "recurrences": frozenset({"R1", "R2"}), "boundary": frozenset({"I1", "I2"})
    },
    PropertyReport: {"n": 2, "ok": False, "failures": ("crossing equality fails at k=2",)},
    CensusTables: {
        "n": 1,
        "joint": ((0, 0), (1, 0)),
        "r1_witness": ((0, 0), (0, 0)),
        "r2_outside": ((0, 0), (0, 0)),
        "r2_inside": ((0, 0), (0, 0)),
    },
    Triangle: {"rows": ((1,), (0, 1, 1))},
    LinearForm: {"alpha": RootTwoScalar(0, 1), "beta": RootTwoScalar(0), "gamma": RootTwoScalar(2)},
    CheckRecord: {"name": "golden/M_1", "params": {"n": 1}, "status": "pass", "seconds": 0.5},
    Tree: {"n": 1, "children": {1: (2, 3)}},
    VerifyReport: {"checks": [CheckRecord("golden/M_1", {"n": 1}, "pass")]},
}
IMMUTABLE = [DeltaMatrix, BuildStrategy, PropertyReport, CensusTables, Triangle, LinearForm]
MUTABLE = [Tree, VerifyReport]
ALL = [*IMMUTABLE, CheckRecord, *MUTABLE]


def make(cls):
    """A fresh value of `cls`, sharing no object with any other."""
    return cls(**copy.deepcopy(FIELDS[cls]))


def ids(classes):
    return [cls.__name__ for cls in classes]


def test_import_leaves_out_dataclasses_and_what_it_loads():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import poupard, poupard.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, "-I", *flags, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", flags


@pytest.mark.parametrize("cls", ALL, ids=ids(ALL))
def test_equal_fields_compare_equal(cls):
    first, second = make(cls), make(cls)
    assert first == second and not first != second
    other = {**FIELDS[cls], next(iter(FIELDS[cls])): None}
    assert first != cls(**other)


@pytest.mark.parametrize("cls", IMMUTABLE, ids=ids(IMMUTABLE))
def test_values_hash_by_value_and_refuse_assignment(cls):
    value = make(cls)
    assert hash(value) == hash(make(cls))
    assert {value: 1}[make(cls)] == 1
    first = next(iter(FIELDS[cls]))
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == make(cls)


def test_check_record_refuses_assignment_and_stays_unhashable():
    record = make(CheckRecord)
    with pytest.raises(AttributeError):
        record.status = "fail"
    with pytest.raises(TypeError):  # its params are a dict
        hash(record)
    assert record._replace(status="fail").status == "fail" and record.status == "pass"


@pytest.mark.parametrize("cls", MUTABLE, ids=ids(MUTABLE))
def test_mutable_records_stay_unhashable(cls):
    with pytest.raises(TypeError):
        hash(make(cls))


@pytest.mark.parametrize("cls", ALL, ids=ids(ALL))
def test_repr_names_the_type_and_each_field(cls):
    value = make(cls)
    text = repr(value)
    assert text.startswith(cls.__name__ + "(")
    for name in FIELDS[cls]:
        assert f"{name}={getattr(value, name)!r}" in text


def test_verify_reports_do_not_share_a_checks_list():
    first, second = VerifyReport(), VerifyReport()
    first.add(make(CheckRecord))
    assert first.checks == [make(CheckRecord)]
    assert second.checks == [] and first != second
