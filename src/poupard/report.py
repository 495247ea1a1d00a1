"""Structured pass/fail reporting for the verification suites."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckRecord(NamedTuple):
    name: str
    params: Dict[str, object]
    status: str
    counterexample: Optional[str] = None
    seconds: float = 0.0
    #: every failure of the check, in order; the first is the counterexample
    failures: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "counterexample": self.counterexample,
            "seconds": round(self.seconds, 6),
        }
        if self.status == FAIL:
            out["more_failures"] = list(self.failures[1:])
        return out


class VerifyReport:
    def __init__(self, checks: Optional[List[CheckRecord]] = None) -> None:
        self.checks: List[CheckRecord] = [] if checks is None else checks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self) -> str:
        return f"VerifyReport(checks={self.checks!r})"

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def sorted_checks(self) -> List[CheckRecord]:
        return sorted(self.checks, key=lambda r: (r.name, json.dumps(r.params, sort_keys=True)))

    def passed(self) -> bool:
        """True iff at least one check ran and none failed."""
        return bool(self.checks) and all(r.status != FAIL for r in self.checks)

    def exit_code(self) -> int:
        return 0 if self.passed() else 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed(),
                "checks": [r.to_dict() for r in self.sorted_checks()],
            },
            indent=2,
            sort_keys=True,
        )

    def summary_lines(self) -> List[str]:
        lines = []
        for r in self.sorted_checks():
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            head = f"{r.status.upper():7s} {r.name}"
            if params:
                head += f" [{params}]"
            head += f" ({r.seconds:.2f}s)"
            lines.append(head)
            if r.status == FAIL and r.counterexample:
                lines.append(f"        counterexample: {r.counterexample}")
                lines.extend(f"        also: {f}" for f in r.failures[1:])
        n_fail = sum(1 for r in self.checks if r.status == FAIL)
        n_skip = sum(1 for r in self.checks if r.status == SKIPPED)
        lines.append(
            f"{len(self.checks)} checks: "
            f"{len(self.checks) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped"
        )
        return lines


@contextmanager
def timed_check(
    report: VerifyReport, name: str, params: Dict[str, object]
) -> Iterator[List[str]]:
    """Collect failure strings inside the with-block; empty list means pass.

    Exceptions are captured as failures rather than aborting the run.
    """
    failures: List[str] = []
    start = time.perf_counter()
    try:
        yield failures
    except Exception as exc:  # a crashed check is a failed check
        failures.append(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    report.add(
        CheckRecord(
            name=name,
            params=params,
            status=FAIL if failures else PASS,
            counterexample=failures[0] if failures else None,
            seconds=seconds,
            failures=tuple(failures),
        )
    )
