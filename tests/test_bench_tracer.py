"""The benchmark's trace mode wraps names of the package; they must exist."""

import importlib.util
import sys
from pathlib import Path

from poupard import cli, delta, gf, report, series, trees, triangle, verify  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_attributes():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "poupard" or name.startswith("poupard."))
        for attr, value in vars(mod).items()
    }


def test_trace_mode_wraps_and_restores_every_layer(monkeypatch):
    # Every layer is imported above, so install_tracer adds no module.  bench/
    # is only read: no bytecode is written there, and the sys.path entry and
    # the `tracing` module that worker.py adds are taken out afterwards.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(worker)
        before = _package_attributes()
        tracer = worker.Tracer()
        worker.install_tracer(tracer)
        wrapped = delta.solve_constraints
        try:
            verify.run_checks(list(verify.ALL_CHECKS), n_max=2, cap=2)
        finally:
            tracer.restore()
    finally:
        sys.modules.pop("tracing", None)
    assert wrapped.__wrapped__ is before[("poupard.delta", "solve_constraints")]
    assert _package_attributes() == before
    # run_checks finds each suite through the module, so every one is traced
    spans = {span[0] for span in tracer.spans}
    for family in verify.ALL_CHECKS:
        assert "verify.check_" + family.replace("-", "_") in spans, family
    assert len(verify.ALL_CHECKS) == 12
