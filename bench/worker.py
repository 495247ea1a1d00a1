"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 -I bench/worker.py '<job json>'

The job names the workload spec, the mode (`plain`, `trace` or `count`),
the seed, the pass index and the `src` directory to import poupard from.
The pass imports poupard, runs the workload once under a timer, and only
then gathers what the driver needs to check its outputs: digests of the
data outputs and seed-sampled values paired with an independent oracle.
It prints one JSON line; comparing against references is the driver's job.

Modes:
  plain  nothing wrapped; gives the end-to-end numbers
  trace  layer functions wrapped in spans (see tracing.py)
  count  RootTwoScalar operations counted, nothing timed
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import CallCounter, Tracer  # noqa: E402

SAMPLES = 8  # seed-chosen oracle comparisons per output kind


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def monotonic() -> float:
    """System-wide clock, comparable with the driver's spawn timestamp."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def install_tracer(tracer: Tracer) -> dict:
    """Wrap every layer's public functions; returns a holder that receives
    the VerifyReport of the traced run."""
    from poupard import cli, delta, gf, report, series, trees, triangle, verify

    captured: dict = {}
    counts = tracer.counts

    def keep_report(_args, result):
        captured["report"] = result

    def solved(args, _result):
        counts["delta.chain_builds"] += 1
        counts["delta.cells_solved"] += (2 * args[0]) ** 2

    def multiplied(args, result):
        counts["series.mul_term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        counts["series.terms_out"] += len(result.coeffs)

    def series_out(_args, result):
        counts["series.terms_out"] += len(result.coeffs)

    def tangents(_args, result):
        counts["triangle.tangent_terms"] += len(result)

    tracer.wrap("cli.main", cli.main)
    tracer.wrap("verify.run_checks", verify.run_checks, keep_report)
    for family in verify.ALL_CHECKS:
        attr = "check_" + family.replace("-", "_")
        tracer.wrap("verify." + attr, getattr(verify, attr))
    tracer.wrap_method("report.render", report.VerifyReport, "summary_lines")
    tracer.wrap_method("report.render", report.VerifyReport, "to_json")

    tracer.wrap("delta.build_matrix", delta.build_matrix)
    tracer.wrap("delta.solve_constraints", delta.solve_constraints, solved)
    tracer.wrap("delta.properties", delta.matrix_properties_check)
    tracer.wrap("delta.eoc_pom_polynomial", delta.eoc_pom_polynomial)

    tracer.replace_everywhere(
        trees.enumerate_trees,
        tracer.traced_generator("trees.enumerate", trees.enumerate_trees, "trees.trees_visited"),
    )
    tracer.wrap("trees.census", trees.census_tables)
    tracer.wrap("trees.bijection", trees.ha12_map)
    tracer.wrap("trees.stats", trees.eoc)
    tracer.wrap("trees.stats", trees.pom)
    tracer.wrap("trees.tree_count", trees.tree_count)

    tracer.wrap("triangle.tangent", triangle.tangent_numbers, tangents)
    tracer.wrap("triangle.poupard_triangle", triangle.poupard_triangle)
    tracer.wrap("triangle.is_poupard_matrix", triangle.is_poupard_matrix)

    # `mul` is `a * b`, and gf also multiplies with `*` directly.
    tracer.wrap_method("series.mul", series.TriSeries, "__mul__", multiplied)
    tracer.wrap("series.reciprocal", series.reciprocal, series_out)
    tracer.wrap("series.trig", series.trig_series, series_out)

    tracer.wrap("gf.rhs", gf.lambda_rhs)
    tracer.wrap("gf.rhs", gf.omega_rhs)
    tracer.wrap("gf.lhs", gf.lambda_lhs)
    tracer.wrap("gf.lhs", gf.omega_lhs)
    tracer.wrap("gf.closed_forms", gf.lambda1_closed_forms)
    tracer.wrap("gf.reindex", gf.reindex_lambda)
    tracer.wrap("gf.reindex", gf.reindex_omega)
    tracer.wrap("gf.boundary_relations", gf.boundary_relations_check)
    return captured


def install_counter(counter: CallCounter) -> None:
    from poupard.scalars import RootTwoScalar

    counter.count_method("scalars.mul_calls", RootTwoScalar, "__mul__")
    counter.count_method("scalars.add_calls", RootTwoScalar, "__add__")
    counter.count_method("scalars.inverse_calls", RootTwoScalar, "inverse")


# ---------------------------------------------------------------------------
# Output collection (after the timed call)
# ---------------------------------------------------------------------------


def verify_statuses(text: str) -> dict:
    """Count the PASS/FAIL/SKIPPED lines of a `poupard verify` summary."""
    statuses = {"pass": 0, "fail": 0, "skipped": 0}
    for line in text.splitlines():
        head = line.split(" ", 1)[0].lower()
        if head in statuses:
            statuses[head] += 1
    return statuses


def gf_dump(which: str, cap: int) -> list:
    """The lines `poupard gf --cap <cap> --which <which>` prints."""
    from poupard import gf
    from poupard.delta import delta_matrices
    from poupard.series import dump_lines

    matrices = delta_matrices(gf.required_matrix_count(cap))
    lhs = gf.lambda_lhs if which == "lambda" else gf.omega_lhs
    return dump_lines(lhs(cap, matrices))


def gf_cell(which: str, i: int, j: int, l: int):
    """(n, m, k) of the matrix entry behind a lambda/omega monomial."""
    two_n = i + j + l + 2
    if which == "lambda":
        return two_n // 2, i + j + 2, j + 1
    return two_n // 2, l + 1, j + l + 2


def collect_outputs(outputs: dict, rng: random.Random, tangent_list) -> tuple:
    """Digests of the data outputs and (label, got, oracle) samples."""
    from poupard.delta import build_matrix
    from poupard.triangle import poupard_triangle
    from poupard.trees import joint_distribution

    digests = {}
    oracle = []
    if "matrices" in outputs:
        for n in range(1, outputs["matrices"] + 1):
            digests[f"matrix_json_sha256/{n}"] = sha256(build_matrix(n, "D1").to_json())
    if "census_cells" in outputs:  # matrix cells against tree enumeration
        n_max = outputs["census_cells"]
        for _ in range(SAMPLES):
            n = rng.randint(1, n_max)
            m, k = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
            got = build_matrix(n, "D1").value(m, k)
            want = joint_distribution(n, limit=n_max).value(m, k)
            oracle.append((f"M_{n}({m},{k}) vs census", got, want))
    if "row_sums" in outputs:  # matrix row sums against the 1-D triangle
        n_max = outputs["row_sums"]
        tri = poupard_triangle(n_max)
        for _ in range(SAMPLES):
            n = rng.randint(1, n_max)
            m = rng.randint(1, 2 * n)
            oracle.append(
                (f"row {m} of M_{n} vs triangle", build_matrix(n, "D1").row_sum(m), tri.value(n, m))
            )
    if "gf" in outputs:  # series dumps; low-degree coefficients against census
        cap = outputs["gf"]
        for which in ("lambda", "omega"):
            lines = gf_dump(which, cap)
            digests[f"gf_dump_sha256/{which}/{cap}"] = sha256("\n".join(lines) + "\n")
            low = [ln.split() for ln in lines if sum(map(int, ln.split()[:3])) <= 8]
            for i, j, l, a, b in rng.sample(low, min(SAMPLES, len(low))):
                i, j, l = int(i), int(j), int(l)
                n, m, k = gf_cell(which, i, j, l)
                want = Fraction(
                    joint_distribution(n, limit=5).value(m, k),
                    factorial(i) * factorial(j) * factorial(l),
                )
                oracle.append((f"{which} [{i} {j} {l}] vs census", f"{a} {b}", f"{want} 0"))
    if tangent_list is not None:  # tangent numbers against triangle row sums
        count = len(tangent_list)
        digests[f"tangent_json_sha256/{count}"] = sha256(json.dumps(tangent_list))
        tri = poupard_triangle(count - 1)
        for n, t in enumerate(tangent_list):
            oracle.append((f"T_{2 * n + 1} vs triangle", t, sum(tri.row(n)) * 2**n))
    return digests, oracle


def normalise_fraction(text: str) -> str:
    return " ".join(str(Fraction(part)) for part in text.split())


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def run_pass(spec: dict, mode: str, seed: int, index: int, spans_out=None) -> dict:
    """Run one pass in this interpreter and return its raw sample."""
    import poupard.cli  # noqa: F401  (the import is part of set-up)
    import poupard.triangle

    call = spec["call"]
    argv = list(call.get("cli", ()))
    tracer = Tracer() if mode == "trace" else None
    counter = CallCounter() if mode == "count" else None
    captured = install_tracer(tracer) if tracer else {}
    if counter:
        install_counter(counter)
    sample: dict = {"mode": mode, "index": index, "t_ready": monotonic(), "error": None}

    out = io.StringIO()
    tangent_list = None
    code = None
    start = time.perf_counter()
    try:
        if "cli" in call:
            with redirect_stdout(out):
                try:
                    code = poupard.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        else:
            tangent_list = poupard.triangle.tangent_numbers(call["tangent"])
    except Exception:
        sample["error"] = traceback.format_exc(limit=3)
    sample["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sample["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    sample["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer:
        tracer.restore()
    if counter:
        counter.restore()
        sample["counts"] = dict(counter.counts)

    if "cli" in call:
        sample["exit_code"] = code
        sample["statuses"] = verify_statuses(out.getvalue())
    if tracer:
        summary = tracer.summary()
        report = captured.get("report")
        summary["checks"] = (
            [(r.name, r.status, r.seconds) for r in report.checks] if report else []
        )
        sample["trace"] = summary
        if spans_out:
            tracer.write(spans_out)
    if sample["error"] is None:
        rng = random.Random(f"{seed}:{index}")
        try:
            digests, oracle = collect_outputs(spec.get("outputs", {}), rng, tangent_list)
        except Exception:
            sample["error"] = traceback.format_exc(limit=3)
        else:
            sample["digests"] = digests
            sample["oracle"] = [
                (label, normalise_fraction(str(got)), normalise_fraction(str(want)))
                for label, got, want in oracle
            ]
    return sample


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import poupard

    if Path(poupard.__file__).resolve().parent.parent != src:
        raise SystemExit(f"poupard imported from {poupard.__file__}, not {src}")
    sample = run_pass(job["spec"], job["mode"], job["seed"], job["index"], job.get("spans_out"))
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
