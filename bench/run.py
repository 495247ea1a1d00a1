"""The poupard benchmark: cold passes of four workloads, checked and timed.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout whose `src/poupard` is the program under
test; nothing needs building.  One client runs a closed loop: it starts a
pass, waits for it to end, and starts the next, until `--seconds` of passes
are done.  Every pass runs in its own fresh interpreter (`worker.py`), so
each one pays the package's cold caches, as every CLI call does, and no
cache carries over from one pass to the next.  At most two processes run at
once: this driver and one pass.  No threads are used.

`--trace 0` prints the end-to-end metrics, from unwrapped passes:
  pass_s        median wall seconds of the workload call in one pass
  setup_s       median seconds from starting a pass's interpreter until
                poupard is imported and the inputs are ready
  peak_rss_mib  median peak resident memory of a pass process
`--trace 1` mixes unwrapped, traced and counting passes (in a seed-chosen
order) and prints the per-layer metrics of `per_layer_metrics`.

Every output is checked outside the timed call.  An operation is one
verification check or one output comparison; a crashed pass, a failed check,
a digest that differs from `references.json`, an oracle mismatch, a nonzero
exit and a verify pass that ran no check each count as a failed operation.
The seed only chooses which cells, coefficients and rows the oracle
comparisons sample, and the order of the passes in a traced run.

The last line of standard output is the JSON result.  The raw per-pass
samples, with the machine, Python version and source identity, go to
`bench/out/<workload>-seed<seed>-trace<t>.json`; the spans of the last
traced pass go to `bench/out/<workload>-spans.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
REFERENCES = BENCH / "references.json"
RUN_LIMIT_S = 170.0  # a run must end within 180 s

MATRIX_CHECKS = "golden,equivalence,symmetry,diagonals,crossing,marginals,poupard-matrices"

# Sizes are fixed so that numbers compare across seeds.
WORKLOADS = {
    # What users run: ~80% trees (census at n=6, bijection to n=5), ~19%
    # series/gf, <1% delta.  Shows whether a layer gain reaches the user.
    "verify-default": {
        "call": {"cli": ["verify", "--checks", "all"]},
        "outputs": {"matrices": 6, "census_cells": 5},
    },
    # All nine strategies solved cold up to 56x56 grids: >95% in
    # delta.solve_constraints, no trees and no series.
    "matrices-n28": {
        "call": {"cli": ["verify", "--checks", MATRIX_CHECKS, "--n-max", "28"]},
        "outputs": {"matrices": 28, "row_sums": 28},
    },
    # Trivariate and bivariate mul/reciprocal/trig over Q(sqrt 2); delta
    # negligible (n <= 11), trees untouched.
    "series-cap16": {
        "call": {"cli": ["verify", "--checks", "gf,closed-forms", "--cap", "16"]},
        "outputs": {"gf": 16},
    },
    # The series layer used univariately at high degree (cap 39), through
    # the library API; the one workload where triangle does the work.
    "tangent-20": {"call": {"tangent": 20}, "outputs": {}},
}

FAMILIES = (
    "golden", "equivalence", "enumeration", "symmetry", "diagonals", "crossing",
    "marginals", "bijection", "census", "gf", "poupard-matrices", "closed-forms",
)
LAYERS = ("cli", "verify", "report", "delta", "trees", "triangle", "series", "gf")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(spec: dict, mode: str, seed: int, index: int, timeout: float, spans_out=None) -> dict:
    """One pass in a fresh interpreter; returns its sample (with `setup_s`)."""
    job = {
        "spec": spec, "mode": mode, "seed": seed, "index": index,
        "src": str(SRC), "spans_out": str(spans_out) if spans_out else None,
    }
    spawned = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "index": index, "error": f"pass exceeded {timeout:.0f} s"}
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"mode": mode, "index": index, "error": "pass crashed: " + tail[0]}
    sample["setup_s"] = sample.pop("t_ready") - spawned
    sample["pass_span_s"] = monotonic() - spawned
    return sample


def score(spec: dict, sample: dict, references: dict) -> tuple:
    """(attempted, failed, problems) of one pass."""
    attempted = failed = 0
    problems = []

    def operation(ok: bool, problem: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(problem)

    if sample.get("error"):
        operation(False, sample["error"].strip().splitlines()[-1])
    if "cli" in spec["call"] and "statuses" in sample:
        statuses = sample["statuses"]
        ran = statuses["pass"] + statuses["fail"]
        attempted += ran
        failed += statuses["fail"]
        if statuses["fail"]:
            problems.append(f"{statuses['fail']} verification checks failed")
        if ran == 0:
            operation(False, "verify ran no check")
        if sample["exit_code"] != 0 and not statuses["fail"]:
            operation(False, f"exit code {sample['exit_code']}")
    for key, digest in sorted(sample.get("digests", {}).items()):
        operation(references.get(key) == digest, f"{key} differs from the reference")
    for label, got, want in sample.get("oracle", []):
        operation(got == want, f"{label}: {got} != {want}")
    return attempted, failed, problems


def pass_modes(trace: bool, rng: random.Random):
    """Modes of successive passes: all plain untraced, or a seed-shuffled
    plain/trace/count triple followed by alternating trace and plain."""
    if not trace:
        while True:
            yield "plain"
    first = ["plain", "trace", "count"]
    rng.shuffle(first)
    yield from first
    pair = ["trace", "plain"]
    rng.shuffle(pair)
    while True:
        yield from pair


def required_modes(trace: bool) -> set:
    return {"plain", "trace", "count"} if trace else {"plain"}


def run(
    spec: dict, seed: int, seconds: float, trace: bool, references: dict,
    spans_out=None, deadline: float | None = None,
) -> dict:
    """Closed loop of passes for `seconds`, ending by `deadline` at the
    latest; returns the samples and scores."""
    rng = random.Random(seed)
    required = required_modes(trace)
    started = monotonic()
    if deadline is None:
        deadline = started + RUN_LIMIT_S
    samples = []
    attempted = failed = 0
    problems = []
    for index, mode in enumerate(pass_modes(trace, rng)):
        elapsed = monotonic() - started
        seen = {s["mode"] for s in samples}
        if required <= seen:
            spans = [s["pass_span_s"] for s in samples if "pass_span_s" in s]
            estimate = statistics.median(spans) if spans else 0.0
            if elapsed + estimate / 2 > seconds:  # end nearest to `seconds`
                break
        remaining = deadline - monotonic()
        if remaining <= 1.0:
            break
        sample = run_pass(
            spec, mode, seed, index, remaining,
            spans_out if mode == "trace" else None,
        )
        samples.append(sample)
        a, f, p = score(spec, sample, references)
        attempted, failed = attempted + a, failed + f
        problems.extend(f"pass {index} ({mode}): {msg}" for msg in p)
        if "pass_span_s" not in sample:  # a crash or a timeout ends the run
            break
    return {"samples": samples, "attempted": attempted, "failed": failed, "problems": problems}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median_of(samples, key):
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else None


def end_to_end_metrics(samples) -> dict:
    plain = [s for s in samples if s["mode"] == "plain" and not s.get("error")]
    return {
        "pass_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
        "setup_s": {"value": median_of(plain, "setup_s"), "unit": "s"},
        "peak_rss_mib": {"value": median_of(plain, "peak_rss_mib"), "unit": "MiB"},
    }


def traced_pass_metrics(sample: dict) -> dict:
    """Per-layer numbers of one traced pass, by metric name."""
    trace = sample["trace"]
    names, counts = trace["names"], trace["counts"]

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    m = {f"verify.{family}_s": 0.0 for family in FAMILIES}
    for name, _status, seconds in trace["checks"]:
        m[f"verify.{name.split('/', 1)[0]}_s"] += seconds
    m["verify.checks"] = len(trace["checks"])
    m["verify.skipped"] = sum(1 for _n, status, _s in trace["checks"] if status == "skipped")
    m["report.render_s"] = total("report.render")

    solve_s = total("delta.solve_constraints")
    cells = counts.get("delta.cells_solved", 0)
    m["delta.build_matrix_s"] = total("delta.build_matrix")
    m["delta.build_matrix_calls"] = calls("delta.build_matrix")
    m["delta.chain_builds"] = counts.get("delta.chain_builds", 0)
    m["delta.cells_solved"] = cells
    m["delta.solve_s"] = solve_s
    m["delta.cells_per_s"] = cells / solve_s if solve_s else 0.0
    m["delta.properties_s"] = total("delta.properties")

    enumerate_s = total("trees.enumerate")
    visited = counts.get("trees.trees_visited", 0)
    m["trees.census_s"] = total("trees.census")
    m["trees.trees_visited"] = visited
    m["trees.enumerate_s"] = enumerate_s
    m["trees.trees_per_s"] = visited / enumerate_s if enumerate_s else 0.0
    m["trees.bijection_s"] = total("trees.bijection")
    m["trees.stats_s"] = total("trees.stats")
    m["trees.tree_count_s"] = total("trees.tree_count")

    m["triangle.tangent_s"] = total("triangle.tangent")
    m["triangle.tangent_terms"] = counts.get("triangle.tangent_terms", 0)
    m["triangle.poupard_triangle_s"] = total("triangle.poupard_triangle")
    m["triangle.is_poupard_matrix_s"] = total("triangle.is_poupard_matrix")

    m["series.mul_s"] = total("series.mul")
    m["series.mul_calls"] = calls("series.mul")
    m["series.mul_term_pairs"] = counts.get("series.mul_term_pairs", 0)
    m["series.reciprocal_s"] = total("series.reciprocal")
    m["series.reciprocal_calls"] = calls("series.reciprocal")
    m["series.trig_s"] = total("series.trig")
    m["series.terms_out"] = counts.get("series.terms_out", 0)

    m["gf.rhs_s"] = total("gf.rhs")
    m["gf.lhs_s"] = total("gf.lhs")
    m["gf.closed_forms_s"] = total("gf.closed_forms")
    m["gf.reindex_s"] = total("gf.reindex")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = trace["layers"].get(layer, 0.0)
    m["trace.pass_s"] = sample["wall_s"]
    m["trace.accounted_ratio"] = sum(trace["layers"].values()) / sample["wall_s"]
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def per_layer_metrics(samples) -> dict:
    ok = [s for s in samples if not s.get("error")]
    traced = [traced_pass_metrics(s) for s in ok if s["mode"] == "trace"]
    plain = [s for s in ok if s["mode"] == "plain"]
    counting = [s for s in ok if s["mode"] == "count"]
    values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    for key in ("scalars.mul_calls", "scalars.add_calls", "scalars.inverse_calls"):
        values[key] = statistics.median(s["counts"].get(key, 0) for s in counting)
    values["proc.cpu_s"] = median_of(plain, "cpu_s")
    values["trace.overhead_ratio"] = values["trace.pass_s"] / median_of(plain, "wall_s")
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def source_identity() -> dict:
    """The git SHA when the checkout is a repository, and a digest of the
    package sources either way."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "poupard").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = monotonic() + RUN_LIMIT_S
    if not (SRC / "poupard" / "__init__.py").is_file():
        print(f"error: no poupard package under {SRC}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    spec = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # Compile the package's bytecode once, so no pass pays for it.
    try:
        subprocess.run(
            [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import poupard.cli"],
            cwd=ROOT, capture_output=True, timeout=30,
        )
    except subprocess.TimeoutExpired:
        pass  # the passes report what is wrong
    outcome = run(
        spec, args.seed, args.seconds, bool(args.trace), references,
        OUT / f"{args.workload}-spans.json", deadline,
    )
    samples = outcome["samples"]
    completed = {s["mode"] for s in samples if not s.get("error")}
    if not required_modes(bool(args.trace)) <= completed:
        for problem in outcome["problems"][:20]:
            print(problem, file=sys.stderr)
        print("error: some kind of pass never completed, so there are no metrics", file=sys.stderr)
        return 1
    metrics = per_layer_metrics(samples) if args.trace else end_to_end_metrics(samples)

    attempted, failed = outcome["attempted"], outcome["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    walls = [s["wall_s"] for s in samples if s["mode"] == "plain" and "wall_s" in s]
    q1, q3 = quartiles(walls)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(samples),
        "plain_passes": len(walls),
        "pass_s_quartiles": [q1, q3],
        "fail_ratio": failed / attempted,
        "problems": outcome["problems"],
        "machine": machine(),
        **source_identity(),
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, "result": result, "samples": samples}, indent=1))

    print(
        f"{args.workload}: {len(samples)} passes ({len(walls)} untraced), "
        f"pass_s median {statistics.median(walls):.4f} s, quartiles {q1:.4f}..{q3:.4f} s; "
        f"fail_ratio {failed}/{attempted}"
    )
    for problem in outcome["problems"][:20]:
        print("  " + problem)
    print(f"samples: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
