"""Command-line front end.

Subcommands:
  matrix     build one matrix and print it (pretty/json/csv)
  triangle   print triangle rows (pretty/json/bfile)
  trees      enumerate trees with their statistics
  gf         dump a truncated generating-function series
  verify     run verification suites; exit 1 on any failure
  export     write matrices, triangle and series dumps to a directory

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when the
reader closes stdout early (128 + SIGPIPE, with nothing on stderr).
All numeric output is plain decimal; orderings are deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import gf as gfmod
from .delta import STRATEGIES, build_matrix, delta_matrices
from .series import dump_lines
from .trees import StatisticUndefined, enumerate_trees, eoc, pom
from .triangle import poupard_triangle
from .verify import ALL_CHECKS, run_checks

EXIT_BROKEN_PIPE = 141


def _positive(kind: str, minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{kind} must be an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {minimum}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poupard",
        description="Exact calculus for increasing binary trees and their "
        "difference-equation matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="build and print one matrix")
    p_matrix.add_argument("--n", type=_positive("n", 1), required=True)
    p_matrix.add_argument(
        "--strategy", default="d1", choices=sorted(s.lower() for s in STRATEGIES)
    )
    p_matrix.add_argument("--format", default="pretty", choices=("pretty", "json", "csv"))

    p_tri = sub.add_parser("triangle", help="print triangle rows 0..n_max")
    p_tri.add_argument("--n-max", type=_positive("n-max", 0), required=True)
    p_tri.add_argument("--format", default="pretty", choices=("pretty", "json", "bfile"))

    p_trees = sub.add_parser("trees", help="enumerate trees with eoc/pom statistics")
    p_trees.add_argument("--n", type=_positive("n", 0), required=True)

    p_gf = sub.add_parser("gf", help="dump a generating-function series")
    p_gf.add_argument("--cap", type=_positive("cap", 0), required=True)
    p_gf.add_argument("--which", required=True, choices=("lambda", "omega"))

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--n-max", type=_positive("n-max", 1), default=6)
    p_verify.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: all, " + ", ".join(ALL_CHECKS),
    )
    p_verify.add_argument("--cap", type=_positive("cap", 0), default=10)
    p_verify.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p_verify.add_argument(
        "--force", action="store_true", help="lift the enumeration size cap"
    )

    p_export = sub.add_parser("export", help="write artifacts to a directory")
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--n-max", type=_positive("n-max", 1), default=5)
    p_export.add_argument(
        "--strategy", default="d1", choices=sorted(s.lower() for s in STRATEGIES)
    )
    p_export.add_argument("--cap", type=_positive("cap", 0), default=10)
    return parser


def cmd_matrix(args) -> int:
    mat = build_matrix(args.n, args.strategy)
    if args.format == "json":
        print(mat.to_json())
    elif args.format == "csv":
        print(mat.to_csv())
    else:
        print(mat.pretty())
    return 0


def cmd_triangle(args) -> int:
    tri = poupard_triangle(args.n_max)
    if args.format == "json":
        print(tri.to_json())
    elif args.format == "bfile":
        print("\n".join(tri.bfile_lines()))
    else:
        for row in tri.rows:
            print(" ".join(str(v) for v in row))
    return 0


def cmd_trees(args) -> int:
    for t in enumerate_trees(args.n):
        try:
            print(f"{t.serialize()}\teoc={eoc(t)}\tpom={pom(t)}")
        except StatisticUndefined:
            print(t.serialize())
    return 0


def cmd_gf(args) -> int:
    matrices = delta_matrices(gfmod.required_matrix_count(args.cap))
    series = (
        gfmod.lambda_lhs(args.cap, matrices)
        if args.which == "lambda"
        else gfmod.omega_lhs(args.cap, matrices)
    )
    for line in dump_lines(series):
        print(line)
    return 0


def cmd_verify(args, parser) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    try:
        report = run_checks(checks, n_max=args.n_max, cap=args.cap, force=args.force)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if not report.checks:  # a run that checked nothing must not pass
        msg = f"--checks {args.checks} runs no check at --n-max {args.n_max}"
        print(f"poupard verify: error: {msg}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json(), flush=True)  # a closed stdout stops before the summary
        print("\n".join(report.summary_lines()), file=sys.stderr)
    else:
        print("\n".join(report.summary_lines()))
    return report.exit_code()


def _write_artifacts(args, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for n in range(1, args.n_max + 1):
        mat = build_matrix(n, args.strategy)
        (out / f"matrix_{n}.json").write_text(mat.to_json() + "\n")
        (out / f"matrix_{n}.csv").write_text(mat.to_csv() + "\n")
    tri = poupard_triangle(args.n_max)
    (out / "triangle.json").write_text(tri.to_json() + "\n")
    (out / "triangle.bfile").write_text("\n".join(tri.bfile_lines()) + "\n")
    matrices = delta_matrices(gfmod.required_matrix_count(args.cap))
    for which, fn in (("lambda", gfmod.lambda_lhs), ("omega", gfmod.omega_lhs)):
        lines = dump_lines(fn(args.cap, matrices))
        (out / f"gf_{which}.txt").write_text("\n".join(lines) + ("\n" if lines else ""))


def cmd_export(args) -> int:
    out = Path(args.out)
    try:
        _write_artifacts(args, out)
    except OSError as exc:  # --out is a file, lies below one, or is not writable
        print(f"poupard export: error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote artifacts for n<={args.n_max} to {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`poupard trees | head`): end quietly
        # with the status a SIGPIPE death gives, and point stdout at devnull
        # so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args, parser) -> int:
    if args.command == "matrix":
        return cmd_matrix(args)
    if args.command == "triangle":
        return cmd_triangle(args)
    if args.command == "trees":
        return cmd_trees(args)
    if args.command == "gf":
        return cmd_gf(args)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "export":
        return cmd_export(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
