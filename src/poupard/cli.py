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
import re
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterator, List, Optional

from . import gf as gfmod
from .delta import STRATEGIES, build_matrix, delta_matrices
from .series import dump_lines
from .trees import StatisticUndefined, enumerate_trees, eoc, pom
from .triangle import poupard_triangle
from .verify import ALL_CHECKS, run_checks

EXIT_BROKEN_PIPE = 141


def _positive(kind: str, minimum: int):
    def parse(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):  # int() would also read 1_0, +2 and ٣
            raise argparse.ArgumentTypeError(f"{kind} must be an integer")
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {minimum}")
        return value

    return parse


@contextmanager
def _ints_of_any_size():
    """Lift Python's limit on the digits of an int turned into text (4300 by
    default since 3.10.7; 0 means none), restoring it after: the limit guards
    the parsing of outside input, and a command's output is its own result."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _lines(lines) -> Iterator[str]:
    """Each line ended by "\n", so no lines give no text."""
    return (f"{line}\n" for line in lines)


# name -> the exact text its command prints, as pieces that it writes one at
# a time (a matrix a row at a time: M_200's text is 115 MB); `export` writes
# all but pretty
_PRETTY = "pretty"
_MATRIX_TEXT = {
    _PRETTY: lambda mat: _lines(mat.pretty_lines()),
    "json": lambda mat: chain(mat.json_parts(), "\n"),
    "csv": lambda mat: _lines(mat.csv_lines()),
}
_TRIANGLE_TEXT = {
    _PRETTY: lambda tri: _lines(" ".join(str(v) for v in row) for row in tri.rows),
    "json": lambda tri: (tri.to_json(), "\n"),
    "bfile": lambda tri: _lines(tri.bfile_lines()),
}
_GF_TEXT = {
    "lambda": lambda cap, matrices: _lines(dump_lines(gfmod.lambda_lhs(cap, matrices))),
    "omega": lambda cap, matrices: _lines(dump_lines(gfmod.omega_lhs(cap, matrices))),
}
# D1..D9 in any case, as build_matrix reads them
_STRATEGY = dict(default="d1", type=str.lower, choices=sorted(s.lower() for s in STRATEGIES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poupard",
        description="Exact calculus for increasing binary trees and their "
        "difference-equation matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="build and print one matrix")
    p_matrix.set_defaults(run=cmd_matrix)
    p_matrix.add_argument("--n", type=_positive("n", 1), required=True)
    p_matrix.add_argument("--strategy", **_STRATEGY)
    p_matrix.add_argument("--format", default=_PRETTY, choices=_MATRIX_TEXT)

    p_tri = sub.add_parser("triangle", help="print triangle rows 0..n_max")
    p_tri.set_defaults(run=cmd_triangle)
    p_tri.add_argument("--n-max", type=_positive("n-max", 0), required=True)
    p_tri.add_argument("--format", default=_PRETTY, choices=_TRIANGLE_TEXT)

    p_trees = sub.add_parser("trees", help="enumerate trees with eoc/pom statistics")
    p_trees.set_defaults(run=cmd_trees)
    p_trees.add_argument("--n", type=_positive("n", 0), required=True)

    p_gf = sub.add_parser("gf", help="dump a generating-function series")
    p_gf.set_defaults(run=cmd_gf)
    p_gf.add_argument("--cap", type=_positive("cap", 0), required=True)
    p_gf.add_argument("--which", required=True, choices=_GF_TEXT)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--n-max", type=_positive("n-max", 1), default=6)
    p_verify.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: all, " + ", ".join(ALL_CHECKS),
    )
    p_verify.add_argument("--cap", type=_positive("cap", 0), default=10)
    p_verify.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p_verify.add_argument(
        "--force", action="store_true", help="lift the census limit and the bijection cap"
    )

    p_export = sub.add_parser("export", help="write artifacts to a directory")
    p_export.set_defaults(run=cmd_export)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--n-max", type=_positive("n-max", 1), default=5)
    p_export.add_argument("--strategy", **_STRATEGY)
    p_export.add_argument("--cap", type=_positive("cap", 0), default=10)
    return parser


@_ints_of_any_size()
def cmd_matrix(args, parser) -> int:
    sys.stdout.writelines(_MATRIX_TEXT[args.format](build_matrix(args.n, args.strategy)))
    return 0


@_ints_of_any_size()
def cmd_triangle(args, parser) -> int:
    sys.stdout.writelines(_TRIANGLE_TEXT[args.format](poupard_triangle(args.n_max)))
    return 0


def cmd_trees(args, parser) -> int:
    for t in enumerate_trees(args.n):
        try:
            print(f"{t.serialize()}\teoc={eoc(t)}\tpom={pom(t)}")
        except StatisticUndefined:
            print(t.serialize())
    return 0


@_ints_of_any_size()
def cmd_gf(args, parser) -> int:
    matrices = delta_matrices(gfmod.required_matrix_count(args.cap))
    sys.stdout.writelines(_GF_TEXT[args.which](args.cap, matrices))
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
    def write(stem: str, table, value) -> None:  # as <stem>.<format>
        for fmt, text in table.items():
            if fmt != _PRETTY:
                (out / f"{stem}.{fmt}").write_text("".join(text(value)))

    out.mkdir(parents=True, exist_ok=True)
    for n in range(1, args.n_max + 1):
        write(f"matrix_{n}", _MATRIX_TEXT, build_matrix(n, args.strategy))
    write("triangle", _TRIANGLE_TEXT, poupard_triangle(args.n_max))
    matrices = delta_matrices(gfmod.required_matrix_count(args.cap))
    for which, text in _GF_TEXT.items():
        (out / f"gf_{which}.txt").write_text("".join(text(args.cap, matrices)))


@_ints_of_any_size()
def cmd_export(args, parser) -> int:
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
        code = args.run(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`poupard trees | head`): end quietly
        # with the status a SIGPIPE death gives, and point stdout at devnull
        # so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
