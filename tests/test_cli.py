"""Command-line behaviour: formats, exit codes, determinism."""

import fcntl
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poupard
import poupard.verify as verify_mod
from poupard.cli import EXIT_BROKEN_PIPE, build_parser, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "2", "--strategy", "d1", "--format", "csv")
    assert code == 0
    assert out == "0,0,0,0\n0,0,1,0\n1,1,0,0\n0,1,0,0\n"


def test_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "1", "--format", "json")
    assert code == 0
    assert out.strip() == '{"n":1,"rows":[[0,0],[1,0]]}'


def test_matrix_pretty_alignment(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "3", "--format", "pretty")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert len(set(len(line) for line in lines)) == 1  # right-aligned columns


def test_matrix_rejects_n0(capsys):
    code, _, err = run_cli(capsys, "matrix", "--n", "0")
    assert code == 2
    assert "n must be >= 1" in err


@pytest.mark.parametrize(
    "argv, kind, minimum",
    [
        (["matrix", "--n"], "n", 1),
        (["triangle", "--n-max"], "n-max", 0),
        (["trees", "--n"], "n", 0),
        (["gf", "--which", "lambda", "--cap"], "cap", 0),
        (["verify", "--n-max"], "n-max", 1),
        (["verify", "--cap"], "cap", 0),
        (["export", "--out", "unused", "--n-max"], "n-max", 1),
        (["export", "--out", "unused", "--cap"], "cap", 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_size_flags_read_plain_decimals_only(capsys, argv, kind, minimum):
    # int() also reads digit separators, signs, spaces and non-ASCII digits
    for text in ("1_0", "\u0663", " +2", "+2", "2 ", "0x1", ""):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, text])
        assert exc.value.code == 2, text
        assert f"{kind} must be an integer" in capsys.readouterr().err, text
    with pytest.raises(SystemExit) as exc:  # a minus still reads, and is then too small
        build_parser().parse_args([*argv, str(minimum - 2)])
    assert exc.value.code == 2
    assert f"{kind} must be >= {minimum}" in capsys.readouterr().err


def test_triangle_output(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--n-max", "3")
    assert code == 0
    assert out.splitlines()[-1] == "0 4 8 10 8 4 0"


def test_triangle_json_and_bfile(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rows": [[1], [0, 1, 0], [0, 1, 2, 1, 0]]}
    code, out, _ = run_cli(capsys, "triangle", "--n-max", "1", "--format", "bfile")
    assert out.splitlines() == ["1 1", "2 0", "3 1", "4 0"]


def test_trees_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "--n", "1")
    assert code == 0
    assert out == "n=1; 1:(2,3)\teoc=2\tpom=1\n"
    code, out, _ = run_cli(capsys, "trees", "--n", "0")
    assert out == "n=0\n"


def test_gf_dumps(capsys):
    code, out, _ = run_cli(capsys, "gf", "--cap", "0", "--which", "lambda")
    assert code == 0
    assert out == "0 0 0 1/1 0/1\n"
    code, out, _ = run_cli(capsys, "gf", "--cap", "0", "--which", "omega")
    assert code == 0
    assert out == ""


def test_gf_deterministic(capsys):
    _, first, _ = run_cli(capsys, "gf", "--cap", "6", "--which", "lambda")
    _, second, _ = run_cli(capsys, "gf", "--cap", "6", "--which", "lambda")
    assert first == second


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--checks", "golden,symmetry")
    assert code == 0
    assert "FAIL" not in out
    assert "passed" in out.splitlines()[-1]


def test_verify_json_report(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n-max", "2", "--checks", "golden", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["status"] in ("pass", "skipped") for c in report["checks"])
    assert "checks" in err  # human summary goes to stderr with --json


@pytest.mark.parametrize(
    "checks, message",
    [
        ("nonsense", "unknown checks"),
        ("all,nonsense", "unknown checks"),
        ("", "no checks selected"),
        (",,", "no checks selected"),
    ],
    ids=["nonsense", "all-and-nonsense", "empty", "commas"],
)
def test_verify_unknown_check(capsys, checks, message):
    code, _, err = run_cli(capsys, "verify", "--checks", checks)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("checks", ["census", "diagonals,crossing"])
def test_verify_rejects_run_that_checks_nothing(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--checks", checks, "--n-max", "1")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"poupard verify: error: --checks {checks} runs no check at --n-max 1"
    ]


def test_verify_detects_corrupted_golden(tmp_path, monkeypatch, capsys):
    # copy fixtures, damage one matrix entry, and point the suite at the copy
    src = verify_mod.FIXTURES
    for path in src.iterdir():
        (tmp_path / path.name).write_text(path.read_text())
    broken = json.loads((tmp_path / "matrix_2.json").read_text())
    broken["rows"][2][0] = 99
    (tmp_path / "matrix_2.json").write_text(json.dumps(broken))
    monkeypatch.setattr(verify_mod, "FIXTURES", Path(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--checks", "all")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out
    assert "f_2(3,1): built 1, fixture 99" in out


def test_export_writes_artifacts(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "export", "--out", str(tmp_path / "art"), "--n-max", "2", "--cap", "2"
    )
    assert code == 0
    names = {p.name for p in (tmp_path / "art").iterdir()}
    assert {
        "matrix_1.json",
        "matrix_1.csv",
        "matrix_2.json",
        "matrix_2.csv",
        "triangle.json",
        "triangle.bfile",
        "gf_lambda.txt",
        "gf_omega.txt",
    } <= names
    # round-trip one exported matrix
    data = json.loads((tmp_path / "art" / "matrix_2.json").read_text())
    assert data["rows"][2][0] == 1


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_export_onto_a_file_is_a_usage_error(tmp_path, capsys, below):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    out = target / below if below else target
    code, stdout, err = run_cli(capsys, "export", "--out", str(out), "--n-max", "1")
    assert code == 2
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("poupard export: error: ")
    assert str(target) in lines[0]
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize("cap", [0, 6])
@pytest.mark.parametrize("strategy", ["d1", "d5"])
def test_export_writes_what_the_commands_print(tmp_path, capsys, cap, strategy):
    code, _, _ = run_cli(
        capsys, "export", "--out", str(tmp_path), "--n-max", "3",
        "--cap", str(cap), "--strategy", strategy,
    )
    assert code == 0
    commands = {
        "triangle.json": ("triangle", "--n-max", "3", "--format", "json"),
        "triangle.bfile": ("triangle", "--n-max", "3", "--format", "bfile"),
    }
    for n in range(1, 4):
        for fmt in ("json", "csv"):
            commands[f"matrix_{n}.{fmt}"] = (
                "matrix", "--n", str(n), "--strategy", strategy, "--format", fmt
            )
    for which in ("lambda", "omega"):
        commands[f"gf_{which}.txt"] = ("gf", "--cap", str(cap), "--which", which)
    assert {p.name for p in tmp_path.iterdir()} == commands.keys()
    for name, argv in commands.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (tmp_path / name).read_bytes() == out.encode(), name


# sha256 of every file `poupard export --n-max 5 --cap 10` writes
EXPORT_DIGESTS = {
    "gf_lambda.txt": "970b6d337fa18ccf89a026a50c86b7d9f4a10841b87b988f0c6a12c3d2deaa69",
    "gf_omega.txt": "2feb26a365798b8916434cd45f434ba6fcd103a400a7e7e28bbde59fcae71359",
    "matrix_1.csv": "ff3e9d9ce882d8c488d120011c7d04cba28b8263e2f1d0e02c1f35268c852b2c",
    "matrix_1.json": "0564e1d9d1f1c29a1224ea149aa6f944fa13fec2b5f45a5c9f6d545d2ba884cb",
    "matrix_2.csv": "5517c7d1541792f518e99d96e7dd353e3a3c0fbbb6a061e9ac8b1f7a4d87ac3f",
    "matrix_2.json": "a36f032930491eafe32c834e3cb33f1fee0ce1584ed6e14d0e39a54e191ae285",
    "matrix_3.csv": "46cf150e24af372d64f085c7a0fde248e34bfacaa8b66c6ea74da281a0606cf0",
    "matrix_3.json": "20731b94ef727e9519c7eb3a10bda062af7a3e64156083086e9b315ea6162341",
    "matrix_4.csv": "d090e2bff6eaf3a52007d8cb5f55cde7268f44e22939fe57b8fc904fff3a1923",
    "matrix_4.json": "cbc1e5aab2058b3c8941164580d3ced361627a2b4e74e150e1634db8f45d932f",
    "matrix_5.csv": "b0aea8e309ae32f56fbe1e3e988dc6ed4e2f83fe2c1f374b1cd3f6834c673018",
    "matrix_5.json": "c6a6f817406337dfa2f601088a51777742c414e8f8565c998d7dbeb662eec376",
    "triangle.bfile": "ce68fc02503c5340ad84c680dfa9f08579d3409e8db79d2d4f214187f6604733",
    "triangle.json": "383b8d21c089f080cc2c14a7155a188e0c3fe03ccee7e95bfe6bc4684314a74d",
}


def test_export_digests_pinned(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "export", "--out", str(tmp_path), "--n-max", "5", "--cap", "10"
    )
    assert code == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == EXPORT_DIGESTS


# sha256 of the passing `poupard verify --checks all` output: the summary text
# with each `(…s)` timing stripped, and the --json report with each `seconds`
# line stripped
VERIFY_DIGESTS = {
    "text": "b32ed9f100be152103d886dcba0c7a1be3ef2570230cf4c76d761a47911e2dda",
    "json": "6f69c213d815630d35f0b2089fb2eea6cbce56ae49182e4ec9eda59e1bf2cfab",
}


def test_verify_report_digests_pinned(capsys):
    code, text, _ = run_cli(capsys, "verify", "--checks", "all")
    assert code == 0
    json_code, report, _ = run_cli(capsys, "verify", "--checks", "all", "--json")
    assert json_code == 0
    stripped = {
        "text": re.sub(r" \([0-9.]+s\)$", "", text, flags=re.M),
        "json": re.sub(r'\n *"seconds": [^\n]*', "", report),
    }
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in stripped.items()}
    assert digests == VERIFY_DIGESTS


def test_usage_error_on_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def _first_line_then_close(*argv):
    """Run the CLI with stdout on a one-page pipe, read one line and close the
    read end, like `| head -1`; return (line, exit code, stderr).  The small
    pipe makes the close land while output is still pending."""
    src = str(Path(poupard.__file__).resolve().parent.parent)
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "poupard.cli", *argv],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as out:
        line = out.readline().decode()
    _, err = proc.communicate(timeout=60)
    return line, proc.returncode, err.decode()


@pytest.mark.parametrize(
    "argv, first",
    [
        (("trees", "--n", "5"), "n=5; 1:(2,3); 3:(4,5); 5:(6,7); 7:(8,9); 9:(10,11)\teoc=2\tpom=9\n"),
        (("verify", "--json"), "{\n"),
    ],
)
def test_closed_pipe_exits_quietly(argv, first):
    line, code, err = _first_line_then_close(*argv)
    assert line == first
    assert (code, err) == (EXIT_BROKEN_PIPE, "")


_PRINT_UNDER_640_DIGITS = """
import sys
from poupard.cli import main
from poupard.delta import build_matrix
from poupard.triangle import poupard_triangle

sys.set_int_max_str_digits(640)  # the least limit the interpreter allows
code = main(sys.argv[1:])
rows = (poupard_triangle(200) if sys.argv[1] == "triangle" else build_matrix(200)).rows
# the limit in force after the command, then the library's last row in hex,
# which the limit does not cover
print(sys.get_int_max_str_digits(), *map(hex, rows[-1]), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, last_row",
    [
        (
            ("triangle", "--n-max", "200", "--format", "bfile"),
            lambda out: [int(line.split()[1]) for line in out.splitlines()[-401:]],
        ),
        (("matrix", "--n", "200", "--format", "json"), lambda out: json.loads(out)["rows"][-1]),
    ],
    ids=["triangle-bfile", "matrix-json"],
)
def test_output_prints_ints_past_the_digit_limit(argv, last_row):
    # row 200 holds entries of more than 640 digits; the command prints them
    # and leaves the limit in place for any parsing after it
    src = str(Path(poupard.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_UNDER_640_DIGITS, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    limit, *library = proc.stderr.split()
    assert limit == "640"
    want = [int(h, 16) for h in library]
    assert max(len(str(v)) for v in want) > 640
    assert last_row(proc.stdout) == want
