"""Command-line interface: subcommands, exit codes, stream formats.

main() is exercised in-process so capsys sees its output.  The tests at the
end run ``python -m alternant`` in a child process on this checkout, and
check that the ``alternant`` script in pyproject.toml names the same main().
"""

import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import alternant
from alternant.cli import (
    EXIT_BUDGET,
    EXIT_DECODE_FAILURE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SPEC_ERROR,
    main,
    parse_vector_line,
)
from alternant.demo import CaseResult
from alternant.galois import extension, prime_field
from alternant.linalg import Vec
from alternant.pgz import random_error_vector
from alternant import demo as demo_mod

Z5 = prime_field(5)
Z13 = prime_field(13)
F25, gen25 = extension(Z5, [3, 0, 1], gen_label="x")


# -- params -------------------------------------------------------------------

def test_params_prs31(capsys):
    assert main(["params", "--code", "prs31"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "PRS code over Z31",
        "[30,20,11]",
        "n=30 k=20 t=5 rate=2/3",
        "r=10 d=11 (exact: MDS)",
        "field: Z31 (31 elements)",
    ]


def test_params_goppa19(capsys):
    assert main(["params", "--code", "goppa19"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "Goppa code over Z5",
        "[19,7,7]",
        "n=19 k=7 t=3 rate=7/19",
        "r=6 d>=7",
        "base field: Z5 (5 elements)",
        "extension field: F25 (25 elements, degree 2, modulus [3, 0, 1], "
        "generator 'x')",
    ]


def test_params_from_description_file(tmp_path, capsys):
    path = tmp_path / "rs6.json"
    path.write_text(json.dumps({"kind": "RS", "field": {"p": 7},
                                "a": [1, 2, 3, 4, 5, 6], "k": 3}))
    assert main(["params", "--code", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "RS code over Z7" in out and "[6,3,4]" in out


# -- encode / corrupt / decode pipeline ---------------------------------------

def test_pipeline_round_trip(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    enc = tmp_path / "enc.txt"
    rcv = tmp_path / "rcv.txt"
    dec = tmp_path / "dec.txt"
    msg.write_text("# one message\n\n[1, 2, 3, 4, 0, 1, 2]\n")

    assert main(["encode", "--code", "goppa19", "--in", str(msg),
                 "--out", str(enc)]) == EXIT_OK
    codeword = enc.read_text().strip()
    assert codeword.startswith("[") and codeword.count(",") == 18

    assert main(["corrupt", "--code", "goppa19", "--seed", "3", "--weight", "2",
                 "--in", str(enc), "--out", str(rcv)]) == EXIT_OK
    assert rcv.read_text().strip() != codeword

    assert main(["decode", "--code", "goppa19", "--in", str(rcv),
                 "--out", str(dec)]) == EXIT_OK
    lines = dec.read_text().splitlines()
    assert lines[0].startswith("PGZ: Error positions [")
    assert lines[1] == f"{codeword} :: Vector[Z5]"


def test_decode_golden(tmp_path):
    rcv = tmp_path / "y.txt"
    out = tmp_path / "out.txt"
    rcv.write_text("[0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]\n")
    assert main(["decode", "--code", "prs13", "--in", str(rcv),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == (
        "PGZ: Error positions [4], error values [3] :: Vector[Z13]\n"
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] :: Vector[Z13]\n")


def test_decode_accepts_own_output_format(tmp_path, capsys):
    rcv = tmp_path / "y.txt"
    rcv.write_text("[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7] :: Vector[Z13]\n")
    assert main(["decode", "--code", "prs13", "--in", str(rcv),
                 "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "error values [7]" in out


def test_decode_pgzm_flag(tmp_path, capsys):
    rcv = tmp_path / "y.txt"
    rcv.write_text("[0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n")
    assert main(["decode", "--code", "prs13", "--alg", "pgzm",
                 "--in", str(rcv), "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("PGZm: Error positions [2]")


def test_decode_failure_exit_code(tmp_path, capsys):
    e = random_error_vector(Z13, 12, 3, 1)  # known defective-location seed
    rcv = tmp_path / "y.txt"
    rcv.write_text(str(e) + "\n")
    assert main(["decode", "--code", "prs13", "--in", str(rcv),
                 "--out", "-"]) == EXIT_DECODE_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PGZ: Defective error location" in captured.err


def test_decode_mixed_stream_still_fails(tmp_path, capsys):
    e = random_error_vector(Z13, 12, 3, 1)
    rcv = tmp_path / "y.txt"
    rcv.write_text("[0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]\n" + str(e) + "\n")
    assert main(["decode", "--code", "prs13", "--in", str(rcv),
                 "--out", "-"]) == EXIT_DECODE_FAILURE
    captured = capsys.readouterr()
    assert "Error positions [4]" in captured.out  # good line still decoded


def test_decode_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"))
    assert main(["decode", "--code", "prs13"]) == EXIT_OK
    assert "Input is a code vector" in capsys.readouterr().out


def test_corrupt_weight_zero_is_identity(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n")
    assert main(["corrupt", "--code", "prs13", "--seed", "9", "--weight", "0",
                 "--in", str(src), "--out", str(dst)]) == EXIT_OK
    assert dst.read_text() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"


def test_corrupt_default_weight_is_capacity(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n")
    assert main(["corrupt", "--code", "prs13", "--seed", "9",
                 "--in", str(src), "--out", str(dst)]) == EXIT_OK
    got = parse_vector_line(Z13, dst.read_text())
    assert got.weight() == 2


# -- spec errors (exit 3) -----------------------------------------------------

def test_unknown_kind_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "XYZ", "field": {"p": 13}}')
    assert main(["params", "--code", str(path)]) == EXIT_SPEC_ERROR
    assert "alternant: unknown kind" in capsys.readouterr().err


def test_missing_code_file(capsys):
    assert main(["params", "--code", "/nonexistent.json"]) == EXIT_SPEC_ERROR
    assert "cannot read" in capsys.readouterr().err


def test_encode_wrong_message_length(tmp_path, capsys):
    src = tmp_path / "msg.txt"
    src.write_text("[1, 2, 3]\n")
    assert main(["encode", "--code", "prs13", "--in", str(src),
                 "--out", "-"]) == EXIT_SPEC_ERROR
    assert "expected k=8" in capsys.readouterr().err


def test_decode_wrong_length_line(tmp_path, capsys):
    src = tmp_path / "y.txt"
    src.write_text("[1, 2, 3]\n")
    assert main(["decode", "--code", "prs13", "--in", str(src),
                 "--out", "-"]) == EXIT_SPEC_ERROR
    assert "wrong length (3, expected 12)" in capsys.readouterr().err


def test_unparseable_line_reports_line_number(tmp_path, capsys):
    src = tmp_path / "y.txt"
    src.write_text("# comment\n\n[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\nnope\n")
    assert main(["decode", "--code", "prs13", "--in", str(src),
                 "--out", "-"]) == EXIT_SPEC_ERROR
    assert "line 4" in capsys.readouterr().err


# A bad line ends the run with exit 3 and its line number, after the answers
# to the lines before it; the same from a file and from stdin.  Stdin is a
# strict UTF-8 stream here, as under a non-C locale.
PRS13_GOOD = {"encode": "[1, 2, 3, 4, 5, 6, 7, 8]",
              "corrupt": "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
              "decode": "[0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0] :: Vector[Z13]"}
BAD_LINES = {
    "wrong length": (b"[1, 2, 3]", {"encode": "expected k=8",
                                    "corrupt": "expected n=12",
                                    "decode": "wrong length (3, expected 12)"}),
    "bad token": (b"[1, 2, zz, 4, 5, 6, 7, 8]", "bad element token 'zz'"),
    "non-UTF-8": (b"[1, 2, \xff\xfe, 4]", "bad element token '\\udcff\\udcfe'"),
}


def _run_stream(command, data, source, tmp_path, capsys, monkeypatch):
    """(exit code, output, stderr) of COMMAND on prs13 with DATA as input."""
    args = [command, "--code", "prs13"] + (["--seed", "4"] if command == "corrupt" else [])
    out = tmp_path / "out.txt"
    out.unlink(missing_ok=True)
    if source == "file":
        src = tmp_path / "in.txt"
        src.write_bytes(data)
        code = main(args + ["--in", str(src), "--out", str(out)])
        return code, out.read_text(), capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("case", sorted(BAD_LINES))
@pytest.mark.parametrize("command", ["encode", "corrupt", "decode"])
def test_bad_line_exits_3_naming_it_after_the_words_before(
        command, case, source, tmp_path, capsys, monkeypatch):
    good = PRS13_GOOD[command].encode()
    head = b"# two words, then a bad one\n" + good + b"\n\n" + good + b"\n"
    bad, message = BAD_LINES[case]
    message = message[command] if isinstance(message, dict) else message
    code, before, _ = _run_stream(command, head, source, tmp_path, capsys, monkeypatch)
    assert code == EXIT_OK and before.count("\n") == 2 * (1 + (command == "decode"))

    code, out, err = _run_stream(command, head + bad + b"\n" + good + b"\n",
                                 source, tmp_path, capsys, monkeypatch)
    assert code == EXIT_SPEC_ERROR
    assert err.startswith("alternant: line 5: ") and message in err, err
    assert "Traceback" not in err
    assert out == before  # every word before the bad line, nothing after


@pytest.mark.parametrize("out_name", ["m.txt", "./m.txt"])
@pytest.mark.parametrize("in_name", ["m.txt", "./m.txt"])
@pytest.mark.parametrize("command", ["encode", "corrupt", "decode"])
def test_out_naming_the_in_file_is_refused(command, in_name, out_name, tmp_path,
                                           capsys, monkeypatch):
    # opening --out would truncate --in before its first line is read
    monkeypatch.chdir(tmp_path)
    data = PRS13_GOOD[command].encode() + b"\n"
    (tmp_path / "m.txt").write_bytes(data)
    args = [command, "--code", "prs13"] + (["--seed", "4"] if command == "corrupt" else [])
    assert main(args + ["--in", in_name, "--out", out_name]) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert (tmp_path / "m.txt").read_bytes() == data
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"alternant: --out {out_name} is the --in file\n"


def test_in_and_out_on_one_device_are_not_refused(capsys):
    # only a regular file is truncated by opening it for writing
    assert main(["encode", "--code", "prs13", "--in", "/dev/null",
                 "--out", "/dev/null"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_non_utf8_stdin_in_a_child_process(tmp_path):
    # a strict stdin decoder, as under en_US.UTF-8, must not end in a traceback
    src = str(Path(alternant.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "alternant", "decode", "--code", "prs13"],
        input=b"[0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]\n\xff\xfe[1]\n",
        cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == EXIT_SPEC_ERROR
    assert proc.stdout.startswith(b"PGZ: Error positions [4]")
    assert b"alternant: line 2: expected a bracketed vector" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_corrupt_weight_out_of_range(capsys):
    assert main(["corrupt", "--code", "prs13", "--seed", "1",
                 "--weight", "99", "--in", "/dev/null"]) == EXIT_SPEC_ERROR
    assert "weight 99" in capsys.readouterr().err


def test_usage_errors_exit_3():
    with pytest.raises(SystemExit) as ei:
        main(["decode", "--code", "prs13", "--alg", "nope"])
    assert ei.value.code == EXIT_SPEC_ERROR
    with pytest.raises(SystemExit) as ei:
        main(["params"])  # --code is required
    assert ei.value.code == EXIT_SPEC_ERROR
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == EXIT_SPEC_ERROR
    with pytest.raises(SystemExit) as ei:
        main(["corrupt", "--code", "prs13"])  # --seed is mandatory
    assert ei.value.code == EXIT_SPEC_ERROR


# -- demo / bench / selftest --------------------------------------------------

def test_demo_command(capsys):
    assert main(["demo"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "8/8 cases passed" in out
    assert out.count("PASS") == 8 and "FAIL" not in out
    for case in demo_mod.CASES:
        assert case.name in out


def test_demo_command_failure(monkeypatch, capsys):
    fake = [CaseResult("made-up", False, ["something diverged"]),
            CaseResult("fine", True, [])]
    monkeypatch.setattr(demo_mod, "run_demo", lambda: fake)
    assert main(["demo"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "made-up" in out and "FAIL" in out
    assert "something diverged" in out
    assert "1/2 cases passed" in out


def test_bench(capsys):
    assert main(["bench", "--code", "prs13", "--trials", "2",
                 "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "equivalence: OK (4 paired trials)" in out
    assert out.count(" pgz ") + out.count("pgz ") >= 2  # rows per weight


def test_bench_over_an_extension_field_base(capsys):
    # messages are codes over F32, not element tokens: 24 alone is ambiguous there
    assert main(["bench", "--code", "grs32", "--trials", "3"]) == EXIT_OK
    assert "equivalence: OK (9 paired trials)" in capsys.readouterr().out


K0_CODE = {"kind": "AC", "field": {"p": 2, "m": 4}, "h": [1, 1, 1],
           "a": ["a", "a**2", "a**3"], "r": 2}


@pytest.mark.parametrize("command", ["bench", "selftest"])
def test_dimension_0_code_exits_3(command, tmp_path, capsys):
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(K0_CODE))
    assert main([command, "--code", str(path), "--trials", "2"]) == EXIT_SPEC_ERROR
    err = capsys.readouterr().err
    assert "has dimension 0" in err and "Traceback" not in err


def test_params_rejects_a_label_that_does_not_read_back(tmp_path, capsys):
    # with label "1" the generator printed as 1, which reads back as the constant
    path = tmp_path / "grs.json"
    path.write_text(json.dumps({"kind": "GRS", "field": {"p": 2, "m": 3, "label": "1"},
                                "h": [1, 1, 1, 1, 1, 1, 1],
                                "a": [1, [0, 1], [0, 0, 1], [1, 1], [0, 1, 1],
                                      [1, 1, 1], [1, 0, 1]], "k": 3}))
    assert main(["params", "--code", str(path)]) == EXIT_SPEC_ERROR
    assert "field.label" in capsys.readouterr().err


def test_trials_must_be_positive(capsys):
    # a run of no trials checks nothing, so it must not report OK
    for argv in (["bench", "--code", "prs13", "--trials", "0"],
                 ["bench", "--code", "prs13", "--trials", "-3"],
                 ["selftest", "--trials", "0"],
                 ["selftest", "--trials", "two"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_SPEC_ERROR
        out, err = capsys.readouterr()
        assert "OK" not in out
        assert "--trials: must be a positive integer" in err


def test_max_checks_must_be_positive(capsys):
    # a cap below 1 is a bad argument (exit 3), not an exceeded budget (exit 4)
    for value in ("-1", "0", "many"):
        with pytest.raises(SystemExit) as ei:
            main(["selftest", "--trials", "1", "--max-checks", value])
        assert ei.value.code == EXIT_SPEC_ERROR
        out, err = capsys.readouterr()
        assert "OK" not in out and "budget exceeded" not in err
        assert "--max-checks: must be a positive integer" in err


def test_selftest(capsys):
    assert main(["selftest", "--trials", "2", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "weight 1: 2/2 decoder/oracle agreements" in out
    assert "weight 2: 2/2 decoder/oracle agreements" in out
    assert "min_distance(PRS(Z7,3)) = 4 (expected 4)" in out
    assert "selftest: OK" in out


def test_selftest_budget_refusal(capsys):
    assert main(["selftest", "--code", "prs31", "--trials", "1"]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_selftest_over_an_extension_field_base_reaches_the_budget(capsys):
    assert main(["selftest", "--code", "grs32", "--trials", "1"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget exceeded" in err and "Traceback" not in err


# -- vector line parsing ------------------------------------------------------

def test_parse_vector_line_tokens():
    v = parse_vector_line(F25, "[[1, 1], x, 0]")
    assert v == Vec(F25, (F25.element([1, 1]).code, gen25.code, 0))
    v2 = parse_vector_line(Z13, "  [1, 2, 3] :: Vector[Z13]  ")
    assert v2 == Vec(Z13, (1, 2, 3))


def test_parse_vector_line_errors():
    for bad in ("1, 2, 3", "[1, [2]", "[1]]", "[]", "[1, zz]"):
        with pytest.raises(ValueError):
            parse_vector_line(Z13, bad)


# -- entry point in a child process -------------------------------------------

def _run_alternant(args, cwd):
    """Run ``python -m alternant ARGS`` in a fresh interpreter on this checkout.

    The directory holding the imported package goes first on the child's
    PYTHONPATH, so the child runs this code whatever is installed and
    whatever the working directory is.
    """
    src = str(Path(alternant.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "alternant", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _console_script_target(pyproject: Path, name: str) -> str:
    """The ``module:function`` that [project.scripts] gives for NAME.

    A line scan rather than tomllib, which needs Python 3.11.
    """
    section = None
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key == name:
                return value.strip("\"'")
    raise LookupError(f"no {name!r} in [project.scripts] of {pyproject}")


def test_console_script_demo(tmp_path):
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    module, func = _console_script_target(pyproject, "alternant").split(":")
    assert getattr(importlib.import_module(module), func) is main
    assert importlib.import_module("alternant.__main__").main is main

    proc = _run_alternant(["demo"], tmp_path)
    assert proc.returncode == 0
    assert "8/8 cases passed" in proc.stdout


def test_module_entry_point_passes_exit_status(tmp_path):
    proc = _run_alternant(["params", "--code", "missing.json"], tmp_path)
    assert proc.returncode == EXIT_SPEC_ERROR
    assert proc.stderr.startswith("alternant:")
    assert "Traceback" not in proc.stderr


def test_oversized_field_exits_3_at_once(tmp_path):
    # p^m far over the 2^20 cap, with no modulus: refused before any search
    (tmp_path / "big.json").write_text(
        json.dumps({"kind": "PRS", "field": {"p": 2, "m": 40}, "k": 3}))
    t0 = time.perf_counter()
    proc = _run_alternant(["params", "--code", "big.json"], tmp_path)
    assert time.perf_counter() - t0 < 2.0
    assert proc.returncode == EXIT_SPEC_ERROR
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr
