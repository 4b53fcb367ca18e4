import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpchar import cli
from qpchar.cli import QMAX_CEILING_ENV, _report_compare, main, verify_conjugation
from qpchar.series import TruncatedSeries


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def assert_refused(result, command, message=None):
    """`result` is argparse's refusal of a `command` line: exit 2, no stdout,
    the command's usage line, then its error line (with `message`, if given)."""
    code, out, err = result
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: qpchar {command} ") and err.endswith("\n")
    last = err.splitlines()[-1]
    assert last.startswith(f"qpchar {command}: error: ")
    if message is not None:
        assert last == f"qpchar {command}: error: {message}"


# --- char -------------------------------------------------------------------

LEVEL1_Q1_CSV = """q,y1,y2,coeff
0,0,0,1
1,0,1,1
1,1,0,1
1,1,1,1
1,1,2,1
1,1,3,1
1,2,3,1
"""


def test_char_level1_csv_golden(capsys):
    code, out, err = run(
        capsys, "char", "--space", "L", "--level", "1", "--qmax", "1",
        "--method", "fermionic", "--format", "csv",
    )
    assert code == 0 and err == ""
    assert out == LEVEL1_Q1_CSV


def test_char_pbw_product_qmax_zero(capsys):
    code, out, _ = run(capsys, "char", "--space", "N", "--qmax", "0",
                       "--method", "pbw-product")
    assert code == 0
    assert out == "q,y1,y2,coeff\n0,0,0,1\n"


@pytest.mark.parametrize("method", ["fermionic", "enumerate", "pbw-product", "pbw-enumerate"])
def test_char_methods_agree_on_verma(capsys, method):
    code, out, _ = run(capsys, "char", "--space", "N", "--qmax", "3",
                       "--method", method)
    assert code == 0
    assert out == run(capsys, "char", "--space", "N", "--qmax", "3")[1]


def test_char_json_and_csv_carry_identical_data(capsys):
    _, csv_out, _ = run(capsys, "char", "--space", "L", "--level", "2", "--qmax", "3")
    _, json_out, _ = run(capsys, "char", "--space", "L", "--level", "2",
                         "--qmax", "3", "--format", "json")
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["q", "y1", "y2", "coeff"]
    from_csv = [[int(q), int(u), int(v), c] for q, u, v, c in rows[1:]]
    assert json.loads(json_out) == from_csv


def test_char_deterministic(capsys):
    args = ("char", "--space", "N", "--qmax", "4", "--method", "enumerate")
    assert run(capsys, *args) == run(capsys, *args)


# --- usage errors -----------------------------------------------------------

@pytest.mark.parametrize(
    "args",
    [
        ("char", "--space", "L", "--qmax", "3"),  # missing level
        ("char", "--space", "N", "--level", "2", "--qmax", "3"),
        ("char", "--space", "L", "--level", "0", "--qmax", "3"),
        ("char", "--space", "L", "--level", "1", "--qmax", "-1"),
        ("char", "--space", "L", "--level", "1", "--qmax", "3", "--method", "pbw-product"),
        ("char", "--space", "N", "--qmax", "21"),  # above the default ceiling
        ("verify", "--check", "basis", "--qmax", "4"),  # missing space
        ("verify", "--check", "identity", "--qmax", "4", "--space", "N"),
        ("verify", "--check", "conjugation"),  # missing qmax
        ("verify", "--check", "conjugation", "--qmax", "-1"),
        ("verify", "--check", "conjugation", "--qmax", "4", "--space", "N"),
        ("verify", "--check", "conjugation", "--qmax", "21"),  # above the default ceiling
        ("verify", "--check", "identity"),  # missing qmax
    ],
)
def test_usage_errors_exit_two(capsys, args):
    assert_refused(run(capsys, *args), args[0])


def test_unknown_flags_exit_two(capsys):
    assert run(capsys, "char", "--bogus")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_ceiling_env_raises_limit(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "22")
    code, out, _ = run(capsys, "char", "--space", "L", "--level", "1", "--qmax", "21")
    assert code == 0
    assert out.startswith("q,y1,y2,coeff\n")


def test_ceiling_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "plenty")
    assert_refused(run(capsys, "char", "--space", "N", "--qmax", "2"), "char",
                   f"{QMAX_CEILING_ENV} must be an integer, got 'plenty'")


def test_ceiling_env_must_not_be_negative(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "-1")
    assert_refused(run(capsys, "verify", "--check", "pbw", "--qmax", "0"), "verify",
                   f"{QMAX_CEILING_ENV} must be >= 0, got '-1'")


@pytest.mark.parametrize(
    "qmax_args,message",
    [((), "the following arguments are required: --qmax"), (("--qmax", "-1"), "--qmax must be >= 0")],
)
def test_ceiling_env_read_after_qmax_checks(capsys, monkeypatch, qmax_args, message):
    # a bad ceiling must not hide the error in --qmax itself
    monkeypatch.setenv(QMAX_CEILING_ENV, "plenty")
    result = run(capsys, "verify", "--check", "identity", *qmax_args)
    assert_refused(result, "verify", message)
    assert QMAX_CEILING_ENV not in result[2]


# each check's label, then its two sides' --method names as reported
MISMATCH_SIDES = {
    "identity": ("identity", "pbw-product", "fermionic"),
    "basis": ("basis[generalized Verma module]", "enumerate", "fermionic"),
    "pbw": ("pbw", "pbw-enumerate", "pbw-product"),
}
METHOD_FUNCTIONS = {
    "fermionic": "character_fermionic",
    "enumerate": "enumerate_basis",
    "pbw-product": "product_side",
    "pbw-enumerate": "pbw_enumerated",
}


@pytest.mark.parametrize(
    "name,args",
    [
        ("character_fermionic", ("char", "--space", "N", "--qmax", "1")),
        ("enumerate_basis", ("char", "--space", "N", "--qmax", "1", "--method", "enumerate")),
        ("product_side", ("char", "--space", "N", "--qmax", "1", "--method", "pbw-product")),
        ("pbw_enumerated", ("char", "--space", "N", "--qmax", "1", "--method", "pbw-enumerate")),
        ("character_fermionic", ("verify", "--check", "identity", "--qmax", "1")),
        ("enumerate_basis", ("verify", "--check", "basis", "--space", "N", "--qmax", "1")),
        ("product_side", ("verify", "--check", "pbw", "--qmax", "1")),
        ("pbw_enumerated", ("verify", "--check", "pbw", "--qmax", "1")),
    ],
)
def test_methods_looked_up_on_cli_module_at_call_time(capsys, monkeypatch, name, args):
    # the benchmark's tracer times the four methods by patching these names
    calls = []

    def fake(*fake_args):
        calls.append(fake_args)
        return TruncatedSeries(1, {(1, 2, 3): 7})

    monkeypatch.setattr(cli, name, fake)
    code, out, _ = run(capsys, *args)
    assert calls
    if args[0] == "char":
        assert (code, out) == (0, "q,y1,y2,coeff\n1,2,3,7\n")
    else:
        # the fake lacks the constant term 1, so both sides first differ at q^0,
        # and the MISMATCH line names each side by its --method name
        label, a, b = MISMATCH_SIDES[args[2]]
        ca, cb = (0 if METHOD_FUNCTIONS[side] == name else 1 for side in (a, b))
        assert (code, out) == (1, f"{label}: MISMATCH at q^0 y1^0 y2^0: {a}={ca}, {b}={cb}\n")


# --- verify flags -----------------------------------------------------------

# a command line each check accepts, and the flags other than --check it takes
VALID_FLAGS = {
    "identity": {"qmax": "0"},
    "basis": {"space": "N", "qmax": "0"},
    "pbw": {"qmax": "0"},
    "conjugation": {"qmax": "0"},
    "stabilize": {"qmax": "0"},
}
# the flags other than --check and --qmax that a check takes; every check takes --qmax
TAKES = {"basis": ("space", "level")}
FLAG_VALUES = {"space": "N", "level": "1", "qmax": "0"}


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("check", list(VALID_FLAGS))
def test_verify_flag_table(capsys, check, flag):
    flags = {**VALID_FLAGS[check], flag: FLAG_VALUES[flag]}
    if flag == "level" and "space" in flags:
        flags["space"] = "L"  # --level needs --space L
    argv = [word for f, value in flags.items() for word in (f"--{f}", value)]
    result = run(capsys, "verify", "--check", check, *argv)
    if flag in ("qmax", *TAKES.get(check, ())):
        assert (result[0], result[2]) == (0, "")
    else:
        assert_refused(result, "verify", f"--{flag} is not valid with --check {check}")


# --- verify -----------------------------------------------------------------

def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify", "--check", "identity", "--qmax", "6")
    assert code == 0
    assert "identity: ok" in out


def test_verify_basis_standard(capsys):
    code, out, _ = run(capsys, "verify", "--check", "basis", "--space", "L",
                       "--level", "2", "--qmax", "5")
    assert code == 0
    assert "basis" in out and "ok" in out


def test_verify_basis_verma(capsys):
    code, out, _ = run(capsys, "verify", "--check", "basis", "--space", "N",
                       "--qmax", "5")
    assert code == 0


def test_verify_pbw(capsys):
    code, out, _ = run(capsys, "verify", "--check", "pbw", "--qmax", "5")
    assert code == 0
    assert "pbw: ok" in out


def test_verify_pbw_deep(capsys):
    code, out, _ = run(capsys, "verify", "--check", "pbw", "--qmax", "16")
    assert code == 0
    assert out == "pbw: ok (qmax=16, 5577 coefficients)\n"


def test_verify_stabilize(capsys):
    code, out, _ = run(capsys, "verify", "--check", "stabilize", "--qmax", "4")
    assert code == 0
    assert "stabilize: ok" in out


def test_verify_conjugation_report_and_determinism(capsys):
    for qmax, partitions, pairs in ((8, 67, 434), (12, 272, 3132)):
        args = ("verify", "--check", "conjugation", "--qmax", str(qmax))
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (
            0, f"conjugation: ok (qmax={qmax}, {partitions} partitions, {pairs} pairs)\n", "")
        assert run(capsys, *args) == (code, out, err)


@pytest.mark.parametrize("qmax,error", [(-1, ValueError), (2.0, TypeError), (True, TypeError)])
def test_verify_conjugation_rejects_bad_qmax(qmax, error):
    with pytest.raises(error):
        verify_conjugation(qmax)


@pytest.mark.parametrize(
    "name,wrong,failed",
    [
        ("conjugate", lambda p: p + (1,), "conjugation failed"),
        ("diag_energy_from_dual", lambda r: -1, "same-color energy mismatch"),
        ("mixed_energy_from_dual", lambda r1, r2: -1, "cross-color energy mismatch"),
    ],
)
def test_verify_conjugation_fails_on_a_broken_identity(capsys, monkeypatch, name, wrong, failed):
    monkeypatch.setattr(cli, name, wrong)
    code, report = verify_conjugation(4)
    assert code == 1 and isinstance(report, str) and failed in report and "\n" not in report
    code, out, _ = run(capsys, "verify", "--check", "conjugation", "--qmax", "4")
    assert code == 1 and out == report + "\n"


def test_verify_conjugation_catches_a_dropped_block(capsys, monkeypatch):
    # block s >= 2 needs a color-1 charge >= 2 beside a color-2 charge >= 4,
    # so no pair of total size below 6 shows the loss
    def first_block_only(r1, r2):
        return r1[0] * sum(r2[:3]) if r1 else 0

    monkeypatch.setattr(cli, "mixed_energy_from_dual", first_block_only)
    assert run(capsys, "verify", "--check", "conjugation", "--qmax", "4")[0] == 0
    code, out, err = run(capsys, "verify", "--check", "conjugation", "--qmax", "8")
    assert (code, out, err) == (1, "cross-color energy mismatch on (2,) / (4,)\n", "")


# --- mismatch reporting -----------------------------------------------------

def test_mismatch_reports_first_key_and_both_coefficients():
    a = TruncatedSeries(2, {(0, 0, 0): 1, (1, 1, 0): 2, (2, 0, 0): 5})
    b = TruncatedSeries(2, {(0, 0, 0): 1, (1, 1, 0): 3, (1, 0, 1): 1})
    # lexicographically first difference is (1, 0, 1): 0 on the left
    assert _report_compare("left", a, "right", b, "demo") == (
        1, "demo: MISMATCH at q^1 y1^0 y2^1: left=0, right=1")


# --- python -m qpchar -------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args, module="qpchar"):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_runs_verify():
    for module in ("qpchar", "qpchar.cli"):
        proc = run_module("verify", "--check", "basis", "--space", "L",
                          "--level", "1", "--qmax", "6", module=module)
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout.startswith("basis[level-1 standard module]: ok"), module


def test_module_entry_point_exits_two_on_usage_error():
    proc = run_module("char", "--space", "N", "--qmax", "-1")
    assert_refused((proc.returncode, proc.stdout, proc.stderr), "char", "--qmax must be >= 0")


def run_module_into_closed_pipe(args, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes its first byte
    try:
        return subprocess.run(
            [sys.executable, "-m", "qpchar", *args],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [
    ("char", "--space", "L", "--level", "1", "--qmax", "1"),
    ("verify", "--check", "identity", "--qmax", "4"),
])
def test_module_entry_point_exits_141_when_reader_is_gone(args, unbuffered):
    proc = run_module_into_closed_pipe(args, unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == ""


class _ClosedPipe:
    def write(self, _text):
        raise BrokenPipeError


def argparse_drops_failed_writes() -> bool:
    try:
        argparse.ArgumentParser().print_help(_ClosedPipe())
    except BrokenPipeError:
        return False
    return True


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [("char", "--help"), ("--help",)])
def test_help_into_closed_pipe_exits_quietly(args, unbuffered):
    # buffered, the help text fails at main's flush: 141 as for any output.
    # Unbuffered, argparse's own write fails; newer argparse drops that
    # error and exits 0, older argparse raises it and main exits 141
    proc = run_module_into_closed_pipe(args, unbuffered)
    assert proc.returncode == (0 if unbuffered and argparse_drops_failed_writes() else 141)
    assert proc.stderr == ""
