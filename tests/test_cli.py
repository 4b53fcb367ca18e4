import csv
import io
import json

import pytest

from qpchar.cli import QMAX_CEILING_ENV, _report_compare, main, verify_conjugation
from qpchar.series import TruncatedSeries


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


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
        ("char", "--space", "N", "--qmax", "17"),  # above the default ceiling
        ("verify", "--check", "basis", "--qmax", "4"),  # missing space
        ("verify", "--check", "identity", "--qmax", "4", "--space", "N"),
        ("verify", "--check", "identity", "--qmax", "4", "--trials", "10"),
        ("verify", "--check", "conjugation", "--qmax", "4"),
        ("verify", "--check", "conjugation", "--trials", "0"),
        ("verify", "--check", "conjugation", "--seed", "-1"),
        ("verify", "--check", "identity"),  # missing qmax
    ],
)
def test_usage_errors_exit_two(capsys, args):
    code, _out, err = run(capsys, *args)
    assert code == 2
    assert err.strip() != ""


def test_unknown_flags_exit_two(capsys):
    assert run(capsys, "char", "--bogus")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_ceiling_env_raises_limit(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "18")
    code, out, _ = run(capsys, "char", "--space", "L", "--level", "1", "--qmax", "17")
    assert code == 0
    assert out.startswith("q,y1,y2,coeff\n")


def test_ceiling_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "plenty")
    code, _, err = run(capsys, "char", "--space", "N", "--qmax", "2")
    assert code == 2 and QMAX_CEILING_ENV in err


def test_ceiling_env_must_not_be_negative(capsys, monkeypatch):
    monkeypatch.setenv(QMAX_CEILING_ENV, "-1")
    code, out, err = run(capsys, "verify", "--check", "pbw", "--qmax", "0")
    assert code == 2 and out == ""
    assert QMAX_CEILING_ENV in err and "exceeds" not in err


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
    args = ("verify", "--check", "conjugation", "--trials", "40", "--seed", "7")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "40/40 ok" in out
    assert run(capsys, *args) == (code, out, "")


def test_verify_conjugation_default_trials(capsys):
    code, out, _ = run(capsys, "verify", "--check", "conjugation")
    assert code == 0
    assert "1000/1000 ok" in out


@pytest.mark.parametrize("trials,error", [(0, ValueError), (-3, ValueError),
                                          (2.0, TypeError), (True, TypeError)])
def test_verify_conjugation_rejects_bad_trials(trials, error):
    with pytest.raises(error):
        verify_conjugation(trials, 0)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (2 ** 64, ValueError),
                                        (2 ** 70, ValueError), (1.5, TypeError),
                                        (True, TypeError)])
def test_verify_conjugation_rejects_bad_seed(seed, error):
    # seed -1 would silently rerun the trials of seed 1
    with pytest.raises(error):
        verify_conjugation(10, seed)


def test_verify_conjugation_accepts_seed_range_ends():
    assert verify_conjugation(5, 0)[0] == 0
    assert verify_conjugation(5, 2 ** 64 - 1)[0] == 0


# --- mismatch reporting -----------------------------------------------------

def test_mismatch_reports_first_key_and_both_coefficients(capsys):
    a = TruncatedSeries(2, {(0, 0, 0): 1, (1, 1, 0): 2, (2, 0, 0): 5})
    b = TruncatedSeries(2, {(0, 0, 0): 1, (1, 1, 0): 3, (1, 0, 1): 1})
    code = _report_compare("left", a, "right", b, "demo")
    out = capsys.readouterr().out
    assert code == 1
    # lexicographically first difference is (1, 0, 1): 0 on the left
    assert "q^1 y1^0 y2^1" in out
    assert "left=0" in out and "right=1" in out
