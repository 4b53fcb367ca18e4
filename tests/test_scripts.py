"""The experiment scripts run end to end on a small truncation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_identity_scan():
    proc = _run("identity_scan.py", "--qmax", "6")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [str(q) for q in range(7)]
    assert all(row.split()[-1] == "ok" for row in rows)


def test_dimension_table():
    proc = _run("dimension_table.py", "--qmax", "6")
    assert proc.returncode == 0, proc.stderr
    assert "N (cap-free)" in proc.stdout


@pytest.mark.parametrize("args", [("--levels", "0"), ("--levels", "1", "-2"), ("--qmax", "-1")])
def test_dimension_table_rejects_bad_arguments(args):
    proc = _run("dimension_table.py", *args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_identity_scan_rejects_negative_qmax():
    proc = _run("identity_scan.py", "--qmax", "-1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert proc.stdout == ""
