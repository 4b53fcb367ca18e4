"""The experiment scripts run end to end on a small truncation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import colored_partition_counts

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_dimension_table():
    # the property its docstring states: the N column is the 6-colored
    # partition count, and each L(k) column agrees with it through q^k
    # and falls strictly below it from q^(k+1) on
    proc = _run("dimension_table.py", "--qmax", "6", "--levels", "1", "2", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["q", "L(k=1)", "L(k=2)", "L(k=3)", "N", "(cap-free)"]
    rows = [[int(cell) for cell in line.split()] for line in lines[2:9]]
    assert [row[0] for row in rows] == list(range(7)) and lines[9] == ""
    cap_free = colored_partition_counts(6)
    assert [row[4] for row in rows] == cap_free == [1, 6, 27, 98, 315, 918, 2492]
    for col, k in enumerate((1, 2, 3), start=1):
        level = [row[col] for row in rows]
        assert level[:k + 1] == cap_free[:k + 1]
        assert all(a < b for a, b in zip(level[k + 1:], cap_free[k + 1:]))


@pytest.mark.parametrize("args", [("--levels", "0"), ("--levels", "1", "-2"), ("--qmax", "-1")])
def test_dimension_table_rejects_bad_arguments(args):
    proc = _run("dimension_table.py", *args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr
