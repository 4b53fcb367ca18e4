"""The experiment scripts run end to end on a small truncation."""

import os
import subprocess
import sys
from pathlib import Path

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
