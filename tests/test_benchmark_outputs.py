"""Every benchmark job prints exactly its golden output."""

import sys
from pathlib import Path

import pytest

from qpchar.cli import QMAX_CEILING_ENV, main

# perfbench/bench.py imports nothing from qpchar
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench  # noqa: E402

GOLDEN = bench.load_golden()


@pytest.mark.parametrize(
    "argv", [argv for jobs in bench.WORKLOADS.values() for argv in jobs], ids=bench.job_key
)
def test_benchmark_job_prints_its_golden_output(argv, capsys, monkeypatch):
    # the grids are fixed; a ceiling set in the caller's shell must not change them
    monkeypatch.delenv(QMAX_CEILING_ENV, raising=False)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    assert bench.check_output(out, GOLDEN[bench.job_key(argv)]) is None
