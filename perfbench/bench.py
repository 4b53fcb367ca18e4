"""Workloads, the output-correctness gate and summary statistics.

This module imports nothing from qpchar: the job runner takes the CLI entry
point as an argument, so the gate can be tested with stand-in functions.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import statistics
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")  # spans and recorded counts; not committed


def _verify(*args: str) -> tuple[str, ...]:
    return ("verify", *args)


# Each job is one argv for qpchar.cli.main.  The grids are fixed; the seed
# only shuffles the order of the jobs inside a pass.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # cap-free fermionic sum plus the six-root product (ROADMAP items 2, 3)
    "identity_N": (_verify("--check", "identity", "--qmax", "16"),),
    # ~97% quasi-particle enumeration; the capped sum costs milliseconds
    "basis_L": tuple(
        _verify("--check", "basis", "--space", "L", "--level", str(k), "--qmax", str(q))
        for k, q in ((1, 16), (2, 13), (3, 11))
    ),
    # capped fermionic sums where the level caps bind, csv written out
    "levels_L": tuple(
        ("char", "--space", "L", "--level", str(k), "--qmax", "16", "--format", "csv")
        for k in range(1, 7)
    ),
    # PBW multiset count against the product; no fermionic or qp_enum work
    "pbw_N": (_verify("--check", "pbw", "--qmax", "12"),),
}


def job_key(argv) -> str:
    return " ".join(argv)


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(out: str, expected: dict | None) -> str | None:
    """None when `out` is the expected output, else the reason it is not.

    An expectation holds either the exact text (`stdout`, used for the one
    line a verify job prints) or the SHA-256 of the text (`sha256`, used for
    csv tables).
    """
    if expected is None:
        return "no golden output recorded for this job"
    if "stdout" in expected:
        if out != expected["stdout"]:
            return f"printed {out[:200]!r}, expected {expected['stdout']!r}"
        return None
    got = digest(out)
    if got != expected["sha256"]:
        return f"output sha256 {got} ({len(out)} chars), expected {expected['sha256']}"
    return None


def run_job(main, argv, expected: dict | None) -> str | None:
    """Run one CLI job in-process with stdout and stderr captured.

    Returns None on success, else why the job failed: a nonzero exit code,
    a raised exception (its traceback is kept in the reason), or output that
    differs from the golden expectation.
    """
    # the index-set enumerator leaves its result in a reference cycle;
    # collecting it first starts every job from the same heap, as a fresh
    # `qpchar` process would, so peak RSS does not depend on job order
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except (Exception, SystemExit):
        # a job boundary: one failing job must not end the run
        return "raised " + traceback.format_exc().strip().replace("\n", " | ")
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()[:200]}"
    return check_output(out.getvalue(), expected)


def summary(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); the quartiles are those of
    statistics.quantiles(values, n=4) and collapse to the value for one
    sample."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


# --- speed normalisation -------------------------------------------------------
#
# On a shared host the interpreter's speed moves by up to 1.5x within seconds
# (neighbours on the same cores), so raw wall times of one commit spread by
# 13-38% between runs.  Every pass is therefore also timed against a fixed
# calibration kernel, sampled while the pass runs, and reported in reference
# seconds: the time the pass would take if one kernel call took
# REFERENCE_KERNEL_S, about its fast-state time on the 2-vCPU host where the
# benchmark was defined.  The kernel is the benchmark's own code, so a change
# to qpchar cannot move it.

REFERENCE_KERNEL_S = 130e-6
SAMPLE_INTERVAL_S = 0.01


def _kernel_step(depth: int, key: tuple[int, int, int], acc: dict) -> None:
    if depth == 0:
        acc[key] = acc.get(key, 0) + 1
        return
    for part in range(1, 4):
        _kernel_step(depth - 1, (key[0] + part, key[1] + 1, key[2] + part), acc)


def calibration_kernel() -> int:
    """Fixed recursive walk that accumulates tuple keys in a dict, the
    pattern of the enumerators (364 calls, about 0.12-0.2 ms).  Of the
    kernels tried it tracked qpchar's speed best: over one 60 s run of
    pbw_N the quartile spread of pass times was 27% raw and 5% rescaled,
    against 11% for a flat dict loop."""
    acc: dict[tuple[int, int, int], int] = {}
    _kernel_step(5, (0, 0, 0), acc)
    return len(acc)


def time_kernel() -> tuple[float, float]:
    """(wall, cpu) seconds of one calibration_kernel call.  The garbage
    collector is held off meanwhile, so that a collection of the host
    process's heap, whose cost grows with that heap, cannot land in a
    sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        calibration_kernel()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times one kernel call every SAMPLE_INTERVAL_S of wall time, from a
    SIGALRM handler in the main thread, while the `with` block runs.

    Each sample is (wall, cpu) seconds of one call (`time_kernel`).  `spent`
    and `spent_cpu` are what the samples took, to subtract from the block's
    times; `kernel_s` and `kernel_cpu_s` are the mean call times, the speed
    of the interpreter during the block in wall and in process CPU time.
    The mean, not the median: the host moves between fast and slow states,
    so call times have two modes, and a pass's time follows the share of
    each, which the median does not see.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, _signum=None, _frame=None):
        self.samples.append(time_kernel())

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.spent = sum(w for w, _ in self.samples)
        self.spent_cpu = sum(c for _, c in self.samples)
        if not self.samples:
            self._sample()  # a block shorter than one interval: sample after it
        return False

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(w for w, _ in self.samples)

    @property
    def kernel_cpu_s(self) -> float:
        return statistics.fmean(c for _, c in self.samples)


def to_reference(seconds: float, kernel_s: float) -> float:
    """Seconds measured while one kernel call took `kernel_s` (both wall or
    both CPU time), rescaled to the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def run_pass(main, jobs, golden: dict, tracer=None, tag: str = "") -> list[str]:
    """Run every job once, in the given order; returns the failure reasons.

    With a tracer, each job is a root span `bench.job` and the call of
    `main` a child span `cli.main`; spans of job i carry the id f"{tag}{i}".
    """
    failures = []
    for i, argv in enumerate(jobs):
        expected = golden.get(job_key(argv))
        if tracer is None:
            reason = run_job(main, argv, expected)
        else:
            tracer.job = f"{tag}{i}"
            reason = tracer.call(
                "bench.job", run_job,
                lambda a: tracer.call("cli.main", main, a), argv, expected)
        if reason is not None:
            failures.append(f"{job_key(argv)}: {reason}")
    return failures


END_TO_END_UNITS = {
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "fermionic.enumerate_dual_charge_types.s": "s",
    "fermionic.pairs": "count",
    "fermionic.character_fermionic.s": "s",
    "fermionic.sum_self_s": "s",
    "fermionic.terms": "count",
    "partitions.total_exponent.s": "s",
    "partitions.total_exponent.calls": "count",
    "qp_enum.iter_basis_monomials.s": "s",
    "qp_enum.monomials": "count",
    "qp_enum.enumerate_basis.s": "s",
    "qp_enum.count_self_s": "s",
    "pbw_oracle.product_side.s": "s",
    "pbw_oracle.pbw_enumerated.s": "s",
    "pbw_oracle.multisets": "count",
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.mul.term_pairs": "count",
    "series.mul.useful_ratio": "ratio",
    "series.eq.calls": "count",
    "series.eq.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
}

# The result line carries every per-layer metric except `series.eq.*`: the
# CLI compares series key by key and never calls TruncatedSeries.__eq__, so
# those two read 0 on every workload.  They are still printed.
REPORTED_PER_LAYER = [name for name in PER_LAYER_UNITS if not name.startswith("series.eq.")]
