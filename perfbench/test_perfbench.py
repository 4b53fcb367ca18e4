"""Tests of the benchmark's own logic; they import nothing from qpchar.

    python3 -m pytest perfbench
"""

import gc
import json
import os
import statistics
import time
from collections import Counter

import pytest

import bench
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_summary_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    med, q1, q3 = bench.summary(values)
    assert med == 3.5
    assert (q1, q3) == (statistics.quantiles(values, n=4)[0], statistics.quantiles(values, n=4)[2])
    assert q1 < med < q3


def test_summary_of_one_sample_collapses():
    assert bench.summary([2.5]) == (2.5, 2.5, 2.5)


class FakeClock:
    """Returns the scripted instants one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_children():
    # job [0, 10] > main [1, 9] > two calls of one leaf [2, 4] and [5, 6]
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    job = tr.enter("bench.job")
    main = tr.enter("cli.main")
    for _ in range(2):
        leaf = tr.enter("leaf")
        tr.exit(*leaf)
    tr.exit(*main)
    tr.exit(*job)
    assert [s.name for s in tr.spans] == ["bench.job", "cli.main", "leaf"]
    assert tracing.self_times(tr.spans) == [2, 5, 3]
    leaf_span = tr.spans[2]
    assert (leaf_span.start, leaf_span.end, leaf_span.busy, leaf_span.calls) == (2, 6, 3, 2)
    assert leaf_span.parent == 1
    table = tracing.by_name(tr.spans)
    assert table["cli.main"] == {"busy": 8, "self": 5, "calls": 1}
    # self times add up to the root span
    assert sum(row["self"] for row in table.values()) == 10


def test_layer_metrics_read_self_times_and_counts():
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 7, 8, 9, 10, 11))
    tr.job = "p1.j0"
    job = tr.enter("bench.job")                           # 0 .. 11
    main = tr.enter("cli.main")                           # 1 .. 10
    ferm = tr.enter("fermionic.character_fermionic")      # 2 .. 9
    enum = tr.enter("fermionic.enumerate_dual_charge_types")  # 3 .. 4
    tr.exit(*enum)
    tex = tr.enter("partitions.total_exponent")           # 7 .. 8
    tr.exit(*tex)
    tr.exit(*ferm)
    tr.exit(*main)
    tr.exit(*job)
    m = tracing.layer_metrics(tr.spans, Counter({"fermionic.pairs": 4}))
    assert m["fermionic.character_fermionic.s"] == 7
    assert m["fermionic.sum_self_s"] == 5
    assert m["cli.self_s"] == 2
    assert m["bench.self_s"] == 2
    assert m["fermionic.pairs"] == 4
    assert m["series.mul.useful_ratio"] == 0.0
    assert m["trace.layer_self_sum_s"] == 11
    assert {s.job for s in tr.spans} == {"p1.j0"}


def test_charge_moves_wrapper_cost_to_bookkeeping():
    # job [0, 10] > main [1, 9] > two calls of one leaf [2, 4] and [5, 6]
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    job = tr.enter("bench.job")
    main = tr.enter("cli.main")
    for _ in range(2):
        leaf = tr.enter("leaf")
        tr.exit(*leaf)
    tr.exit(*main)
    tr.exit(*job)
    cost = tracing.Cost(inside=0.5, total=1.25)
    charged = tracing.charge(tr.spans, {"leaf": cost}, scale=2.0)
    # the recorded spans stay as measured
    assert [s.busy for s in tr.spans] == [10, 8, 3]
    assert [(s.name, s.parent) for s in charged] == [
        ("bench.job", None), ("cli.main", 0), ("leaf", 1), (tracing.BOOKKEEPING, 1)]
    table = tracing.by_name(charged)
    assert table["leaf"]["busy"] == 2 * 3 - 2 * 0.5
    assert table[tracing.BOOKKEEPING] == {"busy": 2 * 1.25, "self": 2.5, "calls": 2}
    # main's self time loses the part of the cost that fell outside the leaf
    assert table["cli.main"]["self"] == 2 * 5 - 2 * (1.25 - 0.5)
    assert sum(row["self"] for row in table.values()) == 2 * 10


def test_calibrated_costs_are_positive_and_inside_is_a_part():
    costs = tracing.calibrate(lambda: bench.time_kernel()[0], bench.REFERENCE_KERNEL_S,
                              rounds=3, n=200)
    for cost in costs.values():
        assert 0 < cost.inside < cost.total


GOLDEN = {"char x": {"sha256": bench.digest("a,b\n1,2\n")},
          "verify y": {"stdout": "y: ok\n"}}


def _printing(text, code=0):
    def main(argv):
        print(text, end="")
        return code
    return main


def _raising(argv):
    raise RuntimeError("boom")


def test_gate_accepts_expected_outputs():
    assert bench.run_pass(_printing("a,b\n1,2\n"), [("char", "x")], GOLDEN) == []
    assert bench.run_pass(_printing("y: ok\n"), [("verify", "y")], GOLDEN) == []


@pytest.mark.parametrize("main, why", [
    (_printing("a,b\n1,3\n"), "sha256"),
    (_raising, "RuntimeError: boom"),
    (_printing("a,b\n1,2\n", code=1), "exit code 1"),
])
def test_gate_counts_wrong_digest_exception_and_exit_as_failures(main, why):
    failures = bench.run_pass(main, [("char", "x"), ("char", "x")], GOLDEN)
    # the failing job does not stop the pass: both attempts are reported
    assert len(failures) == 2
    assert all(why in f for f in failures)


def test_gate_fails_a_wrong_verify_line_and_an_unknown_job():
    assert bench.run_pass(_printing("y: MISMATCH\n"), [("verify", "y")], GOLDEN)
    assert bench.run_pass(_printing(""), [("verify", "z")], GOLDEN)


def test_traced_pass_records_job_and_main_spans():
    tr = tracing.Tracer()
    assert bench.run_pass(_printing("y: ok\n"), [("verify", "y")] * 2, GOLDEN, tr, tag="p1.j") == []
    assert [(s.name, s.parent, s.job) for s in tr.spans] == [
        ("bench.job", None, "p1.j0"), ("cli.main", 0, "p1.j0"),
        ("bench.job", None, "p1.j1"), ("cli.main", 2, "p1.j1")]


def test_golden_covers_every_job():
    golden = bench.load_golden()
    for jobs in bench.WORKLOADS.values():
        for argv in jobs:
            assert bench.job_key(argv) in golden


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == bench.REPORTED_PER_LAYER
    assert all(m["unit"] == bench.PER_LAYER_UNITS[m["name"]] for m in spec["per_layer"])


def test_speed_sampler_samples_while_the_block_runs():
    with bench.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < 0.05
    assert sampler.kernel_s > 0
    assert bench.to_reference(2 * sampler.kernel_s, sampler.kernel_s) == pytest.approx(
        2 * bench.REFERENCE_KERNEL_S)


def test_kernel_runs_with_the_collector_held_off(monkeypatch):
    seen = []
    monkeypatch.setattr(bench, "calibration_kernel", lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    bench.time_kernel()
    assert seen == [False]
    assert gc.isenabled()


def test_speed_sampler_short_block_is_sampled_after_it():
    with bench.SpeedSampler() as sampler:
        pass
    assert len(sampler.samples) == 1
    assert sampler.spent == 0
