"""One workload in one fresh process, started by run.py.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Both forms import qpchar.cli from the `src` directory next to `perfbench`
(run.py puts it on PYTHONPATH) and then print `ready` on stdout; run.py
times interpreter start plus that import as setup.  `--probe` exits there.
Otherwise the worker runs passes over the workload's jobs until the next
pass would end after --seconds (at least two passes, five when traced), and
prints one JSON line with the pass timings, failures and (traced runs) the
per-layer metrics.

The first pass is a warm-up: its outputs are checked and its time is kept
apart from the medians, as the cold pass a fresh `qpchar` process pays.  It
counts toward --seconds.  Without tracing every later pass is untraced.  With
tracing they alternate untraced, traced, untraced, ...; the difference of
their median times is the tracing overhead.  Before each traced pass the
wrappers' own cost is calibrated (tracing.calibrate), to be charged to
bookkeeping.  Every pass is speed-sampled (bench.SpeedSampler) and reported
in reference seconds as well.
"""

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_cli():
    import qpchar.cli

    where = os.path.realpath(qpchar.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: imported qpchar from {where}, not from {SRC}")
    return qpchar.cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = _import_cli()
    print("ready", flush=True)
    if args.probe:
        return 0
    return run_workload(cli, args)


def run_workload(cli, args) -> int:
    import json
    import random
    import resource
    import time

    import bench
    import tracing

    golden = bench.load_golden()
    jobs = list(bench.WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    passes, layer_runs, span_records, failures, missing = [], [], [], [], set()
    cost_runs = []

    start, last = time.perf_counter(), 0.0
    # a traced run keeps at least two passes of each kind for its medians
    min_passes = 5 if args.trace else 2
    while len(passes) < min_passes or time.perf_counter() - start + last <= args.seconds:
        rng.shuffle(jobs)
        traced = bool(args.trace and passes and len(passes) % 2 == 0)
        tracer = tracing.Tracer() if traced else None
        costs = tracing.calibrate(lambda: bench.time_kernel()[0],
                                  bench.REFERENCE_KERNEL_S) if traced else None
        originals, absent = tracing.install(tracer) if traced else ([], [])
        try:
            with bench.SpeedSampler() as sampler:
                w0, c0 = time.perf_counter(), time.process_time()
                failed = bench.run_pass(cli.main, jobs, golden, tracer, tag=f"p{len(passes)}.j")
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            tracing.restore(originals)
        failures.extend(failed)
        ref_wall = bench.to_reference(wall - sampler.spent, sampler.kernel_s)
        passes.append({
            "warmup": not passes, "traced": traced, "jobs": len(jobs), "failed": len(failed),
            "wall_s": wall - sampler.spent,
            "ref_wall_s": ref_wall,
            "ref_cpu_s": bench.to_reference(cpu - sampler.spent_cpu, sampler.kernel_cpu_s),
        })
        if traced:
            missing.update(absent)
            # the factor that took the wall time to reference seconds also
            # removes, in proportion, the sampling time the spans hold
            layer_runs.append(tracing.layer_metrics(
                tracer.spans, tracer.counts, costs, scale=ref_wall / wall))
            cost_runs.append({k: [c.inside, c.total] for k, c in costs.items()})
            span_records.extend(tracer.records())
        last = time.perf_counter() - w0

    result = {
        "passes": passes,
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing_targets": sorted(missing),
        "layer_runs": layer_runs,
        "wrapper_costs": cost_runs,
    }
    if args.trace:
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        path = os.path.join(bench.OUT_DIR, f"spans-{args.workload}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in span_records:
                fh.write(json.dumps(rec) + "\n")
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
