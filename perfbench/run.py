#!/usr/bin/env python3
"""qpchar benchmark: one workload of `qpchar` CLI jobs, run in-process in a
fresh worker, with every output checked.

    python3 perfbench/run.py --workload identity_N --seed 1 --seconds 25 --trace 0

Run from the repository root, or from any copy that holds `src/qpchar`.
The load model is a closed loop with one client: this script starts the
setup probes and then the worker one after another, so at most one process
computes at a time.  The last line of stdout is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Metric definitions are
in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time

import bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
COUNTS_PATH = os.path.join(bench.OUT_DIR, "counts.json")

# setup-only starts before the workload (after one uncounted warm-up) and as
# many after it, so the median spans two moments of the host's load
SETUP_PROBES = 12
BUDGET_S = 170.0     # the whole run, setup probes included
ACCOUNTING_SHARE = 0.2  # trace accounting tolerance, as a share of job_s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # the grids are fixed; a ceiling set in the caller's shell must not change them
    env.pop("QPCHAR_QMAX_CEILING", None)
    return env


def _spawn(extra: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, time it up to its `ready` line, and wait for it.
    Returns (setup seconds, the rest of its stdout)."""
    t0 = time.perf_counter()
    # unbuffered, so reading the `ready` line takes no byte of what follows
    proc = subprocess.Popen([sys.executable, WORKER, *extra],
                            stdout=subprocess.PIPE, bufsize=0, env=_child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"worker did not start: {line.strip()!r}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, rest.decode()


def _source_digest() -> str:
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "qpchar"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def _check_counts(workload: str, counts: dict) -> list[str]:
    """Compare the exact counts with those an earlier run of the same source
    recorded, and record them if none did.  Returns the counts that differ."""
    key = _source_digest()
    try:
        with open(COUNTS_PATH, encoding="utf-8") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    seen = store.setdefault(key, {}).get(workload)
    if seen is None:
        store[key][workload] = counts
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        tmp = COUNTS_PATH + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, COUNTS_PATH)
        return []
    return [f"{k}: {seen.get(k)} earlier, {v} now" for k, v in counts.items() if seen.get(k) != v]


def _layer_summary(layer_runs: list[dict]) -> tuple[dict, list[str]]:
    """Median over traced passes for times; counts and ratios must repeat
    exactly between passes.  Returns (metrics, counts that did not repeat)."""
    metrics, unsteady = {}, []
    for name, unit in bench.PER_LAYER_UNITS.items():
        values = [run[name] for run in layer_runs if name in run]
        if not values:
            continue
        if unit == "s":
            metrics[name] = bench.summary(values)[0]
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(f"{name}: {values}")
    return metrics, unsteady


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if not os.path.isfile(os.path.join(SRC, "qpchar", "cli.py")):
        print(f"perfbench: no qpchar sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    try:
        _spawn(["--probe"], deadline)  # warm-up: fills the bytecode cache
        setups = [_spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup, out = _spawn(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], deadline)
        setups.append(setup)
        setups += [_spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        res = json.loads(out.strip().splitlines()[-1])
    except (BenchError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = res["passes"]
    untraced = [p for p in passes if not p["traced"] and not p["warmup"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    flags = [f"job failed: {f}" for f in res["failures"]]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")
    print(f"passes: 1 warm-up, {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(bench.WORKLOADS[args.workload])} jobs each")
    print(f"fail_ratio {failed / attempted} ratio ({failed} failed / {attempted} attempted)")

    # pass times are in reference seconds (bench.to_reference); setup is not
    # rescaled, because process start does not slow in step with the kernel
    job = bench.summary(p["ref_wall_s"] for p in untraced)
    cpu = bench.summary(p["ref_cpu_s"] for p in untraced)
    first = passes[0]["ref_wall_s"]
    setup = bench.summary(setups)
    raw_wall = bench.summary(p["wall_s"] for p in untraced)
    print(f"job_s {job[0]:.6g} s at reference speed (median of {len(untraced)} passes; "
          f"quartiles {job[1]:.6g} .. {job[2]:.6g}); measured median {raw_wall[0]:.6g} s")
    print(f"cpu_s {cpu[0]:.6g} s at reference speed (quartiles {cpu[1]:.6g} .. {cpu[2]:.6g})")
    print(f"first_pass_s {first:.6g} s at reference speed (the warm-up pass); "
          f"measured {passes[0]['wall_s']:.6g} s")
    print(f"peak_rss_mb {res['peak_rss_mb']:.6g} MB")
    print(f"setup_s {setup[0]:.6g} s (median of {len(setups)} starts; "
          f"quartiles {setup[1]:.6g} .. {setup[2]:.6g})")
    e2e = {"job_s": job[0], "cpu_s": cpu[0], "peak_rss_mb": res["peak_rss_mb"],
           "setup_s": setup[0]}

    if args.trace:
        layers, unsteady = _layer_summary(res["layer_runs"])
        layers["trace.job_s"] = bench.summary(p["ref_wall_s"] for p in traced)[0]
        layers["trace.untraced_job_s"] = job[0]
        layers["trace.overhead_s"] = layers["trace.job_s"] - job[0]
        counts = {k: v for k, v in layers.items() if bench.PER_LAYER_UNITS[k] != "s"}
        flags += [f"count changed between passes: {u}" for u in unsteady]
        flags += [f"count changed since an earlier run: {d}"
                  for d in _check_counts(args.workload, counts)]
        for name in bench.PER_LAYER_UNITS:
            print(f"{name} {layers[name]:.6g} {bench.PER_LAYER_UNITS[name]}")
        # with the wrappers' cost charged to bookkeeping, the time no layer
        # accounts for (gap) should equal the measured overhead.  Both are
        # differences of medians over few passes, which spread by up to
        # +-10% on a shared host, so only a miss beyond ACCOUNTING_SHARE of
        # job_s (or beyond the untraced quartile spread, if larger) is flagged
        gap = layers["trace.job_s"] - layers["trace.layer_self_sum_s"]
        miss = gap - layers["trace.overhead_s"]
        allowed = max(ACCOUNTING_SHARE * job[0], job[2] - job[1])
        print(f"trace accounting: traced job_s - layer self times = {gap:.6g} s; "
              f"overhead {layers['trace.overhead_s']:.6g} s; difference {miss:.6g} s, "
              f"allowed +-{allowed:.6g} s: {'within' if abs(miss) <= allowed else 'NOT within'}")
        if abs(miss) > allowed:
            flags.append(f"layer self times miss the traced job_s by {miss:.6g} s beyond "
                         f"the overhead (allowed +-{allowed:.6g} s)")
        costs = {k: [bench.summary(run[k][i] for run in res["wrapper_costs"])[0] * 1e9
                     for i in (0, 1)] for k in ("call", "item")}
        print(f"trace: wrapper cost charged to bookkeeping, ns at reference speed "
              f"(inside the callee / in all): call {costs['call'][0]:.0f} / "
              f"{costs['call'][1]:.0f}, generator item {costs['item'][0]:.0f} / "
              f"{costs['item'][1]:.0f}")
        for target in res["missing_targets"]:
            print(f"trace: {target} not found, not traced")
        print(f"spans: {res['spans_file']}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in bench.PER_LAYER_UNITS.items()
                   if k in bench.REPORTED_PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": bench.END_TO_END_UNITS[k]} for k, v in e2e.items()}

    for flag in flags:
        print(f"FLAG {flag}")
    print(json.dumps({"correct": not flags, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
