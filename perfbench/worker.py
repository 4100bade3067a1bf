"""One workload in one fresh process; started by run.py.

Prints READY once the seeded inputs are built (the parent times process
start to that line as set-up), then, unless --setup-only, runs timed
passes for at least --seconds seconds and MIN_PASSES passes, checks every
pass's outputs outside the timed section, and prints one JSON line.
Calibration probes after every step measure the machine's speed during
the run (see calibrate). With --trace 1 it instead alternates untraced
and traced passes for --seconds and reports the per-layer table and the
tracer self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import workloads
from tracer import Tracer

MIN_PASSES = 3


# median calibrate() time on the machine the benchmark was built on, a
# 2-vCPU virtual machine (Intel Xeon, 2.1 GHz)
REFERENCE_S = 0.012
PROBE_EVERY_S = 0.2


def calibrate() -> float:
    """Seconds for one run of a fixed kernel that does not use lislab: a
    Python loop and small numpy calls, the mix of lislab's hot paths."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * 7 % 13
    a = np.arange(64)
    for _ in range(1500):
        a = np.maximum.accumulate(a + 1)
    return time.perf_counter() - start


def run_passes(workload, gate, seconds: float, min_passes: int, probes: list[float],
               around=contextlib.nullcontext) -> list[list[float]]:
    """Timed passes, each a list of step times. After each step, appends
    calibrate() times to `probes`, one per PROBE_EVERY_S of the step.
    Checks run between passes, off the clock and outside `around()`, the
    context the steps run in. Stops at the first pass that raises."""
    passes: list[list[float]] = []
    while len(passes) < min_passes or sum(map(sum, passes)) < seconds:
        walls: list[float] = []
        outputs = []
        passes.append(walls)
        try:
            with around():
                for _, step in workload.steps():
                    start = time.perf_counter()
                    outputs.append(step())
                    walls.append(time.perf_counter() - start)
                    for _ in range(max(1, round(walls[-1] / PROBE_EVERY_S))):
                        probes.append(calibrate())
        except Exception:
            gate.check(False, "pass raised: " + traceback.format_exc(limit=3))
            gate.raised = True
            break
        try:
            workload.check(gate, outputs)
            items = workload.items(outputs)
            gate.check(items == workload.expected_items(),
                       f"pass did {items} items, expected {workload.expected_items()}")
        except Exception:
            gate.check(False, "check raised: " + traceback.format_exc(limit=3))
    return passes


def median_pass(passes: list[list[float]]) -> float:
    return statistics.median(sum(p) for p in passes)


def traced_run(workload, gate, seconds: float, probes: list[float]) -> dict:
    """Untraced and traced passes in turn, so that both meet the same load,
    for `seconds` in all (one pair at least); per-layer table from the
    traced ones, and the tracer self-check."""
    tracer = Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    while not traced or (sum(map(sum, untraced + traced)) < seconds and not gate.raised):
        untraced += run_passes(workload, gate, 0, 1, probes)
        traced += run_passes(workload, gate, 0, 1, probes, around=lambda: tracer)
    layers = tracer.metrics(len(traced))
    base = median_pass(untraced)  # 0 when a pass raised before any step ended
    layers["trace_overhead_ratio"] = median_pass(traced) / base if base else 0.0
    checks = [(names, sum(layers[n] for n in names), want)
              for names, want in workload.selfcheck()]
    for names, got, want in checks:
        gate.check(got == want, f"self-check {'+'.join(names)} = {got}, want {want}")
    return {
        "passes": untraced,
        "traced_passes": traced,
        "bindings": tracer.bindings(),
        "layers": layers,
        "selfcheck": [[list(names), got, want] for names, got, want in checks],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tmp_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        gate = workloads.Gate()
        probes: list[float] = []
        if args.trace:
            result = traced_run(workload, gate, args.seconds, probes)
        else:
            result = {"passes": run_passes(workload, gate, args.seconds, MIN_PASSES, probes)}
        result.update(
            probes=probes,
            # no probe when the first step raised; the run is failed anyway
            machine_scale=REFERENCE_S / statistics.median(probes) if probes else 1.0,
            steps=[label for label, _ in workload.steps()],
            items=workload.expected_items(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            numpy=np.__version__,
            attempted=gate.attempted,
            failures=gate.failures,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
