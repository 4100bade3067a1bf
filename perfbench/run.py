"""lislab benchmark: one seeded workload, every metric with its unit.

    python3 perfbench/run.py --workload type2-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in fresh child processes
(worker.py) with `src` on the import path and LIS_LAB_THREADS=1: a few
that only build the inputs, so that set-up is a median, then one that
times passes and checks their outputs. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Lines before it record the environment, the per-pass times and any failed
checks. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("type2-sweep", "gen-reach", "stream-meter", "lab-suites")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LIS_LAB_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    if setup_only:
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup, json.loads(lines[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median={values[0]:.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median={statistics.median(values):.4f} q1={q1:.4f} q3={q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lislab" / "__init__.py").is_file():
        print(f"error: no lislab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "LIS_LAB_THREADS": "1",
        "loadavg_start": _loadavg(),
    }
    try:
        # set-up samples before and after the timed worker, so that they
        # do not all fall in one phase of the machine's load
        setups = [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
        setup, result = _spawn(args, False, deadline)
        setups.append(setup)
        setups += [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _loadavg()
    env["numpy"] = result["numpy"]
    print("env " + json.dumps(env, sort_keys=True))

    passes = result["passes"]
    totals = [sum(p) for p in passes]
    scale = result["machine_scale"]
    wall = statistics.median(totals) * scale
    # set-up ran in other processes, outside the worker's calibration
    setup = statistics.median(setups)
    print(f"{args.workload}: {len(passes)} passes, raw pass time {_quartiles(totals)}")
    for label, times in zip(result["steps"], zip(*passes)):
        print(f"  step {label!r}: {_quartiles(list(times))} min={min(times):.4f}")
    print(f"set-up over {len(setups)} processes, raw {_quartiles(setups)}")
    print(f"calibration over {len(result['probes'])} probes {_quartiles(result['probes'])}; "
          f"machine scale {scale:.4f}; wall_s {wall:.4f}, setup_s {setup:.4f}")
    print("raw " + json.dumps({"passes_s": passes, "setups_s": setups,
                               "probes_s": result["probes"]}))
    failures = result["failures"]
    attempted = result["attempted"]
    print(f"fail_ratio={len(failures)}/{attempted} checks")
    for failure in failures:
        print("FAILED " + failure.replace("\n", " | "))

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        print(f"traced passes {_quartiles([sum(p) for p in result['traced_passes']])}; "
              "single caller, one thread: no queue, so no layer waits")
        print(f"patched {len(result['bindings'])} bindings: {' '.join(result['bindings'])}")
        for names, got, want in result["selfcheck"]:
            print(f"self-check {'+'.join(names)}: {got} (expected {want})")
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "items_per_s": result["items"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "trace_overhead_ratio":
        return "ratio"
    if name.endswith((".bytes", "bytes_written")):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
