#!/usr/bin/env python3
"""Benchmark entry point: one measured run of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload link --seed 1 --seconds 30 --trace 0

Each run starts fresh processes: a few that only measure set-up, then one
that runs the workload's cases through ``subbeam.cli.main`` for about
``--seconds`` seconds (closed loop, one run at a time) and checks every
run's outputs. ``--trace 1`` instead runs the first case once untraced and
once with spans around every public ``subbeam`` function, and reports the
per-layer metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Name -> unit; the end_to_end list of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "min_user_snr_db": "dB",
    "sensing_gain_db": "dB",
    "evm_pct": "%",
    "dist_err_m": "m",
    "angle_err_deg": "deg",
    "reopt_frac": "ratio",
}
# Set-up is measured in this many fresh processes (the workload's own
# included) and reported as their median.
SETUP_RUNS = 5
# One BLAS thread: the measured kernels are small-vector numpy calls in a
# single closed loop, and the cap is recorded with every result.
BLAS_THREADS = "1"
# Wall-clock budget of one run; the run fails rather than overrun it.
TIMEOUT_S = 170


def environment(worker_env: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": worker_env["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def run_worker(args, env, deadline: float, extra=()) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "subbeam", "__init__.py")):
        sys.stderr.write("subbeam sources not found under src/; run from a full checkout\n")
        return 2

    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS

    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, env, deadline, ["--setup-only"])["setup_s"])
        result = run_worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    raw = result["metrics"]
    print("env: " + json.dumps(environment(env), sort_keys=True))
    if args.trace == 1:
        from layers import PER_LAYER

        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        setups.append(raw["setup_s"])
        raw["setup_s"] = statistics.median(setups)
        print(
            f"info: {raw['runs']} runs, {raw['update_samples']} update latency samples, "
            f"set-up samples {len(setups)}; unscaled mean wall {raw['raw_wall_s']:.3f} s, "
            f"{raw['probes']} speed probes, median {raw['probe_ms_median']:.3f} ms; "
            f"not applicable to {args.workload} "
            f"(reported as 1.0): {', '.join(raw['not_applicable']) or 'none'}"
        )
        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
