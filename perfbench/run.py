"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  The workload runs in one fresh process (worker.py)
with every thread pool pinned to one thread.  Set-up is timed in that
process and in SETUP_PROBES more fresh interpreters, and reported as the
median.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
one extra traced round (``--trace 1``).  The line before it carries the
detail of the run: every round's wall and CPU time and every set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reversal-excite", "pointwise", "bridge", "grid-io")
SETUP_PROBES = 3
# the whole run must end well inside 180 s
DEADLINE_S = 170.0

# One thread everywhere.  SCATTER_THREADS=1 keeps excitation_trace and
# figure3 on their serial path: on a busy two-core box their pool's
# threads wait on the interpreter lock for 0 to 2 s a round, which
# tripled the spread of reversal-excite's wall time.  The traced run
# times the pool apart (workloads.ReversalExcite.pool_cost).  The BLAS
# pools are pinned so that the bridge's array work does not race
# another tenant for the second core.
THREAD_ENV = {
    "SCATTER_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(Exception):
    pass


def _env(src: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, env, deadline: float):
    """Run worker.py to its end; return (seconds from spawn to READY, stdout lines after it)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RunError(f"worker {' '.join(args[:4])} exited with code {code}")
    return ready, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="waveguide-scatter benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "waveguide_scatter", "__init__.py")):
        print(f"error: no waveguide_scatter package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    env = _env(src)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--src", src, "--out", out]
    try:
        setups = [_spawn(common + ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUP_PROBES)]
        ready, lines = _spawn(common + ["--trace", str(args.trace)], env, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: the worker printed no result", file=sys.stderr)
        return 1

    walls = report["walls"]
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(walls),
        "wall_s": walls, "cpu_s": report["cpus"], "setup_s": setups,
        "import_s": report["import_s"],
        "errors": report["errors"], "wrong": report["wrong"],
    }
    if args.trace:
        detail["traced_wall_s"] = report["traced_wall_s"]
        detail["spans_file"] = os.path.relpath(report["spans_file"], root)
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
