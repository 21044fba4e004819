"""One workload process: set up, print READY, run timed rounds, report JSON.

Started by run.py, never by hand.  With ``--setup-only`` the process
stops after READY, so run.py can time set-up in fresh interpreters.
The last line of standard output is one JSON object with the round
times, the operation counts, the check results and the peak RSS; with
``--trace 1`` it also carries the per-layer metrics of one extra,
traced round, and of the untraced pool timing that follows it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import workloads
from spans import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory holding waveguide_scatter")
    parser.add_argument("--out", required=True, help="directory for files the run writes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import waveguide_scatter as ws
    import waveguide_scatter.cli  # noqa: F401  (not imported by the package)
    import_s = time.perf_counter() - t0
    origin = os.path.realpath(ws.__file__)
    if not origin.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: waveguide_scatter imported from {origin}, not from {args.src}",
              file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.out)
    inputs = workload.prepare(ws, np.random.default_rng(args.seed))
    workload.warm_up(ws, inputs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    expected = workload.expect(inputs)
    tally = workloads.Tally()

    walls, cpus = [], []
    while not walls or sum(walls) < args.seconds:
        c0, w0 = time.process_time(), time.perf_counter()
        workload.run_round(ws, inputs, expected, tally)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)

    result = {
        "workload": args.workload, "seed": args.seed,
        "walls": walls, "cpus": cpus, "import_s": import_s,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(ws)
        try:
            w0 = time.perf_counter()
            workload.run_round(ws, inputs, expected, tally)
            traced_wall = time.perf_counter() - w0
        finally:
            tracer.uninstall()
        achieved = getattr(workload, "achieved", {})
        extra = {f"spectral.max_abs_err.{ch}": float(achieved.get(ch, 0.0))
                 for ch in ("LL", "RL", "RR")}
        pool_cost = getattr(workload, "pool_cost", None)
        extra["observables.excitation_trace.pool_cost_s"] = (
            pool_cost(ws, inputs, expected, tally) if pool_cost else 0.0)
        extra["setup.import_s"] = import_s
        extra["trace.overhead_s"] = traced_wall - statistics.median(walls)
        result["layers"] = tracer.layer_metrics(extra)
        result["traced_wall_s"] = traced_wall
        spans_path = os.path.join(args.out, f"spans-{args.workload}.csv")
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path

    result.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors[:20], "wrong": tally.wrong[:20],
        "correct": not tally.wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
