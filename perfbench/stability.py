"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/stability.py [--first-seed 1] [--save set.json] [--compare other.json]
    python3 perfbench/stability.py --traced [--first-seed 1]

Run from the repository root.  Each run is ``perfbench/run.py`` with the
run length of BENCHMARK.json and its own seed: RUNS seeds in a row per
workload of BENCHMARK.json.  The summary gives, per
workload and end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as
a share of the median, beside the metric's bound; also each run's
median CPU time per round beside its wall time.  ``--compare`` checks a second set
against a saved first one: every median within its bound and the same
share of failed operations.  ``--traced`` makes two traced runs per
workload with the same seed and prints the per-layer metrics, marking
any count that did not repeat exactly.  These are the commands that
produced the reference figures in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def _spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed with code {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(runs, bounds) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values), "bound": bound}
    att = sum(r["result"]["attempted"] for r in runs)
    fail = sum(r["result"]["failed"] for r in runs)
    out["failed_share"] = {"failed": fail, "attempted": att}
    return out


def print_set(workload, runs, summary) -> None:
    print(f"\n== {workload}: {len(runs)} runs")
    print("  seed  wall_s    cpu_s     rounds setup_s   peak_rss_mb  correct")
    for r in runs:
        m = r["result"]["metrics"]
        print(f"  {r['seed']:<5d} {m['wall_s']['value']:<9.3f} "
              f"{statistics.median(r['detail']['cpu_s']):<9.3f} {r['detail']['rounds']:<6d} "
              f"{m['setup_s']['value']:<9.4f} {m['peak_rss_mb']['value']:<12.2f} "
              f"{r['result']['correct']}")
    for name, s in summary.items():
        if name == "failed_share":
            print(f"  failed {s['failed']} of {s['attempted']}")
            continue
        flag = "" if s["spread"] <= s["bound"] / 3.0 else "  <-- above a third of the bound"
        print(f"  {name:<12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"spread {100 * s['spread']:.2f}% (bound {100 * s['bound']:.0f}%){flag}")


def traced(workloads, seed) -> None:
    for workload in workloads:
        first = run_once(workload, seed, _spec()["run_seconds"], 1)[1]["metrics"]
        second = run_once(workload, seed, _spec()["run_seconds"], 1)[1]["metrics"]
        print(f"\n== {workload} (traced, seed {seed})")
        for name, m in first.items():
            again = second[name]["value"]
            mark = ""
            if m["unit"] == "count" and again != m["value"]:
                mark = f"  <-- second run {again}"
            print(f"  {name:<48s} {m['value']:<14.6g} {m['unit']}{mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = _spec()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.traced:
        traced(workloads, args.first_seed)
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in workloads:
        runs = []
        for k in range(RUNS):
            seed = args.first_seed + k
            detail, result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "detail": detail, "result": result})
        summary = summarise(runs, bounds)
        print_set(workload, runs, summary)
        results[workload] = {"runs": runs, "summary": summary}
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(results, fh, indent=1)
    status = 0
    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)
        print("\n== second set against the first (positive = worse)")
        for workload, now in results.items():
            then = before[workload]["summary"]
            for name, bound in bounds.items():
                change = now["summary"][name]["median"] / then[name]["median"] - 1.0
                ok = change <= bound
                status |= not ok
                print(f"  {workload:<16s} {name:<12s} {100 * change:+.2f}% (bound {100 * bound:.0f}%)"
                      f"{'' if ok else '  <-- past the bound'}")
            a, b = then["failed_share"], now["summary"]["failed_share"]
            same = a["failed"] * b["attempted"] == b["failed"] * a["attempted"]
            status |= not same
            print(f"  {workload:<16s} failed share {a['failed']}/{a['attempted']} vs "
                  f"{b['failed']}/{b['attempted']}{'' if same else '  <-- differs'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
