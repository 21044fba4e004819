"""Checks of the tracer and of BENCHMARK.json against the benchmark code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, "..", "..")
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import waveguide_scatter as ws  # noqa: E402
import waveguide_scatter.cli  # noqa: E402,F401


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_nested_integrands_are_counted_once_and_wrappers_come_off():
    seen = []

    def f(t):
        seen.append(np.size(t))
        return np.exp(-np.asarray(t))

    original = ws.observables.integrate_semi_infinite
    tracer = spans.Tracer()
    tracer.install(ws)
    try:
        val = ws.observables.integrate_semi_infinite(f, 0.0)
    finally:
        tracer.uninstall()
    assert ws.observables.integrate_semi_infinite is original
    assert abs(val - 1.0) < 1e-9
    tot = tracer.totals()
    assert tot["quadrature.integrand"]["calls"] == len(seen)
    assert tot["quadrature.integrand"]["points"] == sum(seen)
    assert tot["quadrature.integrate_semi_infinite"]["calls"] == 1
    assert tot["quadrature.integrate.nested"]["calls"] >= 3
    layers = tracer.layer_metrics({"setup.import_s": 0.0, "trace.overhead_s": 0.0,
                                   "observables.excitation_trace.pool_cost_s": 0.0,
                                   "spectral.max_abs_err.LL": 0.0, "spectral.max_abs_err.RL": 0.0,
                                   "spectral.max_abs_err.RR": 0.0})
    assert [(k, v["unit"]) for k, v in layers.items()] == spans.PER_LAYER
    assert layers["quadrature.integrand.points_per_integral"]["value"] == sum(seen)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.install(ws)
    try:
        ws.observables.reflection_probability_numeric(2, 1.0)
    finally:
        tracer.uninstall()
    tot = tracer.totals()
    outer = tot["observables.reflection_probability_numeric"]
    assert outer["calls"] == 1
    assert 0.0 < outer["self_s"] < outer["s"]
    inner = sum(tot[n]["s"] for n in ("quadrature.integrate_semi_infinite",))
    assert outer["s"] - outer["self_s"] >= 0.99 * inner
