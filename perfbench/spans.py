"""Span tracing of the package's layers, from outside the package.

The tracer replaces public functions by timing wrappers in the modules
that call them, which is where Python looks the names up at call time:
``observables.integrate``, ``amplitudes.h_closed_form``,
``spectral.fourier_bridge`` and so on.  Nothing inside the package is
edited, and the untraced runs never install a wrapper.

Spans are kept in memory as small lists and reduced to per-layer
metrics when the traced round ends.  A layer's self time is its span's
duration minus the time its child spans cover.  Integrand evaluations
get spans of their own, so the self time of a quadrature call is the
engine's own bookkeeping; an integrand already counted by an outer
quadrature call (``integrate_semi_infinite`` nests ``integrate``) is
not wrapped, and so not counted, a second time.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

# span record fields
NAME, START, END, PARENT, POINTS, NBYTES, CHILD = range(7)

# (metric name, unit); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate_semi_infinite.calls", "count"),
    ("quadrature.integrand.calls", "count"),
    ("quadrature.integrand.points", "count"),
    ("quadrature.integrand.points_per_integral", "points/integral"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.integrate_2d_box.calls", "count"),
    ("quadrature.integrate_2d_box.points", "count"),
    ("quadrature.integrate_2d_box.self_s", "s"),
    ("kernel.h_closed_form.calls", "count"),
    ("kernel.h_closed_form.points", "count"),
    ("kernel.h_closed_form.self_s", "s"),
    ("model.component.calls", "count"),
    ("model.component.points", "count"),
    ("model.component.self_s", "s"),
    ("amplitudes.exp_pair_channel_values.points", "count"),
    ("amplitudes.exp_pair_channel_values.self_s", "s"),
    ("amplitudes.exp_pair_channel_values.computed_mb", "MB"),
    ("amplitudes.two_photon_channel_grid.s", "s"),
    ("amplitudes.two_photon_outputs.calls", "count"),
    ("amplitudes.two_photon_outputs.s", "s"),
    ("amplitudes.write_grid_csv.s", "s"),
    ("amplitudes.write_grid_csv.mb", "MB"),
    ("amplitudes.load_grid_csv.s", "s"),
    ("observables.reflection_probability_numeric.s", "s"),
    ("observables.excitation_trace.s", "s"),
    ("observables.excitation_probability.calls", "count"),
    ("observables.excitation_probability.s", "s"),
    ("observables.excitation_trace.pool_cost_s", "s"),
    ("spectral.fourier_bridge.s", "s"),
    ("spectral.freq_channel_grid.s", "s"),
    ("spectral.appendix_comparison.s", "s"),
    ("spectral.max_abs_err.LL", "1"),
    ("spectral.max_abs_err.RL", "1"),
    ("spectral.max_abs_err.RR", "1"),
    ("cli.main.s", "s"),
    ("setup.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

_INTEGRAND = "quadrature.integrand"
_BOX_INTEGRAND = "quadrature.integrate_2d_box.integrand"
# integrate called by integrate_semi_infinite, inside the engine
_NESTED_INTEGRATE = "quadrature.integrate.nested"


def _points(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, 0, 0, 0.0]
        self.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD] += record[END] - record[START]

    def _call(self, name, func, args, kwargs, measure=None):
        record = self._open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            self._close(record)
        if measure is not None:
            record[POINTS], record[NBYTES] = measure(args, kwargs, result)
        return result

    # -- wrappers ------------------------------------------------------------

    def _counted(self, f, name: str):
        if getattr(f, "_perfbench_counted", False):
            return f

        def integrand(*nodes):
            record = self._open(name)
            try:
                return f(*nodes)
            finally:
                self._close(record)
                record[POINTS] = _points(*nodes)

        integrand._perfbench_counted = True
        return integrand

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        func = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            return self._call(name, func, args, kwargs, measure)

        self._patch(owner, attr, wrapper)

    def wrap_quadrature(self, owner, attr: str, name: str, integrand_name: str) -> None:
        func = owner.__dict__[attr]

        def wrapper(f, *args, **kwargs):
            return self._call(name, func, (self._counted(f, integrand_name),) + args, kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, ws) -> None:
        """Wrap every traced function in the modules that call it."""
        quadrature, kernel, model = ws.quadrature, ws.kernel, ws.model
        amplitudes, observables, spectral, cli = ws.amplitudes, ws.observables, ws.spectral, ws.cli
        for mod in (kernel, amplitudes, observables, spectral):
            self.wrap_quadrature(mod, "integrate", "quadrature.integrate", _INTEGRAND)
        self.wrap_quadrature(quadrature, "integrate", _NESTED_INTEGRATE, _INTEGRAND)
        self.wrap_quadrature(observables, "integrate_semi_infinite",
                             "quadrature.integrate_semi_infinite", _INTEGRAND)
        self.wrap_quadrature(amplitudes, "integrate_2d_box",
                             "quadrature.integrate_2d_box", _BOX_INTEGRAND)

        def kernel_points(args, kwargs, result):
            return _points(args[0], args[1]), 0

        for mod in (kernel, amplitudes, observables):
            self.wrap(mod, "h_closed_form", "kernel.h_closed_form", kernel_points)

        def component_points(args, kwargs, result):
            times = args[2] if len(args) > 2 else kwargs["times"]
            return _points(*times), 0

        self.wrap(model.WavepacketN, "component", "model.component", component_points)

        def values_size(args, kwargs, result):
            return int(np.size(result)), int(np.asarray(result).nbytes)

        for mod in (amplitudes, observables):
            self.wrap(mod, "exp_pair_channel_values",
                      "amplitudes.exp_pair_channel_values", values_size)
        for mod in (spectral, cli):
            self.wrap(mod, "two_photon_channel_grid", "amplitudes.two_photon_channel_grid")

        def written_size(args, kwargs, result):
            paths = [args[1], args[2] if len(args) > 2 else kwargs.get("header_path")]
            return 0, sum(os.path.getsize(p) for p in paths if p is not None)

        self.wrap(cli, "write_grid_csv", "amplitudes.write_grid_csv", written_size)
        self.wrap(amplitudes, "load_grid_csv", "amplitudes.load_grid_csv")
        self.wrap(amplitudes, "two_photon_outputs", "amplitudes.two_photon_outputs")
        for mod in (observables, cli):
            self.wrap(mod, "reflection_probability_numeric",
                      "observables.reflection_probability_numeric")
            self.wrap(mod, "excitation_trace", "observables.excitation_trace")
        self.wrap(observables, "excitation_probability", "observables.excitation_probability")
        self.wrap(spectral, "fourier_bridge", "spectral.fourier_bridge")
        self.wrap(spectral, "freq_channel_grid", "spectral.freq_channel_grid")
        for mod in (spectral, cli):
            self.wrap(mod, "appendix_comparison", "spectral.appendix_comparison")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, points, bytes."""
        out: dict[str, dict] = {}
        for rec in self.spans:
            t = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "points": 0, "bytes": 0})
            dur = rec[END] - rec[START]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - rec[CHILD]
            t["points"] += rec[POINTS]
            t["bytes"] += rec[NBYTES]
        return out

    def layer_metrics(self, extra: dict) -> dict:
        """Every PER_LAYER metric; ``extra`` supplies values measured elsewhere."""
        tot = self.totals()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "bytes": 0}

        def get(name):
            return tot.get(name, empty)

        direct = get("quadrature.integrate")
        nested = get(_NESTED_INTEGRATE)
        semi = get("quadrature.integrate_semi_infinite")
        integrand = get(_INTEGRAND)
        integrals = direct["calls"] + semi["calls"]
        values = {
            "quadrature.integrate.calls": direct["calls"] + nested["calls"],
            "quadrature.integrate_semi_infinite.calls": semi["calls"],
            "quadrature.integrand.calls": integrand["calls"],
            "quadrature.integrand.points": integrand["points"],
            "quadrature.integrand.points_per_integral":
                integrand["points"] / integrals if integrals else 0.0,
            "quadrature.integrate.self_s": direct["self_s"] + nested["self_s"],
            "quadrature.integrate_2d_box.calls": get("quadrature.integrate_2d_box")["calls"],
            "quadrature.integrate_2d_box.points": get(_BOX_INTEGRAND)["points"],
            "quadrature.integrate_2d_box.self_s": get("quadrature.integrate_2d_box")["self_s"],
            "amplitudes.exp_pair_channel_values.computed_mb":
                get("amplitudes.exp_pair_channel_values")["bytes"] / 1e6,
            "amplitudes.write_grid_csv.mb": get("amplitudes.write_grid_csv")["bytes"] / 1e6,
            "trace.spans": len(self.spans),
        }
        for metric, _unit in PER_LAYER:
            if metric in values or metric in extra:
                continue
            layer, _, field = metric.rpartition(".")
            values[metric] = get(layer)[field]
        values.update(extra)
        units = dict(PER_LAYER)
        return {m: {"value": values[m], "unit": units[m]} for m, _ in PER_LAYER}

    def write_spans(self, path: str) -> None:
        """Dump every span as CSV: id, name, start, end, parent id, points, bytes."""
        ids = {id(rec): k for k, rec in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,points,bytes\n")
            for k, rec in enumerate(self.spans):
                parent = ids[id(rec[PARENT])] if rec[PARENT] is not None else -1
                fh.write(f"{k},{rec[NAME]},{rec[START] - t0:.9f},{rec[END] - t0:.9f},"
                         f"{parent},{rec[POINTS]},{rec[NBYTES]}\n")
