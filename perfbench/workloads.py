"""The four benchmark workloads.

Each workload builds its inputs from a seeded generator, makes one
warm-up call (so lazy caches such as the Gauss-Legendre node table and
the first-touch imports are filled before timing), computes its
reference values with ``oracles`` (untimed), and then runs rounds.  A
round is always the same list of program calls, each counted as one
operation, followed by the checks of their results.

Program functions are looked up on their modules at call time
(``ws.observables.excitation_trace``), so the traced run's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

import oracles


class Tally:
    """Operations attempted and failed, and checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []

    def call(self, label: str, func, *args, **kwargs):
        """Run one program operation; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, func(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong.append(message)


def _exp_pair(ws, gammas, directions):
    model = ws.model
    return model.WavepacketN.product(
        [(model.PulseProfile.exponential(g), model.Direction(d))
         for g, d in zip(gammas, directions)])


class ReversalExcite:
    """Closed-kernel 1-D quadrature: the reversal sweep and excitation traces."""

    name = "reversal-excite"
    # the grid of the acceptance sweep: n = 1..5 over six bandwidths
    SWEEP = [(n, g) for n in range(1, 6) for g in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
    SWEEP_TOL = 1e-6
    TRACE_POINTS = 161
    TRACE_END = 8.0
    # RK4 and hierarchy step error plus the engine's 1e-10 relative tolerance
    TRACE_TOL = 1e-8

    def prepare(self, ws, rng):
        # one time per stratum of (0, TRACE_END]: the sum of times, and so the
        # work, barely moves with the seed
        step = self.TRACE_END / self.TRACE_POINTS
        times = (np.arange(self.TRACE_POINTS) + rng.uniform(0.05, 1.0, self.TRACE_POINTS)) * step
        g1 = float(rng.uniform(0.5, 3.0))
        g_rr = float(rng.uniform(1.5, 2.5))
        g_r, g_l = float(rng.uniform(0.5, 1.0)), float(rng.uniform(2.5, 4.0))
        return {
            "times": times,
            "one": (g1, _exp_pair(ws, [g1], ["right"])),
            "rr": (g_rr, _exp_pair(ws, [g_rr, g_rr], ["right", "right"])),
            "rl": ((g_r, g_l), _exp_pair(ws, [g_r, g_l], ["right", "left"])),
        }

    def warm_up(self, ws, inputs):
        ws.observables.reflection_probability_numeric(2, 1.0)
        for key in ("one", "rr", "rl"):
            ws.observables.excitation_trace(inputs["times"][:2], inputs[key][1])

    def expect(self, inputs):
        times = inputs["times"]
        g1 = inputs["one"][0]
        g_rr = inputs["rr"][0]
        g_r, g_l = inputs["rl"][0]
        return {
            "sweep": [oracles.reversal_probability(n, g) for n, g in self.SWEEP],
            "one": oracles.rk4_one_photon(g1, times),
            "rr": oracles.fock_excitation([(g_rr, 2)], times),
            "rl": oracles.fock_excitation([(g_r, 1), (g_l, 1)], times),
        }

    def run_round(self, ws, inputs, expected, tally):
        for (n, g), ref in zip(self.SWEEP, expected["sweep"]):
            ok, res = tally.call(f"reversal n={n} g={g}",
                                 ws.observables.reflection_probability_numeric, n, g)
            if ok:
                err = abs(res.numeric - ref)
                tally.check(err <= self.SWEEP_TOL,
                            f"reversal n={n} g={g}: |numeric - product| = {err:.3g}")
        self._traces(ws, inputs, expected, tally)

    def _traces(self, ws, inputs, expected, tally) -> float:
        """The three excitation traces, checked; returns their wall time."""
        times = inputs["times"]
        t0 = time.perf_counter()
        for key in ("one", "rr", "rl"):
            ok, trace = tally.call(f"excitation trace {key}",
                                   ws.observables.excitation_trace, times, inputs[key][1])
            if ok:
                err = float(np.max(np.abs(trace.values - expected[key])))
                tally.check(err <= self.TRACE_TOL,
                            f"excitation trace {key}: max deviation {err:.3g}")
        return time.perf_counter() - t0

    def pool_cost(self, ws, inputs, expected, tally) -> float:
        """Seconds the package's default thread pool adds to the three traces.

        The rounds run the traces serially (SCATTER_THREADS=1, see run.py).
        Here they run serially and on a pool of nproc threads (the CPUs the
        process may use; the package's default, os.cpu_count(), where the
        two agree), in the order serial, pool, pool, serial, which cancels a
        linear drift of the box's speed.  The
        result is the mean pooled time minus the mean serial time: negative
        when the pool wins.
        """
        pool = str(len(os.sched_getaffinity(0)))
        saved = os.environ.get("SCATTER_THREADS")
        spent = {"1": 0.0, pool: 0.0}
        try:
            for threads in ("1", pool, pool, "1"):
                os.environ["SCATTER_THREADS"] = threads
                spent[threads] += self._traces(ws, inputs, expected, tally)
        finally:
            if saved is None:
                del os.environ["SCATTER_THREADS"]
            else:
                os.environ["SCATTER_THREADS"] = saved
        return (spent[pool] - spent["1"]) / 2.0


class Pointwise:
    """The general engine on a sampled (correlated2) copy of an exponential pair."""

    name = "pointwise"
    GAMMA = 1.0
    GRID = (0.0, 35.0, 351)
    # Simpson norm of the samples is off unity by ~1e-6 at this spacing
    NORM_TOL = 1e-5
    EXCITE_TIMES = (0.5, 1.0)
    IDENTITY_POINTS = 3
    OUTPUT_TIMES = 3
    OBSERVE_AT = 8.0

    def floor(self, inputs) -> float:
        """The engine's tolerance floor for this grid: h^2 / 8 (bilinear error)."""
        h = float(np.max(np.diff(inputs["grid"])))
        return h * h / 8.0

    def prepare(self, ws, rng):
        grid = np.linspace(*self.GRID)
        x = oracles.envelope(grid, self.GAMMA)
        state = ws.model.WavepacketN.correlated_pair(
            grid, xi2=np.outer(x, x), norm_tol=self.NORM_TOL)
        pairs = [tuple(float(v) for v in rng.uniform(0.1, 3.0, 2))
                 for _ in range(self.IDENTITY_POINTS)]
        outs = np.sort(rng.uniform(0.2, 3.5, self.OUTPUT_TIMES))
        return {"grid": grid, "state": state, "pairs": pairs, "outputs": outs}

    def warm_up(self, ws, inputs):
        w = inputs["state"]
        ws.amplitudes.nonlinear_correction_B(0.5, 1.0, w)
        ws.amplitudes.two_photon_outputs(0.5, 1.0, self.OBSERVE_AT, w)

    def expect(self, inputs):
        g = self.GAMMA
        exc = oracles.fock_excitation([(g, 2)], list(self.EXCITE_TIMES))
        pairs = []
        for a, b in inputs["pairs"]:
            lo, hi = min(a, b), max(a, b)
            h_lo = oracles.kernel_h(lo, 0.0, g)
            pairs.append({
                "ordered": math.sqrt(2.0) * h_lo * oracles.kernel_h(hi, lo, g),
                "linear": math.sqrt(2.0) * oracles.kernel_h(a, 0.0, g) * oracles.kernel_h(b, 0.0, g),
                "B": -math.exp(-(hi - lo)) * h_lo * h_lo,
            })
        outs = inputs["outputs"]
        channels = oracles.pair_channels(outs[:, None], outs[None, :], self.OBSERVE_AT, g)
        return {"excite": exc, "pairs": pairs, "channels": channels}

    def run_round(self, ws, inputs, expected, tally):
        w = inputs["state"]
        floor = self.floor(inputs)
        amp = ws.amplitudes
        for t, ref in zip(self.EXCITE_TIMES, expected["excite"]):
            ok, val = tally.call(f"excitation t={t}", ws.observables.excitation_probability, t, w)
            if ok:
                # the outer pass runs at 4 x floor relative tolerance
                bound = 4.0 * floor * ref
                tally.check(abs(val - ref) <= bound,
                            f"excitation t={t}: {val!r} vs hierarchy {ref!r} (bound {bound:.3g})")
        for (a, b), ref in zip(inputs["pairs"], expected["pairs"]):
            lo, hi = min(a, b), max(a, b)
            got = {}
            for key, func, args in (("ordered", amp.ordered_emission_amplitude, ([lo, hi], w)),
                                    ("linear", amp.linear_beamsplitter_amplitude, (a, b, w)),
                                    ("B", amp.nonlinear_correction_B, (a, b, w))):
                ok, val = tally.call(f"{key} at ({a:.4f}, {b:.4f})", func, *args)
                if ok:
                    got[key] = complex(val)
            for key, val in got.items():
                bound = floor * (abs(ref[key]) + 0.1)
                tally.check(abs(val - ref[key]) <= bound,
                            f"{key} at ({a:.4f}, {b:.4f}): {val!r} vs closed kernel {ref[key]!r}")
            if len(got) == 3:
                # each integral meets abs_tol + rel_tol |I| with the floored spec
                bound = sum((floor * 1e-3 + floor * abs(got[k])) * s
                            for k, s in (("ordered", 1.0), ("linear", 1.0), ("B", math.sqrt(2.0))))
                gap = abs(got["ordered"] - (got["linear"] + math.sqrt(2.0) * got["B"]))
                tally.check(gap <= bound,
                            f"identity at ({a:.4f}, {b:.4f}): gap {gap:.3g} > {bound:.3g}")
        outs = inputs["outputs"]
        for i, t1 in enumerate(outs):
            for j, t2 in enumerate(outs):
                ok, vals = tally.call(f"outputs at ({t1:.4f}, {t2:.4f})", amp.two_photon_outputs,
                                      float(t1), float(t2), self.OBSERVE_AT, w)
                if not ok:
                    continue
                for ch, ref in expected["channels"].items():
                    bound = floor * (abs(ref[i, j]) + 0.1)
                    err = abs(vals[ch] - ref[i, j])
                    tally.check(err <= bound,
                                f"{ch} at ({t1:.4f}, {t2:.4f}): deviation {err:.3g} > {bound:.3g}")


class Bridge:
    """appendix_comparison(1.0) at its defaults: 4097^2 time grid to 64^2 frequencies."""

    name = "bridge"
    GAMMA = 1.0
    TOLERANCE = 1e-4
    FREQ_POINTS = 4
    # tail_tol of the frequency route's anti-diagonal convolution
    TAIL_TOL = 1e-5

    def prepare(self, ws, rng):
        pts = [tuple(float(v) for v in rng.uniform(-10.0, 10.0, 2)) for _ in range(self.FREQ_POINTS)]
        amp = math.sqrt(self.GAMMA / (2.0 * math.pi))

        def line(w1, w2):
            return (amp / (0.5 * self.GAMMA - 1j * np.asarray(w1))
                    * amp / (0.5 * self.GAMMA - 1j * np.asarray(w2)))

        return {"points": pts, "line": line}

    def warm_up(self, ws, inputs):
        ws.spectral.appendix_comparison(self.GAMMA, n_time=512, n_omega=4)
        ws.spectral.freq_two_photon_outputs(0.5, -0.5, inputs["line"])

    def expect(self, inputs):
        return {"points": [oracles.freq_pair_channels(a, b, self.GAMMA) for a, b in inputs["points"]]}

    def run_round(self, ws, inputs, expected, tally):
        self.achieved = {}
        ok, report = tally.call("appendix_comparison", ws.spectral.appendix_comparison, self.GAMMA)
        if ok:
            tally.check(report.n_time == 4096 and report.n_omega == 64 and report.gamma_bw == self.GAMMA,
                        "appendix_comparison did not run at its defaults")
            seen = [c.channel for c in report.channels]
            tally.check(seen == ["LL", "RL", "RR"], f"channels {seen}")
            for c in report.channels:
                self.achieved[c.channel] = c.max_abs_err
                tally.check(math.isfinite(c.max_abs_err) and 0.0 < c.max_abs_err <= self.TOLERANCE
                            and c.passed,
                            f"bridge {c.channel}: max_abs_err {c.max_abs_err!r}")
        for (a, b), ref in zip(inputs["points"], expected["points"]):
            ok, vals = tally.call(f"freq outputs at ({a:.4f}, {b:.4f})",
                                  ws.spectral.freq_two_photon_outputs, a, b, inputs["line"])
            if not ok:
                continue
            r_sum = abs(-1j / (a + 1j) + -1j / (b + 1j))
            bound = math.sqrt(2.0) * r_sum * self.TAIL_TOL / (2.0 * math.pi) + 1e-9
            for ch in ("LL", "RL", "RR"):
                err = abs(vals[ch] - ref[ch])
                tally.check(err <= bound,
                            f"freq {ch} at ({a:.4f}, {b:.4f}): deviation {err:.3g} > {bound:.3g}")


class GridIO:
    """The two-photon CLI writing ~43 MB of CSV, read back by load_grid_csv."""

    name = "grid-io"
    POINTS = 400
    CHANNELS = ("LL", "RL", "RR")

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def _argv(self, gamma, points, base):
        return ["two-photon", "--gamma", repr(gamma), "--channel", "all",
                "--tau-points", str(points), "--output", os.path.join(self.out_dir, base + ".csv")]

    def _paths(self, base):
        stem = os.path.join(self.out_dir, base)
        return {ch: (f"{stem}_{ch}.csv", f"{stem}_{ch}.json") for ch in self.CHANNELS}

    def prepare(self, ws, rng):
        gamma = float(rng.uniform(0.8, 1.6))
        horizon = max(20.0, 40.0 / gamma)
        return {"gamma": gamma, "axis": np.linspace(0.0, horizon, self.POINTS), "t": horizon}

    def warm_up(self, ws, inputs):
        os.makedirs(self.out_dir, exist_ok=True)
        ws.cli.main(self._argv(inputs["gamma"], 16, "warm"))
        for csv_path, json_path in self._paths("warm").values():
            ws.amplitudes.load_grid_csv(csv_path, json_path)
            os.remove(csv_path)
            os.remove(json_path)

    def expect(self, inputs):
        axis = inputs["axis"]
        return oracles.pair_channels(axis[:, None], axis[None, :], inputs["t"], inputs["gamma"])

    def run_round(self, ws, inputs, expected, tally):
        paths = self._paths("grid")
        for pair in paths.values():
            for p in pair:
                if os.path.exists(p):
                    os.remove(p)
        ok, rc = tally.call("cli two-photon", ws.cli.main, self._argv(inputs["gamma"], self.POINTS, "grid"))
        if ok:
            tally.check(rc == 0, f"cli two-photon exited {rc}")
        axis = inputs["axis"]
        fine, coarse, loaded = 0.0, 0.0, 0
        for ch, (csv_path, json_path) in paths.items():
            ok, grid = tally.call(f"load {ch}", ws.amplitudes.load_grid_csv, csv_path, json_path)
            if not ok:
                continue
            loaded += 1
            ref = expected[ch]
            vals = grid.values
            tally.check(grid.channel == ch and vals.shape == ref.shape
                        and all(np.all(np.abs(a - axis) <= oracles.sig12_tolerance(axis) + 1e-300)
                                for a in grid.axes),
                        f"{ch}: header, shape or axes do not round-trip")
            if vals.shape != ref.shape:
                continue
            # 12 significant digits, plus the last-bit disagreement of two
            # float evaluations of terms of size ~1
            err = np.abs(vals - ref)
            tol = np.hypot(oracles.sig12_tolerance(ref.real), oracles.sig12_tolerance(ref.imag)) + 1e-14
            tally.check(bool(np.all(err <= tol)),
                        f"{ch}: worst deviation from the closed form {float(np.max(err - tol)):.3g} past tolerance")
            if ch == "LL":
                asym = np.abs(vals - vals.T)
                tally.check(bool(np.all(asym <= 2.0 * tol + 1e-15)),
                            f"LL not symmetric: {float(np.max(asym)):.3g}")
            fine += oracles.trapezoid_norm(vals, axis)
            coarse += oracles.trapezoid_norm(vals[::2, ::2], axis[::2])
        if loaded == len(paths):
            # trapezoid error is O(h^2): the h / 2h difference estimates it,
            # err(h) ~ |S_h - S_2h| / 3; allow 1.5 x that estimate
            bound = 1.5 * abs(fine - coarse) / 3.0 + 1e-9
            tally.check(abs(fine - 1.0) <= bound,
                        f"channel norm sum {fine!r}, |sum - 1| > bound {bound:.3g}")


def make(name: str, out_dir: str):
    table = {"reversal-excite": ReversalExcite, "pointwise": Pointwise, "bridge": Bridge}
    if name == "grid-io":
        return GridIO(out_dir)
    return table[name]()


NAMES = ("reversal-excite", "pointwise", "bridge", "grid-io")
