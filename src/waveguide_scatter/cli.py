"""Command-line entry points for the scattering toolkit.

Subcommands:

* ``reflect``: closed-form (optionally cross-checked numerically, for
  n <= 20) full-reversal probabilities for same-direction exponential trains;
* ``excite``: emitter excitation traces for one- and two-photon drives;
* ``two-photon``: channel amplitude grids dumped as CSV;
* ``validate``: two-route agreement suites, exit code 1 on breach;
* ``figure3``: reversal probability over a bandwidth sweep.

Each subcommand is declared once, in ``_COMMANDS``: its runner, its help
line and its options with their defaults.  An option's flag is its key
with dashes (``--output`` also takes ``-o``), read as a float or a count
where ``_FLOAT_OPTIONS`` or ``_COUNT_OPTIONS`` list it (and ``--photons``
as an integer), and ``--numeric`` is a switch.
Options may come from a JSON config file (keys are the option names
with underscores); explicit flags override the file.  Exit codes: 0 on
success, 1 when a validation suite fails, 2 for bad input, configuration
errors, quadrature that does not converge and sizes beyond memory.
Every table (the ``reflect``, ``figure3`` and ``excite`` rows and the
``two-photon`` grids) goes through the one CSV writer of
``amplitudes``: floats carry 12 significant digits and photon numbers
are integers, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .amplitudes import CHANNELS, _write_table, two_photon_channel_grid, write_grid_csv
from .model import PulseProfile, WavepacketN
from .quadrature import ConvergenceError
from .observables import (
    _MAX_NUMERIC_PHOTONS,
    excitation_trace,
    reflection_probability_closed,
    reflection_probability_numeric,
)
from .spectral import (
    appendix_comparison,
    single_photon_bridge_error,
    single_photon_reflection_freq,
)

# options read as floats, and counts with their least value; both are
# checked once, whether they come from a flag or from --config
_FLOAT_OPTIONS = ("gamma", "gamma2", "t_max", "t", "tau_max", "tolerance",
                  "omega_min", "omega_max")
_COUNT_OPTIONS = {"points": 1, "tau_points": 1, "omega_points": 2, "time_points": 1}


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad photon-number list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ValueError(f"photon numbers must be positive integers: {text!r}")
    return values


def _parse_axis(text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ValueError(
            f"bad axis spec {text!r}; expected log:start:stop:points or lin:...")
    start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    if count < 1:
        raise ValueError("axis needs at least one point")
    if parts[0] == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log axes need positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _build_pair(gamma: float, gamma2: float | None, directions: str | None,
                n: int) -> WavepacketN:
    """n exponential photons, the second at gamma2 if given; each direction
    letter (commas ignored) is read by the wavepacket's own direction parser."""
    letters = "R" * n if directions is None else str(directions).replace(",", "")
    if len(letters) != n:
        raise ValueError(f"need {n} direction letters, got {directions!r}")
    gammas = [gamma, gamma if gamma2 is None else gamma2][:n]
    return WavepacketN.product((PulseProfile.exponential(float(g)), d)
                               for g, d in zip(gammas, letters))


def _open_output(target):
    """A file opened for writing, or stdout for '-' or None."""
    if target is None or str(target) == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(target, "w", newline="")


def _cmd_reversal(opt: dict) -> int:
    """Closed-form (and numeric) reversal probabilities, one row per (n, gamma),
    at ``gamma`` (reflect) or over ``gamma_grid`` (figure3)."""
    n_values = _parse_n_list(opt["n_list"])
    gammas = _parse_axis(opt["gamma_grid"]) if "gamma_grid" in opt else [opt["gamma"]]
    numeric = bool(opt["numeric"])
    if numeric and max(n_values) > _MAX_NUMERIC_PHOTONS:
        raise ValueError(
            f"the numeric cross-check supports n <= {_MAX_NUMERIC_PHOTONS}")
    tasks = [(n, float(g)) for n in n_values for g in gammas]
    if numeric:
        header = ["n", "gamma", "closed", "numeric", "abs_err"]
        results = [reflection_probability_numeric(n, g) for n, g in tasks]
        values = [[r.closed, r.numeric, r.abs_err] for r in results]
    else:
        header = ["n", "gamma", "closed"]
        values = [[reflection_probability_closed(n, g)] for n, g in tasks]
    n_col, g_col = (np.array(col) for col in zip(*tasks))
    with _open_output(opt["output"]) as fh:
        _write_table(fh, header, [n_col, g_col, *np.array(values).T])
    return 0


def _cmd_excite(opt: dict) -> int:
    photons = int(opt["photons"])
    if photons not in (1, 2):
        raise ValueError("excite supports 1 or 2 photons")
    w = _build_pair(opt["gamma"], opt["gamma2"], opt["directions"], photons)
    t_max = opt["t_max"] if opt["t_max"] is not None else w.horizon
    times = np.linspace(0.0, t_max, int(opt["points"]))
    trace = excitation_trace(times, w)
    with _open_output(opt["output"]) as fh:
        _write_table(fh, ["t", "p_excited"], [trace.times, trace.values])
    return 0


def _cmd_two_photon(opt: dict) -> int:
    w = _build_pair(opt["gamma"], opt["gamma2"], opt["directions"], 2)
    t = opt["t"] if opt["t"] is not None else w.horizon
    tau_max = opt["tau_max"] if opt["tau_max"] is not None else w.horizon
    axis = np.linspace(0.0, tau_max, int(opt["tau_points"]))
    wanted = CHANNELS if opt["channel"] == "all" else (opt["channel"],)
    if any(ch not in CHANNELS for ch in wanted):
        raise ValueError(f"channel must be one of {CHANNELS} or 'all'")
    out = str(opt["output"])
    if out == "-":
        raise ValueError("two-photon grids require a file output path")
    base, ext = os.path.splitext(out)
    ext = ext or ".csv"
    for ch in wanted:
        grid = two_photon_channel_grid(w, ch, axis, axis, t=t)
        path = f"{base}_{ch}{ext}" if len(wanted) > 1 else out
        write_grid_csv(grid, path, header_path=os.path.splitext(path)[0] + ".json")
    return 0


def _cmd_validate(opt: dict) -> int:
    suite = str(opt["suite"])
    gamma = opt["gamma"]
    tol = opt["tolerance"]
    if tol is None:
        tol = 1e-4 if suite == "two-photon-bridge" else 1e-6
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol!r}")
    if suite == "two-photon-bridge":
        report = appendix_comparison(
            gamma, omega_min=opt["omega_min"], omega_max=opt["omega_max"],
            n_omega=int(opt["omega_points"]),
            n_time=int(opt["time_points"]), tolerance=tol)
        with _open_output(opt["output"]) as fh:
            fh.write(report.to_json())
        return 0 if report.passed else 1
    if suite == "single-photon":
        closed = reflection_probability_closed(1, gamma)
        freq = single_photon_reflection_freq(gamma)
        bridge_err = single_photon_bridge_error(gamma)
        payload = {
            "suite": "single-photon", "gamma": gamma, "tolerance": tol,
            "reversal_closed": closed, "reversal_freq": freq,
            "abs_err": abs(closed - freq), "bridge_max_err": bridge_err,
            "passed": bool(abs(closed - freq) <= tol and bridge_err <= 100 * tol),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        with _open_output(opt["output"]) as fh:
            fh.write(text)
        return 0 if payload["passed"] else 1
    raise ValueError(f"unknown validation suite {suite!r}")


# each subcommand's runner, help line, and options with their defaults
_COMMANDS: dict[str, tuple] = {
    "reflect": (_cmd_reversal, "full-reversal probabilities",
                {"n_list": "1,2,3,4,5", "gamma": 1.0, "numeric": False, "output": "-"}),
    "excite": (_cmd_excite, "emitter excitation trace",
               {"photons": 1, "gamma": 1.0, "gamma2": None, "directions": None,
                "t_max": None, "points": 201, "output": "-"}),
    "two-photon": (_cmd_two_photon, "two-photon channel grids",
                   {"gamma": 1.0, "gamma2": None, "directions": "RR", "channel": "all",
                    "t": None, "tau_max": None, "tau_points": 64,
                    "output": "two_photon.csv"}),
    "validate": (_cmd_validate, "two-route agreement suites",
                 {"suite": "two-photon-bridge", "gamma": 1.0, "tolerance": None,
                  "omega_min": -10.0, "omega_max": 10.0, "omega_points": 64,
                  "time_points": 4096, "output": "-"}),
    "figure3": (_cmd_reversal, "reversal probability vs bandwidth sweep",
                {"n_list": "1,2,3,4,5,6,7,8,9,10", "gamma_grid": "log:0.01:100:200",
                 "numeric": False, "output": "-"}),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``_COMMANDS`` entry, one flag per option: the key
    with dashes (plus ``-o`` for ``output``), typed as ``_effective_options``
    reads it."""
    parser = argparse.ArgumentParser(
        prog="waveguide-scatter",
        description="Few-photon scattering on a waveguide-coupled emitter.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON file with option defaults")
        for key in defaults:
            flags = ["--" + key.replace("_", "-")] + (["-o"] if key == "output" else [])
            if key == "numeric":
                p.add_argument(*flags, action="store_const", const=True, default=None)
            elif key in _FLOAT_OPTIONS:
                p.add_argument(*flags, type=float)
            else:
                p.add_argument(*flags, type=int if key in (*_COUNT_OPTIONS, "photons") else None)
    return parser


def _effective_options(command: str, args: argparse.Namespace) -> dict:
    opts = dict(_COMMANDS[command][2])
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(loaded) - set(opts)
        if unknown:
            raise ValueError(
                f"unknown config keys for {command}: {sorted(unknown)}")
        opts.update(loaded)
    for key in opts:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            opts[key] = flag_val
    for key in _FLOAT_OPTIONS:
        if opts.get(key) is not None:
            val = _as_number(float, key, opts[key])
            if not math.isfinite(val):
                raise ValueError(f"{key} must be finite, got {opts[key]!r}")
            opts[key] = val
    if opts.get("t_max") is not None and not opts["t_max"] > 0.0:
        raise ValueError(f"t_max must be > 0, got {opts['t_max']!r}")
    for key, least in _COUNT_OPTIONS.items():
        if key in opts and _as_number(int, key, opts[key]) < least:
            raise ValueError(f"{key} must be at least {least}, got {opts[key]!r}")
    return opts


def _as_number(kind, key: str, value):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} must be a number, got {value!r}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    opts = {}
    try:
        opts = _effective_options(args.command, args)
        return _COMMANDS[args.command][0](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        sizes = ", ".join(f"{key} = {opts[key]}" for key in _COUNT_OPTIONS if key in opts)
        print(f"error: out of memory at {sizes or 'these inputs'}; {exc}".rstrip("; "),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
