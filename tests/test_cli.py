"""Command-line interface: determinism, exit codes, config merging."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from waveguide_scatter import (
    Direction,
    excitation_trace,
    exp_pair_channel_values,
    load_grid_csv,
    PulseProfile,
    WavepacketN,
    reflection_probability_closed,
)
from waveguide_scatter import cli
from waveguide_scatter.cli import main
from waveguide_scatter.quadrature import ConvergenceError


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_reflect_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["reflect", "--n-list", "1,2,3", "--gamma", "2"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert _read(a) == _read(b)
    assert _read(a).count(b"\n") == 4  # header plus one row per n


def test_reflect_values_match_closed_form(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["reflect", "--n-list", "1,2", "--gamma", "2",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma,closed"
    row1 = lines[1].split(",")
    assert int(row1[0]) == 1
    assert float(row1[2]) == pytest.approx(reflection_probability_closed(1, 2.0),
                                           rel=1e-10)
    row2 = lines[2].split(",")
    assert float(row2[2]) == pytest.approx(0.0625, rel=1e-10)


def test_reflect_numeric_column(tmp_path):
    out = tmp_path / "rn.csv"
    assert main(["reflect", "--n-list", "1,2", "--gamma", "1", "--numeric",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma,closed,numeric,abs_err"
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[4]) <= 1e-7


def test_excite_trace_spot_value(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["excite", "--photons", "1", "--gamma", "2",
                 "--t-max", "2", "--points", "5", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p_excited"
    t_vals = [float(l.split(",")[0]) for l in lines[1:]]
    p_vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert t_vals == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert p_vals[2] == pytest.approx(2.0 * math.exp(-2.0), abs=1e-9)


def _csv_writer_reference(header, rows):
    """The table as csv.writer writes it, floats formatted one by one."""
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, int) else f"{x:.11e}" for x in row])
        return fh.getvalue()


def _check_tables_against_csv_writer(out, n_list, points):
    """The reflect table over n_list and the excite trace on points times."""
    assert main(["reflect", "--n-list", ",".join(map(str, n_list)), "--gamma", "0.7",
                 "-o", str(out)]) == 0
    rows = [(n, 0.7, reflection_probability_closed(n, 0.7)) for n in n_list]
    assert out.read_text() == _csv_writer_reference(["n", "gamma", "closed"], rows)

    assert main(["excite", "--photons", "1", "--gamma", "1.3", "--t-max", "4",
                 "--points", str(points), "-o", str(out)]) == 0
    w = WavepacketN.product([(PulseProfile.exponential(1.3), Direction.RIGHT)])
    trace = excitation_trace(np.linspace(0.0, 4.0, points), w)
    rows = zip(trace.times, trace.values)
    assert out.read_text() == _csv_writer_reference(["t", "p_excited"], rows)


def test_tables_match_csv_writer_reference(tmp_path):
    _check_tables_against_csv_writer(tmp_path / "r.csv", [1, 2, 3, 10], 9)


def test_tables_match_csv_writer_reference_across_blocks(tmp_path):
    # 9,000 rows make three blocks of the writer, with the %d column and
    # the closed values repeating within and across blocks
    _check_tables_against_csv_writer(tmp_path / "r.csv", [1, 2, 3, 4, 5] * 1800, 9000)


def test_two_photon_grid_round_trips(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["two-photon", "--gamma", "1", "--channel", "RR",
                 "--t", "4", "--tau-max", "3", "--tau-points", "5",
                 "-o", str(out)]) == 0
    grid = load_grid_csv(out, tmp_path / "grid.json")
    assert grid.channel == "RR"
    assert grid.dynamical_time == 4.0
    p = PulseProfile.exponential(1.0)
    w = WavepacketN.product([(p, "R"), (p, "R")])
    ax = grid.axes[0]
    direct = exp_pair_channel_values(w, "RR", ax[:, None], ax[None, :], 4.0)
    np.testing.assert_allclose(grid.values, direct, atol=1e-9)


def test_two_photon_all_channels_write_suffixed_files(tmp_path):
    out = tmp_path / "chan.csv"
    assert main(["two-photon", "--gamma", "1", "--channel", "all",
                 "--t", "3", "--tau-max", "2", "--tau-points", "3",
                 "-o", str(out)]) == 0
    for ch in ("LL", "RL", "RR"):
        grid = load_grid_csv(tmp_path / f"chan_{ch}.csv",
                             tmp_path / f"chan_{ch}.json")
        assert grid.channel == ch


def test_two_photon_requires_file_output(capsys):
    assert main(["two-photon", "--gamma", "1", "-o", "-"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("channel", ["LL", "all"])
def test_two_photon_refuses_an_output_named_like_its_header(tmp_path, capsys, channel):
    # the header goes next to the CSV as <stem>.json, so a .json output
    # would be overwritten by its own header
    out = tmp_path / ("grid.json" if channel == "LL" else "grid_LL.json")
    assert main(["two-photon", "--channel", channel, "--tau-points", "4",
                 "-o", str(tmp_path / "grid.json")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: the grid's CSV and its JSON header would both be "
                                f"written to {out}; give them different paths"]
    assert list(tmp_path.iterdir()) == []


def test_figure3_closed_sweep(tmp_path):
    out = tmp_path / "f3.csv"
    assert main(["figure3", "--n-list", "1,2", "--gamma-grid",
                 "log:0.1:10:5", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma,closed"
    assert len(lines) == 11
    vals = {}
    for line in lines[1:]:
        n, g, c = line.split(",")
        vals.setdefault(int(n), []).append(float(c))
    for n, series in vals.items():
        assert all(a > b for a, b in zip(series, series[1:]))


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 2.0, "n_list": "1"}))
    out = tmp_path / "out.csv"
    assert main(["reflect", "--config", str(cfg), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) == pytest.approx(0.5, rel=1e-10)
    # explicit flags win over the config file
    assert main(["reflect", "--config", str(cfg), "--gamma", "6",
                 "-o", str(out)]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[2]) == (
        pytest.approx(0.25, rel=1e-10))


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 2.0, "bogus_key": 1}))
    assert main(["reflect", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["reflect", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_axis_spec_exits_2(capsys):
    assert main(["figure3", "--gamma-grid", "bogus", "-o", "-"]) == 2
    capsys.readouterr()


def test_bad_photon_list_exits_2(capsys):
    assert main(["reflect", "--n-list", "0,2", "-o", "-"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["reflect", "--gamma", "nan"],
    ["reflect", "--gamma", "inf"],
    ["excite", "--gamma", "nan"],
    ["excite", "--t-max", "nan"],
    ["excite", "--t-max=-inf"],
    ["excite", "--points", "0"],
    ["validate", "--suite", "single-photon", "--tolerance", "nan"],
    ["validate", "--suite", "single-photon", "--tolerance", "-1"],
    ["validate", "--suite", "single-photon", "--tolerance", "0"],
    ["validate", "--tolerance", "-1"],
    ["validate", "--tolerance", "0"],
    ["validate", "--omega-min", "5", "--omega-max", "-5"],
    ["validate", "--omega-max", "inf"],
    ["validate", "--gamma", "0"],
])
def test_non_finite_bandwidth_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "waveguide_scatter.cli"] + argv + ["-o", "-"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# validate's point counts share the check: an empty frequency axis must be
# an input error, not a numerical failure of the convolution
@pytest.mark.parametrize("flags", [
    ["two-photon", "--t", "nan"],
    ["two-photon", "--tau-max", "inf"],
    ["two-photon", "--gamma2", "nan"],
    ["two-photon", "--tau-points", "0"],
    ["validate", "--omega-points", "0"],
    ["validate", "--omega-points", "-3"],
    ["validate", "--time-points", "0"],
])
def test_two_photon_rejects_bad_numbers(tmp_path, capsys, flags):
    command, *bad = flags
    out = tmp_path / "grid.csv"
    small = ["--tau-points", "4"] if command == "two-photon" else []
    assert main([command, *small, "-o", str(out), *bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert bad[0].lstrip("-").replace("-", "_") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, value", [
    (command, key, value) for command, (_, _, defaults) in cli._COMMANDS.items()
    for key in cli._FLOAT_OPTIONS if key in defaults for value in ("nan", "inf", "-inf")])
def test_every_float_option_rejects_non_finite_input(tmp_path, capsys, command, key, value):
    flag = "--" + key.replace("_", "-")
    assert main([command, f"{flag}={value}", "-o", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert key in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, config", [
    pytest.param(command, config, id=config) for command, config in [
        ("excite", '{"t_max": NaN}'), ("excite", '{"points": 0}'),
        ("excite", '{"gamma": "inf"}'), ("excite", '{"gamma": [1]}'),
        ("validate", '{"omega_points": 1}'), ("validate", '{"time_points": -1}'),
    ]])
def test_config_numbers_are_checked_like_flags(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg), "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert next(iter(json.loads(config))) in captured.err


def test_convergence_failure_exits_2(monkeypatch, capsys):
    def fail(n, gamma):
        raise ConvergenceError("integral over [0, 1] did not converge", 1e-3)

    monkeypatch.setattr(cli, "reflection_probability_numeric", fail)
    assert main(["reflect", "--n-list", "2", "--numeric", "-o", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "did not converge" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
def test_out_of_memory_exits_2_naming_the_size(monkeypatch, capsys, message):
    # exit 1 would read as a validation breach; nothing large is allocated here
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "appendix_comparison", fail)
    assert main(["validate", "--time-points", "100000000000", "-o", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and len(err.strip().splitlines()) == 1
    assert "time_points = 100000000000" in err and message in err


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_excite_rejects_a_non_positive_t_max(capsys, t_max):
    # t_max 0 wrote 201 rows at t = 0, and -1 failed later on a trace time
    assert main(["excite", "--t-max", t_max, "-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t_max must be > 0")


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


def test_validate_single_photon_passes(tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--suite", "single-photon", "--gamma", "1",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["abs_err"] <= 1e-6
    assert payload["reversal_closed"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_validate_two_photon_bridge_small(tmp_path):
    out = tmp_path / "b.json"
    assert main(["validate", "--suite", "two-photon-bridge", "--gamma", "1",
                 "--omega-min", "-3", "--omega-max", "3",
                 "--omega-points", "12", "--time-points", "1024",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert set(payload["channels"]) == {"LL", "RL", "RR"}


def test_validate_unknown_suite_exits_2(capsys):
    assert main(["validate", "--suite", "nope"]) == 2
    assert "unknown validation suite" in capsys.readouterr().err


def test_stdout_sink(capsys):
    assert main(["reflect", "--n-list", "1", "--gamma", "2", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,gamma,closed"
    assert "5.00000000000e-01" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "waveguide_scatter.cli", "reflect",
         "--n-list", "1", "--gamma", "2", "-o", "-"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,gamma,closed"


def test_import_loads_no_scipy_and_no_thread_pool():
    # scipy is imported lazily where it is used, and nothing spawns threads
    code = ("import sys, waveguide_scatter, waveguide_scatter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_runs_with_scipy_blocked(tmp_path):
    # the package needs numpy only: with every scipy import refused, it
    # imports, runs each subcommand at small sizes, interpolates a sampled
    # 2-D frequency grid and feeds a bridged grid to freq_channel_grid
    code = f"""
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{{name}} is blocked")
        return None

sys.meta_path.insert(0, Block())
import numpy as np
from waveguide_scatter import (AmplitudeGrid, FreqAmplitudeGrid, QuadratureSpec,
                               fourier_bridge, freq_channel_grid)
from waveguide_scatter.cli import main

out = {str(tmp_path)!r}
runs = [
    ["reflect", "--n-list", "1,2", "--numeric", "-o", out + "/r.csv"],
    ["excite", "--photons", "2", "--points", "5", "-o", out + "/e.csv"],
    ["two-photon", "--tau-points", "8", "-o", out + "/g.csv"],
    ["validate", "--suite", "single-photon", "-o", out + "/s.json"],
    ["validate", "--omega-min", "-2", "--omega-max", "2", "--omega-points", "4",
     "--time-points", "512", "-o", out + "/b.json"],
    ["figure3", "--n-list", "1,2", "--gamma-grid", "log:0.5:2:3", "--numeric",
     "-o", out + "/f.csv"],
]
print([main(argv) for argv in runs])
ax = np.linspace(-1.0, 1.0, 5)
grid = FreqAmplitudeGrid(axes=(ax, ax), values=np.add.outer(ax, 2.0 * ax))
print(grid.evaluate(0.25, -0.5))
t = np.linspace(0.0, 40.0, 64)
env = np.exp(-0.5 * t)
bridged = fourier_bridge(AmplitudeGrid(axes=(t, t), values=np.outer(env, env).astype(complex),
                                       channel="RR", dynamical_time=40.0))
om = np.array([-0.5, 0.0, 0.5])
print(np.all(np.isfinite(freq_channel_grid("RR", om, om, bridged,
                                           quad=QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)).values)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0]", "(-0.75+0j)", "True", "[]"]


# every flag of every subcommand, as the parser generated from the option
# defaults must spell and type it ("const" marks a store_const switch)
_PARSER_TABLE = {
    "reflect": {("--config",): None, ("--n-list",): None, ("--gamma",): float,
                ("--numeric",): "const", ("--output", "-o"): None},
    "excite": {("--config",): None, ("--photons",): int, ("--gamma",): float,
               ("--gamma2",): float, ("--directions",): None, ("--t-max",): float,
               ("--points",): int, ("--output", "-o"): None},
    "two-photon": {("--config",): None, ("--gamma",): float, ("--gamma2",): float,
                   ("--directions",): None, ("--channel",): None, ("--t",): float,
                   ("--tau-max",): float, ("--tau-points",): int,
                   ("--output", "-o"): None},
    "validate": {("--config",): None, ("--suite",): None, ("--gamma",): float,
                 ("--tolerance",): float, ("--omega-min",): float,
                 ("--omega-max",): float, ("--omega-points",): int,
                 ("--time-points",): int, ("--output", "-o"): None},
    "figure3": {("--config",): None, ("--n-list",): None, ("--gamma-grid",): None,
                ("--numeric",): "const", ("--output", "-o"): None},
}


def test_generated_parser_spells_and_types_every_flag():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_PARSER_TABLE)
    for command, table in _PARSER_TABLE.items():
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        got = {tuple(a.option_strings): "const" if a.const is True else a.type
               for a in actions}
        assert list(got.items()) == list(table.items()), command
        # each flag lands on the option key that _effective_options reads
        assert [a.dest for a in actions[1:]] == list(cli._COMMANDS[command][2])
        switch = [a for a in actions if a.const is True]
        assert all(a.default is None and a.nargs == 0 for a in switch)
