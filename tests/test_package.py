"""The package's public surface: each name declared once, by its module."""

import collections
import importlib.util
from pathlib import Path

import waveguide_scatter as ws
import waveguide_scatter.cli  # noqa: F401  (the tracer wraps names in cli too)
from waveguide_scatter import amplitudes, kernel, model, observables, quadrature, spectral

# the public names, by the module that defines them
_PUBLIC = {
    model: {"Direction", "InitialState", "NormalizationError", "PulseProfile",
            "WavepacketN", "default_horizon", "excited_atom", "profile_overlap",
            "wavepacket_from_json", "wavepacket_to_json"},
    quadrature: {"ConvergenceError", "DEFAULT_QUAD", "QuadratureSpec",
                 "integrate", "integrate_2d_box", "integrate_semi_infinite"},
    kernel: {"h_closed_form", "weighted_h_norm_integral"},
    amplitudes: {"AmplitudeGrid", "CHANNELS", "exp_pair_channel_values",
                 "linear_beamsplitter_amplitude", "load_grid_csv", "nonlinear_correction_B",
                 "ordered_emission_amplitude", "reflection_amplitude_f0",
                 "two_photon_channel_grid", "two_photon_outputs", "write_grid_csv"},
    observables: {"ExcitationTrace", "ReflectionResult", "excitation_probability",
                  "excitation_trace", "reflection_probability_closed",
                  "reflection_probability_numeric", "unitarity_check_two_photon"},
    spectral: {"ChannelComparison", "ComparisonReport", "FreqAmplitudeGrid",
               "appendix_comparison", "fourier_bridge", "freq_channel_grid",
               "freq_nonlinear_correction", "freq_two_photon_outputs", "lorentzian_mode",
               "single_photon_bridge_error", "single_photon_r_t",
               "single_photon_reflection_freq"},
}


def test_package_exports_exactly_the_public_names():
    names = set().union(*_PUBLIC.values())
    assert len(names) == 48
    assert set(ws.__all__) == names
    assert len(ws.__all__) == len(names)


def test_each_public_name_is_the_object_of_its_defining_module():
    for module, names in _PUBLIC.items():
        assert set(module.__all__) == names, module.__name__
        for name in names:
            obj = getattr(ws, name)
            assert obj is getattr(module, name), name
            if callable(obj) and hasattr(obj, "__qualname__"):
                assert obj.__module__ == module.__name__, name


def test_no_name_is_exported_by_two_modules():
    # star imports would let the later module silently win
    counts = collections.Counter(name for module in _PUBLIC for name in module.__all__)
    assert [name for name, k in counts.items() if k > 1] == []


def _benchmark_tracer():
    """The span tracer of the benchmark harness (perfbench/spans.py), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_wraps_the_package_and_comes_off():
    # the tracer looks up every name it wraps in the module that calls it, so
    # a package change that drops one fails here, not only in a traced run
    tracer = _benchmark_tracer()
    tracer.install(ws)
    try:
        installed = [(owner, attr, original) for owner, attr, original in tracer._installed]
        assert installed
        assert all(owner.__dict__[attr] is not original for owner, attr, original in installed)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in installed)
