"""The benchmark tracer (`bench/spans.py`) wraps sechyp functions that it
looks up by name and reads their return values by attribute name; a
rename or a deletion in `src/` would make every traced run fail.  These
tests read its tables as they are, check each name against the package
and run each reader on what its function returns."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sechyp import lpf, measures, report, splitting, suspension
from sechyp.flowcalc import integrate
from sechyp.models import (make_geometric_lorenz_suspension,
                           make_intermittent_lorenz_map, make_lorenz)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(spans):
    missing = [f"sechyp.{layer}.{name}"
               for layer, names in spans.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"sechyp.{layer}"),
                                       name, None))]
    assert missing == []


def test_orbit_info_reads_an_integrated_orbit(spans):
    orbit = integrate(make_lorenz(10.0, 28.0, 8.0 / 3.0), [1.0, 1.0, 20.0], 0.5)
    info = spans._orbit_info(orbit)
    assert info["steps"] == orbit.n_steps > 0
    n = orbit.states.shape[1]
    assert info["bytes"] == 8 * ((orbit.n_steps + 1) * (1 + n)
                                 + orbit.n_steps * n * n + orbit.n_steps)
    assert not np.any(orbit.renorm_log)


def _lorenz_orbit(t_span):
    return integrate(make_lorenz(10.0, 28.0, 8.0 / 3.0), [1.0, 1.0, 20.0], t_span)


def _orbit_expected(orbit, steps):
    """Steps, and the bytes of times, states, step factors and the
    renormalization log."""
    n = orbit.states.shape[1]
    return {"steps": steps,
            "bytes": 8 * ((steps + 1) * (1 + n) + steps * n * n + steps)}


_SUSPENSION = make_geometric_lorenz_suspension(make_intermittent_lorenz_map())

# per `_INFO` entry: a small real call of its function, and the info the
# reader must make of the value it returns
_CALLS = {
    "flowcalc.integrate": (
        lambda: _lorenz_orbit(0.5),
        lambda orbit: _orbit_expected(orbit, orbit.n_steps)),
    "suspension.suspension_orbit": (
        lambda: suspension.suspension_orbit(_SUSPENSION, [0.371, -0.24], 30),
        lambda orbit: _orbit_expected(orbit, 30)),
    "splitting.estimate_splitting": (
        lambda: splitting.estimate_splitting(_lorenz_orbit(6.0), 1, 2.0, stride=4),
        lambda seq: {"blocks": len(seq) - 1}),
    "lpf.lpf_along": (
        lambda: lpf.lpf_along(_lorenz_orbit(0.5)),
        lambda cocycle: {"steps": cocycle.orbit.n_steps}),
    "lpf.return_map": (
        lambda: lpf.return_map(_SUSPENSION, "suspension-canonical", [0.3, 0.1], 7),
        lambda res: {"returns": 7}),
    "suspension.run_section_streams": (
        lambda: suspension.run_section_streams(
            _SUSPENSION, [[0.371, -0.24], [-0.5, 0.2], [0.8, 0.1]], 40),
        lambda streams: {"crossings": 40 * 3}),
    "measures.benettin_spectrum": (
        lambda: measures.benettin_spectrum(_lorenz_orbit(2.0), 3),
        lambda est: {"reorths": est.reorthonormalizations}),
    "report.assemble_report": (
        lambda: report.assemble_report(_SUSPENSION, {
            "conditions": ["ASH"], "ensemble": {"size": 3},
            "windows": {"n_returns": 50}}),
        lambda rep: {"members": 3 + len(report._suspension_probes(_SUSPENSION))}),
}


def test_every_info_reader_has_a_call(spans):
    assert set(_CALLS) == set(spans._INFO)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_info_reader_reads_its_function_return(spans, name):
    call, expected = _CALLS[name]
    value = call()
    info = spans._INFO[name](value)
    assert info == expected(value)
    assert all(type(v) is int and v > 0 for v in info.values())
