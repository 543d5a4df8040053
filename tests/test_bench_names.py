"""The benchmark tracer (`bench/spans.py`) wraps sechyp functions that it
looks up by name and reads orbit arrays by attribute name; a rename or a
deletion in `src/` would make every traced run fail.  These tests read
its tables as they are and check each name against the package."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sechyp.flowcalc import integrate
from sechyp.models import make_lorenz

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
