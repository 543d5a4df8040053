import numpy as np
import pytest
from hypothesis import settings

from sechyp.flowcalc import StepControl, integrate
from sechyp.models import (make_geometric_lorenz_suspension,
                           make_intermittent_lorenz_map, make_linear_saddle,
                           make_lorenz)
from sechyp.splitting import estimate_splitting
from sechyp.suspension import suspension_orbit

# Property tests run the same examples on every run: derandomized
# generation, no example database, no per-example deadline.
settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def lorenz():
    return make_lorenz(10.0, 28.0, 8.0 / 3.0)


@pytest.fixture(scope="session")
def lorenz_orbit(lorenz):
    """Reference chaotic orbit at tight tolerance, reused across tests."""
    return integrate(lorenz, [1.0, 1.0, 1.0], 30.0,
                     StepControl(rtol=1e-9, atol=1e-12))


@pytest.fixture(scope="session")
def lorenz_orbit_60(lorenz):
    """Longer orbit at working tolerance for splitting/functional tests."""
    return integrate(lorenz, [1.0, 1.0, 1.0], 60.0,
                     StepControl(rtol=1e-8, atol=1e-11))


@pytest.fixture(scope="session")
def lorenz_seq_60(lorenz_orbit_60):
    return estimate_splitting(lorenz_orbit_60, d_s=1, warmup=10.0, stride=4)


@pytest.fixture(scope="session")
def saddle():
    return make_linear_saddle([2.0, -3.0, -0.5])


@pytest.fixture(scope="session")
def saddle_orbit(saddle):
    return integrate(saddle, np.full(3, 1e-12), 20.0)


@pytest.fixture(scope="session")
def saddle_seq(saddle_orbit):
    return estimate_splitting(saddle_orbit, d_s=1, warmup=8.0)


@pytest.fixture(scope="session")
def intermittent_map():
    return make_intermittent_lorenz_map()


@pytest.fixture(scope="session")
def intermittent_suspension(intermittent_map):
    return make_geometric_lorenz_suspension(intermittent_map)


@pytest.fixture(scope="session")
def suspension_orbit_400(intermittent_suspension):
    return suspension_orbit(intermittent_suspension, [0.371, -0.24], 400)


@pytest.fixture(scope="session")
def suspension_seq(intermittent_suspension, suspension_orbit_400):
    """Splitting with the report's warmup of ten roof floors."""
    return estimate_splitting(suspension_orbit_400, d_s=1,
                              warmup=10.0 * intermittent_suspension.roof_floor)
