import copy
import glob
import importlib.util
import json
import os
import sys

import pytest

from sechyp.config import REPORT_TABLE, TABLE, settings, validate_config
from sechyp.errors import ConfigError

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _bench_workloads():
    """bench/workloads.py, imported by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _shipped_and_bench_configs():
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            yield os.path.basename(path), json.load(fh)
    for name, workload in _bench_workloads().items():
        for smoke in (False, True):
            yield f"{name}-smoke{int(smoke)}", workload.make_config(1, smoke)


@pytest.mark.parametrize("name, cfg", list(_shipped_and_bench_configs()))
def test_shipped_and_bench_configs_pass_unchanged(name, cfg):
    # a key the table rejected would turn the benchmark's output checks red
    before = copy.deepcopy(cfg)
    assert validate_config(cfg) is cfg
    assert cfg == before


def test_every_fixed_default_passes_its_own_check():
    assert [path for path, (check, default) in TABLE.items()
            if default is not None and check(default) is not None] == []


def test_report_table_is_the_verify_section_plus_seed():
    assert set(REPORT_TABLE) == {p[len("verify."):] for p in TABLE
                                 if p.startswith("verify.")} | {"seed"}
    assert REPORT_TABLE["tolerances.rtol"][1] == 1e-7
    assert TABLE["tolerances.rtol"][1] == 1e-9


def test_settings_fill_defaults_and_keep_values():
    s = settings({"model": "lorenz", "verify": {"windows": {"T": 7.0}}})
    assert s["verify.windows.T"] == 7.0
    assert s["verify.windows.tau"] == 1.0
    assert s["verify.ensemble.size"] is None   # decided where it is read
    assert s["seed"] == TABLE["seed"][1]


@pytest.mark.parametrize("cfg, field", [
    ({"model": "lorenz", "verify": {"ensemble": {"sise": 3}}},
     "verify.ensemble.sise"),
    ({"model": "lorenz", "simulate": {"section": {"point": [0, 0, 1],
                                                  "normal": [0, 0, 1],
                                                  "orient": 1}}},
     "simulate.section.orient"),
    ({"model": "lorenz", "verify": {"windows": {"T": True}}}, "verify.windows.T"),
    ({"model": "lorenz", "measure": {"kind": "bassin"}}, "measure.kind"),
    ({"model": "lorenz", "verify": {"ensemble": {"box": [[1, 0]] * 3}}},
     "verify.ensemble.box"),
    ({"model": "lorenz", "verify": {"periodic_seeds": [{"point": [1, 2, 3],
                                                        "period": 0}]}},
     "verify.periodic_seeds"),
    ({"seed": 3}, "model"),
    ([], "config"),
])
def test_rejections_name_the_dotted_path(cfg, field):
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.field == field


def test_null_means_absent_only_without_a_fixed_default():
    s = settings({"model": "lorenz", "simulate": {"x0": None}})
    assert s["simulate.x0"] is None
    with pytest.raises(ConfigError) as err:
        validate_config({"model": "lorenz", "simulate": {"t_span": None}})
    assert err.value.field == "simulate.t_span"
