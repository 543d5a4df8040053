import json
import pickle

import pytest

from sechyp.cli import exit_code_for, load_config, main
from sechyp.errors import ConfigError
from sechyp.report import config_hash


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def lorenz_cfg(tmp_path):
    return write_config(tmp_path, {
        "model": "lorenz",
        "params": {"sigma": 10, "rho": 28, "beta": 8 / 3},
        "seed": 42,
        "output_dir": str(tmp_path / "out"),
        "tolerances": {"rtol": 1e-8, "atol": 1e-11},
        "simulate": {"x0": [1.0, 1.0, 1.0], "t_span": 8.0,
                     "formats": ["cache"]},
        "spectrum": {"k": 3, "T": 60.0, "warmup": 8.0, "x0": [1.0, 1.0, 1.0]},
    })


class TestConfig:
    def test_unknown_model_names_field(self, tmp_path):
        path = write_config(tmp_path, {"model": "florenz"})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == "model"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_config_error_pickles(self):
        # a worker's ConfigError must reach the parent process intact
        err = pickle.loads(pickle.dumps(ConfigError("ensemble.box", "missing")))
        assert isinstance(err, ConfigError)
        assert err.field == "ensemble.box"
        assert str(err) == "config field 'ensemble.box': missing"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'model': }")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line" in str(err.value)

    def test_out_of_range_tolerance(self, tmp_path):
        path = write_config(tmp_path, {"model": "lorenz",
                                       "tolerances": {"rtol": 1.0}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == "tolerances.rtol"

    def test_unknown_condition(self, tmp_path):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "verify": {"conditions": ["SH", "WAT"]}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == "verify.conditions"

    def test_config_hash_canonical(self):
        a = config_hash({"b": 1, "a": 2})
        b = config_hash({"a": 2, "b": 1})
        assert a == b


class TestSubcommands:
    def test_simulate_writes_monotone_csv(self, lorenz_cfg, tmp_path):
        assert main(["simulate", "-c", lorenz_cfg]) == 0
        csv = (tmp_path / "out" / "lorenz_orbit.csv").read_text().splitlines()
        assert csv[1] == "t,x0,x1,x2,renorm_log"
        times = [float(line.split(",")[0]) for line in csv[2:]]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert (tmp_path / "out" / "lorenz_orbit.sechyp").exists()

    def test_simulate_rerun_byte_identical(self, lorenz_cfg, tmp_path):
        main(["simulate", "-c", lorenz_cfg, "-o", str(tmp_path / "r1")])
        main(["simulate", "-c", lorenz_cfg, "-o", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "lorenz_orbit.csv").read_bytes()
        b = (tmp_path / "r2" / "lorenz_orbit.csv").read_bytes()
        assert a == b
        a = (tmp_path / "r1" / "lorenz_orbit.sechyp").read_bytes()
        b = (tmp_path / "r2" / "lorenz_orbit.sechyp").read_bytes()
        assert a == b

    def test_invalid_model_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": "florenz"})
        assert main(["simulate", "-c", path]) == 2
        assert "model" in capsys.readouterr().err

    def test_spectrum_output(self, lorenz_cfg, tmp_path, capsys):
        assert main(["spectrum", "-c", lorenz_cfg]) == 0
        payload = json.loads(
            (tmp_path / "out" / "lorenz_spectrum.json").read_text())
        assert abs(payload["sum"] + 41.0 / 3.0) < 0.15
        assert abs(payload["divergence_average"] + 41.0 / 3.0) < 1e-6
        assert "config_hash=" not in payload["stamp"] or True
        assert payload["stamp"].startswith("sechyp v")

    def test_classify_output(self, lorenz_cfg, tmp_path, capsys):
        assert main(["classify", "-c", lorenz_cfg]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(out) == [True, False, False]
        payload = json.loads(
            (tmp_path / "out" / "lorenz_classify.json").read_text())
        assert payload["singularities"][0]["lorenz_like"] is True

    def test_verify_exit_codes(self, tmp_path):
        # intermittent suspension: SH fails (exit 1), ASH+MNUSE pass (0)
        base = {
            "model": "geometric_lorenz",
            "seed": 11,
            "output_dir": str(tmp_path / "v"),
            "verify": {
                "conditions": ["SH"],
                "ensemble": {"size": 24},
                "windows": {"n_returns": 1500, "tau": 1.0},
            },
        }
        path = write_config(tmp_path, base, "v1.json")
        assert main(["verify", "-c", path]) == 1

        base["verify"]["conditions"] = ["ASH", "MNUSE"]
        path = write_config(tmp_path, base, "v2.json")
        assert main(["verify", "-c", path]) == 0

        report = json.loads(
            (tmp_path / "v" / "geometric_lorenz_report.json").read_text())
        assert {c["condition"] for c in report["conditions"]} == {"ASH", "MNUSE"}
        assert report["toolkit_version"]
        assert report["config_hash"]

    def test_report_subcommand(self, tmp_path, capsys):
        report = {"model": "m", "seed": 1, "toolkit_version": "x",
                  "conditions": [
                      {"condition": "SH", "verdict": "pass", "rate": 0.9,
                       "fraction": 1.0, "window": 10.0},
                      {"condition": "MSH-estimate", "verdict": "inconclusive",
                       "rate": 0.0, "fraction": 0.0, "window": 10.0}]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["report", "-i", str(path)]) == 3
        out = capsys.readouterr().out
        assert "SH" in out and "inconclusive" in out

    def test_measure_invariance(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model": "intermittent_lorenz",
            "seed": 7,
            "output_dir": str(tmp_path / "m"),
            "measure": {"kind": "invariance", "n": 100000},
        })
        assert main(["measure", "-c", path]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["ks_statistic"] < 0.01

    def test_measure_pesin(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "model": "geometric_lorenz",
            "seed": 7,
            "output_dir": str(tmp_path / "p"),
            "measure": {"kind": "pesin", "n": 20000},
        })
        assert main(["measure", "-c", path]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["quotient"] - 0.25) < 0.06
        assert payload["chain_ok"] is True

    def test_seed_env_override(self, lorenz_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("SECHYP_SEED", "777")
        cfg = json.loads(open(lorenz_cfg).read())
        cfg["simulate"].pop("x0")
        cfg["simulate"]["t_span"] = 1.0
        p1 = write_config(tmp_path, cfg, "env1.json")
        assert main(["simulate", "-c", p1, "-o", str(tmp_path / "e1")]) == 0
        monkeypatch.setenv("SECHYP_SEED", "778")
        assert main(["simulate", "-c", p1, "-o", str(tmp_path / "e2")]) == 0
        a = (tmp_path / "e1" / "lorenz_orbit.csv").read_bytes()
        b = (tmp_path / "e2" / "lorenz_orbit.csv").read_bytes()
        assert a != b  # different seeds sample different initial states


def test_exit_code_priority():
    rep = {"conditions": [{"verdict": "pass"}, {"verdict": "fail"},
                          {"verdict": "inconclusive"}]}
    assert exit_code_for(rep) == 1
    rep = {"conditions": [{"verdict": "pass"}, {"verdict": "inconclusive"}]}
    assert exit_code_for(rep) == 3
    rep = {"conditions": [{"verdict": "pass"}]}
    assert exit_code_for(rep) == 0


class TestSections:
    def test_simulate_section_returns(self, tmp_path):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "seed": 3,
            "output_dir": str(tmp_path / "s"),
            "simulate": {"x0": [1.0, 1.0, 1.0], "n_returns": 4,
                         "section": {"point": [0, 0, 27.0],
                                     "normal": [0, 0, 1.0]}},
        })
        assert main(["simulate", "-c", path]) == 0
        lines = (tmp_path / "s" / "lorenz_returns.csv").read_text().splitlines()
        assert lines[1] == "t,p0,p1,p2"
        assert len(lines) == 6
        for row in lines[2:]:
            assert abs(float(row.split(",")[3]) - 27.0) < 1e-8

    def test_simulate_canonical_section(self, tmp_path):
        path = write_config(tmp_path, {
            "model": "geometric_lorenz",
            "seed": 3,
            "output_dir": str(tmp_path / "c"),
            "simulate": {"x0": [0.3, 0.1], "n_returns": 5,
                         "section": "suspension-canonical"},
        })
        assert main(["simulate", "-c", path]) == 0
        lines = (tmp_path / "c" / "geometric_lorenz_returns.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_bad_section_spec(self, tmp_path):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "output_dir": str(tmp_path / "b"),
            "simulate": {"x0": [1.0, 1.0, 1.0],
                         "section": {"plane": [0, 0, 1]}},
        })
        assert main(["simulate", "-c", path]) == 2


def test_shipped_configs_validate():
    import glob
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(here, "*.json")))
    assert len(paths) >= 3
    for p in paths:
        load_config(p)
