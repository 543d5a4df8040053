import contextlib
import io
import json
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechyp import cli
from sechyp.cli import exit_code_for, load_config, main
from sechyp.errors import ConfigError
from sechyp.flowcalc import StepControl, integrate
from sechyp.measures import benettin_spectrum
from sechyp.models import make_lorenz
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
        assert payload["stamp"].startswith("sechyp v")
        assert main(["spectrum", "-c", lorenz_cfg,
                     "-o", str(tmp_path / "rerun")]) == 0
        assert ((tmp_path / "rerun" / "lorenz_spectrum.json").read_bytes()
                == (tmp_path / "out" / "lorenz_spectrum.json").read_bytes())

    def test_spectrum_folds_the_steps_without_storing_the_orbit(
            self, tmp_path, monkeypatch):
        # the CLI must not store the orbit (cli.integrate raises), and its
        # JSON equals the estimate of the stored orbit bit for bit
        def stored(*args):
            raise AssertionError("spectrum stored the orbit")

        monkeypatch.setattr(cli, "integrate", stored)
        lorenz, x0 = make_lorenz(10.0, 28.0, 8.0 / 3.0), [1.0, 2.0, 20.0]
        cfg = {"model": "lorenz", "output_dir": str(tmp_path / "out"),
               "tolerances": {"rtol": 1e-8, "atol": 1e-11},
               "spectrum": {"T": 30.0, "warmup": 3.0, "k": 3, "x0": x0}}
        assert main(["spectrum", "-c", write_config(tmp_path, cfg)]) == 0
        got = json.loads((tmp_path / "out" / "lorenz_spectrum.json").read_text())
        est = benettin_spectrum(
            integrate(lorenz, x0, 30.0, StepControl(rtol=1e-8, atol=1e-11)), 3,
            warmup=3.0)
        assert got["exponents"] == est.exponents.tolist()
        assert got["half_widths"] == est.half_widths.tolist()
        assert got["sum"] == float(np.sum(est.exponents))
        for name in ("window", "divergence_average", "sum_half_width"):
            assert got[name] == getattr(est, name), name

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


    @pytest.mark.parametrize("simulate, field", [
        ({"n_returns": 0}, "simulate.n_returns"),
        ({"n_returns": 2.5}, "simulate.n_returns"),
        ({"section": {"point": [0, 0, 27.0], "normal": [0, 0, 0]}},
         "simulate.section.normal"),
        ({"section": {"point": [0, 27.0], "normal": [0, 1.0]}},
         "simulate.section"),
        ({"section": {"point": [0, 0, 27.0], "normal": [0, 1.0]}},
         "simulate.section"),
        ({"section": {"point": [0, 0, 27.0], "normal": [0, 0, 1.0],
                      "orientation": 0}}, "simulate.section.orientation"),
        ({"section": {"point": [0, 0, 27.0], "normal": [0, 0, 1.0],
                      "orientation": 2}}, "simulate.section.orientation"),
        # keys that simulate with a section does not read
        ({"formats": ["csv"]}, "simulate.formats"),
        ({"t_span": 5.0}, "simulate.t_span"),
    ])
    def test_bad_returns_config_exit_2(self, tmp_path, capsys, simulate, field):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "output_dir": str(tmp_path / "b"),
            "simulate": {"x0": [1.0, 1.0, 1.0], "n_returns": 3,
                         "section": {"point": [0, 0, 27.0],
                                     "normal": [0, 0, 1.0]},
                         **simulate},
        })
        assert main(["simulate", "-c", path]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "b" / "lorenz_returns.csv").exists()

    @pytest.mark.parametrize("section, field", [
        ({"tolerances": {"rtol": "abc"}}, "tolerances.rtol"),
        ({"verify": {"windows": {"T": None}}}, "verify.windows.T"),
        ({"verify": {"thresholds": {"eta": "x"}}}, "verify.thresholds.eta"),
        ({"verify": {"ensemble": "big"}}, "verify.ensemble"),
        ({"verify": {"windows": {"T": float("inf")}}}, "verify.windows.T"),
        ({"tolerances": {"bound": 10 ** 400}}, "tolerances.bound"),
    ])
    def test_wrong_typed_config_exit_2(self, tmp_path, capsys, section, field):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "output_dir": str(tmp_path / "b"),
            "simulate": {"x0": [1.0, 1.0, 1.0], "n_returns": 3,
                         "section": {"point": [0, 0, 27.0],
                                     "normal": [0, 0, 1.0]}},
            **section,
        })
        assert main(["simulate", "-c", path]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "b" / "lorenz_returns.csv").exists()

    def test_downward_orientation_accepted(self, tmp_path):
        path = write_config(tmp_path, {
            "model": "lorenz",
            "output_dir": str(tmp_path / "d"),
            "simulate": {"x0": [1.0, 1.0, 1.0], "n_returns": 2,
                         "section": {"point": [0, 0, 27.0],
                                     "normal": [0, 0, 1.0],
                                     "orientation": -1}},
        })
        assert main(["simulate", "-c", path]) == 0


def test_python_dash_m_runs_cli(tmp_path, monkeypatch):
    path = write_config(tmp_path, {
        "model": "lorenz",
        "output_dir": str(tmp_path / "m"),
        "simulate": {"x0": [1.0, 1.0, 1.0], "t_span": 1.0},
    })
    monkeypatch.setattr(sys, "argv", ["sechyp", "simulate", "-c", path])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("sechyp", run_name="__main__")
    assert done.value.code == 0
    assert (tmp_path / "m" / "lorenz_orbit.csv").exists()


def test_shipped_configs_validate():
    import glob
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(here, "*.json")))
    assert len(paths) >= 3
    for p in paths:
        load_config(p)


@pytest.mark.parametrize("command, section, field, message", [
    ("verify", {"verify": {"windws": {"T": 5.0}}}, "verify.windws",
     "unknown key"),
    ("simulate", {"simulte": {"t_span": 1.0}}, "simulte", "unknown key"),
    ("verify", {"verify": {"splitting": {"stride": 0}}},
     "verify.splitting.stride", "must be an integer"),
    ("simulate", {"simulate": {"t_span": -1}}, "simulate.t_span",
     "must be a positive number"),
    ("measure", {"measure": {"kind": "basin", "grid": [4, 4]}}, "measure.grid",
     "must have one entry per dimension"),
    ("spectrum", {"spectrum": {"k": 7, "T": 5.0}}, "spectrum.k",
     "must be at most the model dimension"),
    ("verify", {"verify": {"conditions": "SH"}}, "verify.conditions",
     "must be a list"),
    ("verify", {"verify": {"splitting": {"d_s": 2}}}, "verify.splitting.d_s",
     "must be at most 1 for a 3-dimensional model"),
    ("verify", {"verify": {"ensemble": {"workers": 2}}}, "verify.ensemble.workers",
     "must be 1"),
    ("verify", {"verify": {"ensemble": {"workers": True}}},
     "verify.ensemble.workers", "must be 1"),
    ("simulate", {"simulate": {"n": 5}}, "simulate.n",
     "only an interval map reads it"),
    ("verify", {"verify": {"windows": {"n_returns": 50}}},
     "verify.windows.n_returns", "a flow ensemble does not read it"),
    ("verify", {"verify": {"ensemble": {"tilt_warmup": 3}}},
     "verify.ensemble.tilt_warmup", "a flow ensemble does not read it"),
    ("verify", {"verify": {"ensemble": {"ph_sample": 2}}},
     "verify.ensemble.ph_sample", "a flow ensemble does not read it"),
    # no longer than the largest default tau_sensitivity value, 2
    ("verify", {"verify": {"windows": {"T": 2.0}, "splitting": {"warmup": 1.0}}},
     "verify.windows.T", "leaves a valid range of"),
    # rejected before the orbit is integrated
    ("spectrum", {"spectrum": {"T": 5.0, "warmup": 6.0}}, "spectrum.warmup",
     "must be less than spectrum.T"),
    # rejected once the run ends with a bootstrap block that no step
    # starts in
    ("spectrum", {"spectrum": {"T": 5.0, "warmup": 4.999}}, "spectrum.warmup",
     "must leave each of the 50 bootstrap blocks an orbit step"),
    ("simulate", {"params": {"sigmaa": 5}}, "params.sigmaa",
     "unknown key; known here: sigma, rho, beta"),
    ("simulate", {"params": {"sigma": -1}}, "params",
     "sigma and beta must be positive"),
    # windows shorter than one checkpoint block leave a functional none
    ("verify", {"verify": {"conditions": ["SH"], "windows": {"T": 5.0,
                                                              "sect_window": 0.001},
                           "ensemble": {"size": 1, "transient": 0.0}}},
     "verify.windows.sect_window", "0.001 is shorter than one checkpoint block"),
    ("verify", {"verify": {"conditions": ["MNUSE"], "windows": {"T": 5.0, "tau": 0.001},
                           "ensemble": {"size": 1, "transient": 0.0}}},
     "verify.windows.tau", "0.001 is shorter than one checkpoint block"),
    ("verify", {"verify": {"conditions": ["MNUSE"], "windows": {"T": 5.0},
                           "tau_sensitivity": [1.0, 0.001],
                           "ensemble": {"size": 1, "transient": 0.0}}},
     "verify.tau_sensitivity", "0.001 is shorter than one checkpoint block: it "
                               "leaves no MNUSE window"),
    ("verify", {"verify": {"conditions": ["NUSE"], "windows": {"T": 5.0},
                           "tau_sensitivity": [1.0, 0.001],
                           "ensemble": {"size": 1, "transient": 0.0}}},
     "verify.tau_sensitivity", "0.001 is shorter than one checkpoint block: it "
                               "leaves no NUSE window"),
    # a splitting stride that leaves fewer than two checkpoints in T
    ("verify", {"verify": {"windows": {"T": 0.5},
                           "splitting": {"warmup": 0.5, "stride": 50}}},
     "verify.splitting.stride", "50 leaves a member fewer than two checkpoints"),
    # a suspension's PH sample no longer than its two warmups
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["PH"], "windows": {"n_returns": 10},
                           "ensemble": {"size": 1}}},
     "verify.windows.n_returns", "10 returns give seed 0 a PH sample orbit"),
    # a suspension orbit no longer than a tau window
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["MNUSE"], "windows": {"n_returns": 10},
                           "tau_sensitivity": [500], "ensemble": {"size": 1}}},
     "verify.windows.n_returns", "10 returns leave seed 0 an orbit of span"),
    # a zero warmup fails every flow member's gap check: exp(0) = 1
    ("verify", {"verify": {"conditions": ["PH"], "windows": {"T": 12.0},
                           "ensemble": {"size": 1, "transient": 1.0},
                           "splitting": {"warmup": 0.0}}},
     "verify.splitting.warmup", "must be a positive number"),
    # every MSH fit span (at most avoid_window, 0.01) is shorter than one
    # checkpoint block and ends at its own start
    ("verify", {"seed": 1,
                "verify": {"conditions": ["MSH-estimate"],
                           "ensemble": {"size": 1, "transient": 5.0},
                           "windows": {"T": 12.0, "tau": 1.0, "sect_window": 2.0},
                           "splitting": {"warmup": 2.0, "stride": 4},
                           "msh": {"avoid_window": 0.01}}},
     "verify.msh.avoid_window", "0.01 leaves no MSH fit window"),
    # no window start's avoid window ends inside the orbit (span 16)
    ("verify", {"seed": 3,
                "verify": {"conditions": ["MSH-estimate"],
                           "ensemble": {"size": 2, "transient": 5.0},
                           "windows": {"T": 12.0}, "splitting": {"warmup": 2.0},
                           "msh": {"avoid_window": 20.0}}},
     "verify.msh.avoid_window", "20 leaves no MSH fit window"),
    # simulate keys that the run's branch does not read
    ("simulate", {"simulate": {"n_returns": 5}}, "simulate.n_returns",
     "a flow without a section does not read it"),
    ("simulate", {"model": "geometric_lorenz"}, "simulate.t_span",
     "a suspension does not read it"),
    ("simulate", {"model": "geometric_lorenz",
                  "simulate": {"section": "suspension-canonical"}},
     "simulate.t_span", "simulate with a section does not read it"),
    # the probes at x = +-1 have roof 1: 21 returns span 21 time units, and
    # their two warmups of 10 roof floors leave no domination span of 2
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["SH"], "windows": {"n_returns": 21},
                           "ensemble": {"size": 1}}},
     "verify.windows.n_returns", "21 returns give seed"),
    # a suspension's MSH check: no avoid window of 1000 ends inside an
    # orbit of 200 returns
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["MSH-estimate"], "windows": {"n_returns": 200},
                           "ensemble": {"size": 1}, "msh": {"avoid_window": 1000}}},
     "verify.msh.avoid_window", "1000 leaves no MSH fit window"),
    # periodic seeds the model cannot run, rejected before the ensemble
    ("verify", {"verify": {"conditions": ["NUSH-periodic"],
                           "periodic_seeds": [{"point": [1, 2], "period": 1.0}]}},
     "verify.periodic_seeds", "seed 0: its point must have 3 entries, one per dimension"),
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["NUSH-periodic"],
                           "periodic_seeds": [{"point": [0.3]}]}},
     "verify.periodic_seeds", "seed 0: its point must have 2 entries, a section point"),
    ("verify", {"verify": {"conditions": ["NUSH-periodic"],
                           "periodic_seeds": [{"point": [1, 2, 20], "period": 1e-14}]}},
     "verify.periodic_seeds", "seed 0: its period 1e-14 is below 8e-14"),
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["NUSH-periodic"],
                           "periodic_seeds": [{"point": [1, 2, 3]}]}},
     "verify.periodic_seeds", "seed 0: its point must have 2 entries, a section point"),
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["NUSH-periodic"],
                           "periodic_seeds": [{"point": [0.5, 0.0]},
                                              {"point": [1, 2], "period": 2.0}]}},
     "verify.periodic_seeds", "seed 1: a suspension seed sets no period: it is the "
                              "roof at the point"),
    ("measure", {"measure": {"kind": "basin", "grid": [2, 2, 2], "reference": [1.0, 2.0],
                             "T": 1.0, "ref_T": 1.0}},
     "measure.reference", "must have one entry per dimension (3)"),
    # rejected before the equilibria are classified or a member integrated
    ("verify", {"verify": {"conditions": [], "ensemble": {"size": 2}}},
     "verify.conditions", "must name at least one condition"),
    # two seeds fail differently: seed 0 has no MSH fit window, and the
    # probe seed 1 is no longer than the tau window; seed 0 is named
    ("verify", {"model": "geometric_lorenz",
                "verify": {"conditions": ["MNUSE", "MSH-estimate"],
                           "windows": {"n_returns": 10}, "tau_sensitivity": [10.1],
                           "ensemble": {"size": 1}, "msh": {"avoid_window": 1000}}},
     "verify.msh.avoid_window", "1000 leaves no MSH fit window"),
])
def test_config_fault_exit_2_without_output(tmp_path, capsys, command, section,
                                            field, message):
    # each fault sits in an otherwise small, runnable config
    cfg = {"model": "lorenz", "output_dir": str(tmp_path / "out"),
           "simulate": {"t_span": 1.0},
           "verify": {"conditions": ["MNUSE"], "windows": {"T": 5.0},
                      "ensemble": {"size": 1, "transient": 0.0}}}
    for key, value in section.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    assert main([command, "-c", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section", [
    ("verify", {"verify": {"conditions": ["SH"], "windows": {"T": 5.0},
                           "ensemble": {"size": 1, "transient": 0.0}}}),
    ("classify", {"classify": {"arc_budget": 1.0}}),
    ("measure", {"model": "intermittent_lorenz",
                 "measure": {"kind": "invariance", "n": 100}}),
])
def test_verbose_names_the_file_written(tmp_path, capsys, command, section):
    cfg = {"model": "lorenz", "output_dir": str(tmp_path / "out"), **section}
    main([command, "-c", write_config(tmp_path, cfg), "--verbose"])
    (line,) = capsys.readouterr().err.splitlines()
    written = Path(line.removeprefix("wrote "))
    assert written.parent == tmp_path / "out" and written.is_file()


def test_transient_blowup_exits_1_naming_it(tmp_path, capsys):
    # the default 20-unit RK4 transient of a rate-50 saddle overflows to
    # inf: the ensemble stops before it integrates any member
    cfg = {"model": "linear_saddle", "params": {"eigs": [50.0, -1.0, -2.0]},
           "output_dir": str(tmp_path / "out"),
           "verify": {"conditions": ["SH"], "ensemble": {"size": 2},
                      "windows": {"T": 5.0}, "splitting": {"warmup": 1.0}}}
    # numpy's overflow warnings, which carry source paths, stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "-c", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert ("error: Blowup: member 0 is not finite after the RK4 transient of 20 "
            "(ensemble.transient)") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_tiny_periodic_seed_period_exits_1_naming_it(tmp_path, capsys):
    # a period above the step floor over which the orbit never leaves its
    # start closes trivially: shooting shows no periodic orbit
    cfg = {"model": "lorenz", "output_dir": str(tmp_path / "out"),
           "verify": {"conditions": ["NUSH-periodic"],
                      "periodic_seeds": [{"point": [1, 2, 20], "period": 1e-13}]}}
    code = main(["verify", "-c", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: NotPeriodic: " in err
    assert "Traceback" not in err


def test_msh_with_no_fit_window_is_not_fitted(tmp_path):
    # no sample of the orbit lies farther than radius 60 from the
    # equilibria, so no window start qualifies: the member reads as not
    # fitted, and MSH fails on NaN slopes
    out = tmp_path / "out"
    cfg = {"model": "lorenz", "seed": 1, "output_dir": str(out),
           "verify": {"conditions": ["MSH-estimate"],
                      "ensemble": {"size": 1, "transient": 5.0},
                      "windows": {"T": 12.0, "tau": 1.0, "sect_window": 2.0},
                      "splitting": {"warmup": 2.0, "stride": 4},
                      "msh": {"radius": 60.0}}}
    assert main(["verify", "-c", write_config(tmp_path, cfg)]) == 1
    (verdict,) = json.loads((out / "lorenz_report.json").read_text())["conditions"]
    assert verdict["verdict"] == "fail" and np.isnan(verdict["rate"])


def test_suspension_msh_with_no_fit_window_is_not_fitted(tmp_path):
    # every |x| is at most 1, so no sample lies farther than radius 2 from
    # the singular line and no window start qualifies: each seed reads as
    # not fitted, and MSH fails on NaN slopes
    out = tmp_path / "out"
    cfg = {"model": "geometric_lorenz", "seed": 1, "output_dir": str(out),
           "verify": {"conditions": ["MSH-estimate"], "ensemble": {"size": 2},
                      "windows": {"n_returns": 200}, "msh": {"radius": 2.0}}}
    assert main(["verify", "-c", write_config(tmp_path, cfg)]) == 1
    (verdict,) = json.loads((out / "geometric_lorenz_report.json")
                            .read_text())["conditions"]
    assert verdict["verdict"] == "fail" and np.isnan(verdict["rate"])


@pytest.mark.parametrize("params, field, message", [
    ({"c9": 1}, "params.c9", "unknown key; known here: base, c1, c2, c3"),
    ({"c1": 0.6, "c3": 0.5}, "params", "c1 + c3 >= 1"),
    # g_y = 0 would make every crossing factor singular
    ({"c1": 0}, "params", "c1 must be positive"),
])
def test_suspension_params_fault_exit_2_without_output(tmp_path, capsys, params,
                                                       field, message):
    cfg = {"model": "geometric_lorenz", "params": params,
           "output_dir": str(tmp_path / "out"),
           "verify": {"conditions": ["MSH-estimate"], "ensemble": {"size": 2},
                      "windows": {"n_returns": 50}}}
    assert main(["verify", "-c", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("env, flags, field", [
    ("-3", [], "SECHYP_SEED"),
    (None, ["--seed", "-3"], "--seed"),
])
def test_negative_seed_override_exit_2(tmp_path, capsys, monkeypatch, env,
                                       flags, field):
    if env is None:
        monkeypatch.delenv("SECHYP_SEED", raising=False)
    else:
        monkeypatch.setenv("SECHYP_SEED", env)
    path = write_config(tmp_path, {"model": "lorenz",
                                   "output_dir": str(tmp_path / "out"),
                                   "simulate": {"t_span": 1.0}})
    assert main(["simulate", "-c", path, *flags]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, field", [
    ({"splitting": {"stride": 2}}, "verify.splitting.stride"),
    ({"splitting": {"d_s": 1, "warmup": 3.0}}, "verify.splitting.d_s"),
    ({"ensemble": {"box": [[-1.0, 1.0], [-1.0, 1.0]]}}, "verify.ensemble.box"),
    ({"ensemble": {"transient": 5.0}}, "verify.ensemble.transient"),
    ({"ensemble": {"transient_dt": 0.02}}, "verify.ensemble.transient_dt"),
    ({"windows": {"T": 50.0}}, "verify.windows.T"),
])
def test_suspension_verify_rejects_keys_it_does_not_read(tmp_path, capsys,
                                                         section, field):
    cfg = {"model": "geometric_lorenz", "output_dir": str(tmp_path / "out"),
           "verify": {"conditions": ["ASH"], "windows": {"n_returns": 50},
                      **section}}
    cfg["verify"]["ensemble"] = {"size": 4, **section.get("ensemble", {})}
    assert main(["verify", "-c", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': a suspension ensemble does not read it" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("section", "suspension-canonical"),
    ("t_span", 5.0),
    ("n_returns", 10),
    ("formats", ["csv"]),
])
def test_interval_map_simulate_rejects_keys_it_does_not_read(tmp_path, capsys,
                                                             key, value):
    path = write_config(tmp_path, {
        "model": "intermittent_lorenz", "output_dir": str(tmp_path / "out"),
        "simulate": {"n": 5, key: value}})
    assert main(["simulate", "-c", path]) == 2
    err = capsys.readouterr().err
    assert (f"config field 'simulate.{key}': an interval map does not read it"
            in err)
    assert not (tmp_path / "out").exists()


def test_interval_map_simulate_runs_without_flow_keys(tmp_path):
    path = write_config(tmp_path, {
        "model": "intermittent_lorenz", "output_dir": str(tmp_path / "out"),
        "simulate": {"n": 5, "x0": 0.3, "section": None}})
    assert main(["simulate", "-c", path]) == 0
    assert (tmp_path / "out" / "intermittent_lorenz_orbit.csv").exists()


VERIFY_CONDITIONS = ["PH", "SingularHyp", "SH", "ASH", "MNUSE", "NUSE",
                     "MSH-estimate", "NNE", "NUSH-periodic"]


@st.composite
def small_verify_configs(draw):
    """A seconds-long verify config: a Lorenz ensemble of one or two
    members or a geometric Lorenz suspension of a few hundred returns,
    with a subset of the conditions."""
    conditions = draw(st.lists(st.sampled_from(VERIFY_CONDITIONS),
                               min_size=1, max_size=4, unique=True))
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        return {"model": "lorenz", "seed": seed,
                "tolerances": {"rtol": 1e-6, "atol": 1e-9},
                "verify": {"conditions": conditions,
                           "ensemble": {"size": draw(st.integers(1, 2)),
                                        "transient": 1.0},
                           "windows": {"T": draw(st.sampled_from([5.0, 6.0]))},
                           "splitting": {"warmup": 3.0,
                                         "stride": draw(st.sampled_from([2, 4]))}}}
    return {"model": "geometric_lorenz", "seed": seed,
            "verify": {"conditions": conditions,
                       "ensemble": {"size": draw(st.integers(2, 8)),
                                    "ph_sample": 2},
                       "windows": {"n_returns": draw(st.integers(100, 400))}}}


@settings(max_examples=6)
@given(cfg=small_verify_configs())
def test_verify_rerun_is_byte_identical(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        runs = []
        for out in (Path(tmp) / "r1", Path(tmp) / "r2"):
            code = main(["verify", "-c", path, "-o", str(out)])
            runs.append((code, (out / f"{cfg['model']}_report.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1)


# keys at or near the table's bounds (tolerances.rtol's upper bound; its
# lower one would make every orbit too slow for the budget)
SMALL_TIMES = [1e-3, 0.5, 2.0, 12.0]
SADDLE_EIGS = [[2.0, -3.0, -0.5], [3.0, 1.0, -1.0, -5.0]]


@st.composite
def small_configs(draw):
    """(command, config) of a small run: `verify` on a flow or a
    suspension, or `simulate`, `spectrum` or `classify` on a flow."""
    command = draw(st.sampled_from(["verify", "verify", "verify", "simulate",
                                    "spectrum", "classify"]))
    model = draw(st.sampled_from(["lorenz", "linear_saddle", "geometric_lorenz"]
                                 if command == "verify" else ["lorenz", "linear_saddle"]))
    cfg = {"model": model, "seed": draw(st.integers(0, 1000)),
           "tolerances": {"rtol": draw(st.sampled_from([1e-2, 1e-7]))}}
    if model == "linear_saddle":
        cfg["params"] = {"eigs": draw(st.sampled_from(SADDLE_EIGS))}
    if command == "simulate":
        cfg["simulate"] = {"t_span": draw(st.sampled_from(SMALL_TIMES)),
                           "formats": draw(st.sampled_from([[], ["csv", "cache"]]))}
    elif command == "spectrum":
        cfg["spectrum"] = {"T": draw(st.sampled_from(SMALL_TIMES[1:])),
                           "warmup": draw(st.sampled_from([0.0, 0.4])),
                           "k": draw(st.integers(1, 3))}
    elif command == "classify":
        cfg["classify"] = {"arc_budget": draw(st.sampled_from([1e-3, 1.0, 20.0]))}
    else:
        windows = {"tau": draw(st.sampled_from([1e-3, 1.0, 5.0]))}
        if model == "geometric_lorenz":
            windows["n_returns"] = draw(st.sampled_from([10, 21, 50, 200]))
        else:
            windows["T"] = draw(st.sampled_from(SMALL_TIMES))
            windows["sect_window"] = draw(st.sampled_from([1e-3, 3.0, 100.0]))
        ver = {"conditions": draw(st.lists(st.sampled_from(VERIFY_CONDITIONS),
                                           min_size=1, max_size=4, unique=True)),
               "ensemble": {"size": draw(st.integers(1, 3))},
               "windows": windows,
               "tau_sensitivity": draw(st.sampled_from([None, [0.5, 500.0]])),
               "msh": {"radius": draw(st.sampled_from([1e-3, 0.5])),
                       "avoid_window": draw(st.sampled_from([1e-2, 1.0, 5.0]))}}
        if model != "geometric_lorenz":
            ver["ensemble"]["transient"] = draw(st.sampled_from([0.0, 1.0]))
            ver["splitting"] = {"warmup": draw(st.sampled_from([0.0, 0.5, 3.0])),
                                "stride": draw(st.sampled_from([1, 4, 50]))}
        cfg["verify"] = ver
    return command, cfg


@settings(max_examples=100)
@given(case=small_configs())
def test_small_configs_exit_with_a_code(case):
    # a config never ends in a traceback: it runs (0, 1 or 3), a member's
    # named error exits 1, and a config fault exits 2 naming its key
    command, cfg = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        cfg["output_dir"] = str(Path(tmp) / "out")
        code = main([command, "-c", write_config(Path(tmp), cfg)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert "error: config field '" in err.getvalue()
