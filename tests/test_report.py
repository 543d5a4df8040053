import numpy as np
import numpy.testing as npt
import pytest

from sechyp import splitting
from sechyp.config import REPORT_TABLE, settings
from sechyp.errors import ConfigError
from sechyp.flowcalc import StepControl, integrate
from sechyp.hyperbolicity import classify_singularity
from sechyp.lpf import lpf_along
from sechyp.models import load_model
from sechyp.report import (_aggregate, _ode_rows, _suspension_msh_row,
                           assemble_report, config_hash)
from sechyp.suspension import SectionStreams


def verdict_map(report):
    return {c["condition"]: c for c in report["conditions"]}


@pytest.fixture(scope="module")
def lorenz_report():
    model = load_model("lorenz")
    cfg = {
        "conditions": ["PH", "SingularHyp", "SH", "ASH", "MNUSE", "NUSE"],
        "seed": 7,
        "ensemble": {"size": 4, "transient": 20.0},
        "windows": {"T": 50.0, "tau": 1.0, "sect_window": 15.0},
        "thresholds": {"eta": -0.05},
        "tolerances": {"rtol": 1e-7, "atol": 1e-10},
        "splitting": {"d_s": 1, "warmup": 10.0, "stride": 4},
        "tau_sensitivity": [0.5, 1.0, 2.0],
    }
    return assemble_report(load_model("lorenz"), cfg), cfg


class TestLorenzReport:
    def test_all_conditions_pass(self, lorenz_report):
        report, _ = lorenz_report
        for c in report["conditions"]:
            assert c["verdict"] == "pass", c

    def test_rates_in_theory_bands(self, lorenz_report):
        report, _ = lorenz_report
        v = verdict_map(report)
        assert abs(v["SH"]["rate"] - 0.9) < 0.15
        assert abs(v["MNUSE"]["rate"] + 0.9) < 0.15
        assert abs(v["NUSE"]["rate"] + 0.9) < 0.15
        assert v["PH"]["rate"] < -5.0

    def test_tau_sensitivity_reported(self, lorenz_report):
        report, _ = lorenz_report
        v = verdict_map(report)
        sens = v["MNUSE"]["details"]["tau_sensitivity"]
        vals = [sens[k] for k in sorted(sens, key=float)]
        assert max(vals) - min(vals) < 0.2  # per-unit-time normalization

    def test_report_metadata(self, lorenz_report):
        report, cfg = lorenz_report
        assert report["model"] == "lorenz"
        assert report["seed"] == 7
        assert report["config_hash"] == config_hash(cfg)
        assert report["n_seeds"] == 4
        assert len(report["singularities"]) == 3
        assert report["singularities"][0]["lorenz_like"] is True
        assert report["singularities"][1]["lorenz_like"] is False

    def test_monotone_consistency_sh_implies_weaker(self, lorenz_report):
        # finite-time shadow of the implication chain: an SH pass on an
        # ensemble must come with ASH and MNUSE passes on the same one
        report, _ = lorenz_report
        v = verdict_map(report)
        if v["SH"]["verdict"] == "pass":
            assert v["ASH"]["verdict"] == "pass"
            assert v["MNUSE"]["verdict"] == "pass"


class TestSuspensionReport:
    def test_counterexample_verdicts(self):
        sus = load_model("geometric_lorenz")
        cfg = {
            "conditions": ["SH", "ASH", "MNUSE", "MSH-estimate",
                           "NUSH-periodic"],
            "seed": 11,
            "ensemble": {"size": 40, "ph_sample": 3},
            "windows": {"n_returns": 3000, "tau": 1.0},
            "thresholds": {"eta": -0.05},
        }
        report = assemble_report(sus, cfg)
        v = verdict_map(report)
        assert v["SH"]["verdict"] == "fail"
        assert v["ASH"]["verdict"] == "pass"
        assert v["MNUSE"]["verdict"] == "pass"
        assert v["MSH-estimate"]["verdict"] == "fail"
        assert v["NUSH-periodic"]["verdict"] == "fail"
        orbits = v["NUSH-periodic"]["details"]["orbits"]
        assert all(abs(o["wedge_average"]) < 1e-6 for o in orbits)
        clipped = report["diagnostics"]["clipped_roof_crossings"]
        assert isinstance(clipped, int) and clipped >= 0

    def test_probes_excluded_from_fractions(self):
        sus = load_model("geometric_lorenz")
        cfg = {
            "conditions": ["ASH"],
            "seed": 3,
            "ensemble": {"size": 16},
            "windows": {"n_returns": 1500, "tau": 1.0},
        }
        report = assemble_report(sus, cfg)
        v = verdict_map(report)
        # the two neutral probes would drag the fraction below 1 if
        # they were counted; the a.e. statement must exclude them
        assert report["n_seeds"] == 18
        assert v["ASH"]["fraction"] == 1.0


def test_member_restrictions_formed_once(monkeypatch, lorenz):
    # every functional of a member reads the restrictions its sequence
    # formed: one per bundle, none more through all eight conditions
    calls = []
    restrict = splitting._restrict
    monkeypatch.setattr(splitting, "_restrict",
                        lambda *args: calls.append(1) or restrict(*args))
    orbit = integrate(lorenz, [1.0, 1.0, 20.0], 12.0,
                      StepControl(rtol=1e-6, atol=1e-9))
    seq = splitting.estimate_splitting(orbit, 1, 3.0, stride=2)
    assert len(calls) == 2
    conditions = ["PH", "SingularHyp", "SH", "ASH", "MNUSE", "NUSE",
                  "MSH-estimate", "NNE"]
    s = settings({"conditions": conditions, "windows": {"T": 6.0},
                  "tau_sensitivity": [0.5, 1.0, 2.0],
                  "splitting": {"warmup": 3.0, "stride": 2}}, REPORT_TABLE)
    row = _ode_rows([seq], [lpf_along(orbit).blocks(seq.grid)], conditions, s)[0]
    assert len(calls) == 2
    assert {"ph_pass", "vol_rate", "sect_rate", "ash_max", "mnuse_rate",
            "nuse_rate", "msh_slopes", "nne_min"} <= set(row)


class TestSuspensionMshScan:
    def test_window_ends_at_last_crossing_inside(self):
        # unit-spaced crossings (the constant roof 1), one sample (index 4) on the singular
        # side of the radius: the window [0, 3] of start 0 ends at
        # crossing 3, so only the first crossing past it comes close
        n = 20
        x = np.full((n + 1, 1), 0.5)
        x[4] = 0.01
        streams = SectionStreams(
            model=load_model("geometric_lorenz", {"roof_log_coeff": 0.0}), x=x,
            log_a=np.full((n, 1), 0.5), log_gy=np.full((n, 1), -1.0), clipped=0)
        row = _suspension_msh_row(streams, 0, radius=0.05, avoid=3.0,
                                  margin=1e-3)
        # starts 0..17 end inside the orbit; 1..4 see crossing 4
        assert row["msh_qualifying"] == 14
        assert row["msh_fit_pass"]
        npt.assert_allclose(row["msh_slopes"], (-1.0, -0.5, -1.5))

    def test_one_qualifying_start_is_counted_and_not_fitted(self):
        # only start 0 stays clear of the singular line over avoid = 3:
        # the row counts it, as a flow member's does, and fits nothing
        n = 20
        x = np.full((n + 1, 1), 0.01)
        x[:4] = 0.5
        streams = SectionStreams(
            model=load_model("geometric_lorenz", {"roof_log_coeff": 0.0}), x=x,
            log_a=np.full((n, 1), 0.5), log_gy=np.full((n, 1), -1.0), clipped=0)
        row = _suspension_msh_row(streams, 0, radius=0.05, avoid=3.0,
                                  margin=1e-3)
        assert row["msh_qualifying"] == 1
        assert not row["msh_fit_pass"]
        assert np.isnan(row["msh_slopes"]).all()


class TestMshVerdict:
    def test_decaying_fits_fail_on_the_lorenz_wings(self):
        # every member's restricted flows decay, but the wing equilibria
        # are not Lorenz-like, so the structure fails the verdict
        lorenz = load_model("lorenz")
        sings = [classify_singularity(lorenz, s, arc_budget=5.0)
                 for s in lorenz.singularities]
        rows = [{"msh_fit_pass": True, "msh_slopes": (-1.0, -0.5, -1.5),
                 "msh_qualifying": 6}] * 2
        v = _aggregate("MSH-estimate", rows, settings({}, REPORT_TABLE), sings,
                       50.0)
        assert v.verdict == "fail"
        assert v.details["lpf_fits_pass"] is True
        assert v.details["singularities_ok"] is False
        assert v.details["sing_0"] == {"lorenz_like": True, "dims_ok": True}
        assert not v.details["sing_1"]["lorenz_like"]


class TestValidation:
    def test_unknown_condition(self):
        with pytest.raises(ConfigError):
            assemble_report(load_model("lorenz"), {"conditions": ["BOGUS"]})

    def test_unknown_key_names_its_path(self):
        # the library checks its config against the same table as the CLI
        with pytest.raises(ConfigError) as err:
            assemble_report(load_model("lorenz"),
                            {"conditions": ["SH"], "windows": {"TT": 5.0}})
        assert err.value.field == "windows.TT"

    def test_missing_box(self):
        m = load_model("linear_saddle", {"eigs": [1.0, -1.0]})
        object.__setattr__(m, "trapping_region", None)
        with pytest.raises(ConfigError):
            assemble_report(m, {"conditions": ["PH"],
                                "ensemble": {"size": 2, "transient": 0.0},
                                "windows": {"T": 5.0}})

    def test_interval_map_rejected(self):
        with pytest.raises(ConfigError):
            assemble_report(load_model("intermittent_lorenz"),
                            {"conditions": ["SH"]})


class TestConsistencyScan:
    def test_sh_pass_with_weaker_fail_is_flagged(self):
        from sechyp.report import ConditionVerdict, _consistency_scan
        sh = ConditionVerdict("SH", 10.0, 0.9, 1.0, 1e-3, "pass")
        mn = ConditionVerdict("MNUSE", 10.0, 0.1, 0.0, -0.05, "fail")
        warnings = _consistency_scan([sh, mn])
        assert len(warnings) == 1
        assert mn.verdict == "inconclusive"
        assert "consistency_violation" in mn.details

    def test_consistent_reports_untouched(self):
        from sechyp.report import ConditionVerdict, _consistency_scan
        sh = ConditionVerdict("SH", 10.0, 0.0, 0.0, 1e-3, "fail")
        mn = ConditionVerdict("MNUSE", 10.0, -0.25, 1.0, -0.05, "pass")
        assert _consistency_scan([sh, mn]) == []
        assert mn.verdict == "pass"
