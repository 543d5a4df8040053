from dataclasses import asdict, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sechyp import report as report_mod
from sechyp import splitting
from sechyp.config import REPORT_TABLE, settings
from sechyp.errors import ConfigError, SpectralGapFailure, WarmupExceedsOrbit
from sechyp.flowcalc import StepControl, integrate
from sechyp.hyperbolicity import NushPeriodicResult, classify_singularity
from sechyp.lpf import lpf_along
from sechyp.models import load_model
from sechyp.report import (ConditionVerdict, _aggregate, _check_windows, _entries,
                           _periodic_verdict, _suspension_msh_row, assemble_report,
                           config_hash)
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

    def test_ph_sample_raises_each_seed_at_its_turn(self, monkeypatch):
        # sampled seed 0 has no spectral gap and seed 1 is too short for
        # its warmups: seed 0's own failure comes before seed 1's config
        # fault (windows.n_returns)
        splittings = report_mod.splittings_of_blocks
        monkeypatch.setattr(report_mod, "splittings_of_blocks",
                            lambda orbits, *args: [
                                SpectralGapFailure("seed 0 has no gap"),
                                WarmupExceedsOrbit("seed 1 is short"),
                                *splittings(orbits[2:], *args)])
        with pytest.raises(SpectralGapFailure, match="seed 0 has no gap"):
            assemble_report(load_model("geometric_lorenz"),
                            {"conditions": ["PH"], "seed": 3,
                             "ensemble": {"size": 2, "ph_sample": 2},
                             "windows": {"n_returns": 200}})


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
    _check_windows(seq, conditions, s)
    row = _entries([seq], [lpf_along(orbit).blocks(seq.grid)], conditions, s)[0]
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


# ----------------------------------------------------------------------
# the one verdict rule against the per-condition branches it replaced
# ----------------------------------------------------------------------

def _reference_aggregate(condition, rows, s, sing_analyses, window):
    """The aggregation as six per-condition branches, each forming its own
    pool, fraction and verdict; its NNE fraction is always 1.0."""
    margin = s["thresholds.margin"]
    eta = s["thresholds.eta"]
    random_rows = [r for r in rows if not r.get("probe", False)]
    key, pool, threshold = {
        "PH": ("ph_pass", rows, -margin),
        "SingularHyp": ("vol_min", rows, margin),
        "SH": ("sect_min", rows, margin),
        "ASH": ("ash_max", random_rows, margin),
        "MNUSE": ("mnuse_rate", random_rows, eta),
        "NUSE": ("nuse_rate", random_rows, eta),
        "NNE": ("nne_min", rows, -margin),
        "MSH-estimate": ("msh_fit_pass", rows, -margin),
    }[condition]
    have = [r for r in pool if key in r]
    if not have:
        reason = "no PH data" if condition == "PH" else "no data"
        return ConditionVerdict(condition, window, np.nan, 0.0, threshold,
                                "inconclusive", {"reason": reason})

    def verdict_of(flag):
        return "pass" if flag else "fail"

    if condition == "PH":
        frac = np.mean([r["ph_pass"] for r in have])
        worst = max(max(r["dom_slope"], r["con_slope"]) for r in have)
        return ConditionVerdict(condition, window, float(worst), float(frac),
                                threshold, verdict_of(frac == 1.0),
                                {"n_checked": len(have)})

    if condition in ("SingularHyp", "SH"):
        ph_rows = [r for r in rows if "ph_pass" in r]
        ph_ok = bool(ph_rows) and all(r["ph_pass"] for r in ph_rows)
        worst = min(r[key] for r in have)
        rate = float(np.median([r[key.replace("min", "rate")] for r in have]))
        ok = ph_ok and worst >= margin
        frac = np.mean([r[key] >= margin for r in have])
        return ConditionVerdict(condition, window, rate, float(frac), threshold,
                                verdict_of(ok),
                                {"uniform_min": worst, "ph_component": ph_ok,
                                 "n_checked_ph": len(ph_rows)})

    if condition == "ASH":
        ash_fraction = s["thresholds.ash_fraction"]
        vals = np.array([r["ash_max"] for r in have])
        frac = float(np.mean(vals >= margin))
        return ConditionVerdict(condition, window, float(np.median(vals)),
                                frac, threshold,
                                verdict_of(frac >= ash_fraction),
                                {"ash_fraction_required": ash_fraction,
                                 "note": "evaluated on Lebesgue-random seeds; "
                                         "zero-volume probe orbits excluded"})

    if condition in ("MNUSE", "NUSE"):
        min_fraction = s["thresholds.min_fraction"]
        vals = np.array([r[key] for r in have])
        frac = float(np.mean(vals <= eta))
        rate = float(np.median(vals))
        ok = frac >= min_fraction and rate <= eta
        details = {"min_fraction_required": min_fraction,
                   "positive_measure_proxy": frac > 0.0}
        sens_key = key.replace("rate", "tau")
        sens = [r[sens_key] for r in have if sens_key in r]
        if sens:
            taus = sorted(sens[0].keys(), key=float)
            details["tau_sensitivity"] = {
                tv: float(np.median([d[tv] for d in sens])) for tv in taus
            }
        return ConditionVerdict(condition, window, rate, frac, threshold,
                                verdict_of(ok), details)

    if condition == "NNE":
        worst = min(r["nne_min"] for r in have)
        return ConditionVerdict(
            condition, window, float(worst), 1.0, threshold,
            verdict_of(worst >= -margin),
            {"interpretation": "wedge of the pushed direction with the pushed "
                               "flow direction, normalized by the flow growth"})

    fit_ok = all(r["msh_fit_pass"] for r in have)
    sing_ok = True
    sing_detail = {}
    for idx, sa in enumerate(sing_analyses):
        ok = bool(sa.lorenz_like)
        if ok and sa.splitting_dims is not None:
            ok = sa.splitting_dims[0] == s["splitting.d_s"]
        sing_detail[f"sing_{idx}"] = {"lorenz_like": sa.lorenz_like, "dims_ok": ok}
        sing_ok = sing_ok and ok
    slopes = [r["msh_slopes"] for r in have if np.isfinite(r["msh_slopes"][0])]
    worst = max(max(sl[0], sl[1]) for sl in slopes) if slopes else np.nan
    frac = float(np.mean([r["msh_fit_pass"] for r in have]))
    return ConditionVerdict(
        condition, window, float(worst), frac, threshold,
        verdict_of(fit_ok and sing_ok),
        {"lpf_fits_pass": fit_ok, "singularities_ok": sing_ok, **sing_detail})


def _reference_periodic(results, s):
    """The NUSH-periodic verdict over shooting results, as its own rule."""
    eta, tau = s["thresholds.eta"], s["windows.tau"]
    ok = all(r.passed for r in results)
    worst = max(max(r.e_average, r.wedge_average) for r in results)
    return ConditionVerdict(
        "NUSH-periodic", tau, float(worst), float(np.mean([r.passed for r in results])),
        eta, "pass" if ok else "fail",
        {"orbits": [{"point": [float(v) for v in np.atleast_1d(r.point)],
                     "period": r.period,
                     "e_average": r.e_average,
                     "wedge_average": r.wedge_average,
                     "passed": r.passed} for r in results]})


_CONDITIONS = ("PH", "SingularHyp", "SH", "ASH", "MNUSE", "NUSE", "NNE", "MSH-estimate")
# finite rates, with the thresholds' own values among them
_RATES = st.one_of(st.floats(-2.0, 2.0),
                   st.sampled_from([0.0, 1e-3, -1e-3, 0.1, -0.1, -0.05]))


@st.composite
def _rows(draw):
    """An ensemble's rows: probe and random ones, each carrying some of
    the keys that the conditions read, NaN MSH slopes among them."""
    taus = draw(st.sampled_from([None, ("0.5", "2.0"), ("1.0",)]))
    groups = {
        "ph_pass": lambda: {"ph_pass": draw(st.booleans()), "dom_slope": draw(_RATES),
                            "con_slope": draw(_RATES)},
        "vol_min": lambda: {"vol_min": draw(_RATES), "vol_rate": draw(_RATES)},
        "sect_min": lambda: {"sect_min": draw(_RATES), "sect_rate": draw(_RATES)},
        "ash_max": lambda: {"ash_max": draw(_RATES)},
        "nne_min": lambda: {"nne_min": draw(_RATES)},
        "msh_fit_pass": lambda: {
            "msh_fit_pass": draw(st.booleans()),
            "msh_slopes": draw(st.one_of(st.just((np.nan,) * 3),
                                         st.tuples(_RATES, _RATES, _RATES))),
            "msh_qualifying": draw(st.integers(0, 6))},
    }
    for cond in ("mnuse", "nuse"):
        groups[f"{cond}_rate"] = lambda cond=cond: {
            f"{cond}_rate": draw(_RATES),
            **({f"{cond}_tau": {tv: draw(_RATES) for tv in taus}} if taus else {})}
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {"probe": True} if draw(st.booleans()) else {}
        for key, make in groups.items():
            if draw(st.integers(0, 4)):
                row.update(make())
        rows.append(row)
    return rows


_SETTINGS = st.builds(
    lambda margin, eta, ash, frac, d_s: settings(
        {"thresholds": {"margin": margin, "eta": eta, "ash_fraction": ash,
                        "min_fraction": frac},
         "splitting": {"d_s": d_s}}, REPORT_TABLE),
    st.sampled_from([0.0, 1e-3, 0.1]), st.sampled_from([-0.05, -0.1, -1e-3]),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([1, 2]))
_SINGULARITIES = st.lists(st.builds(
    SimpleNamespace, lorenz_like=st.booleans(),
    splitting_dims=st.sampled_from([None, (1, 1, 1), (2, 1, 1)])), max_size=3)


@given(rows=_rows(), s=_SETTINGS, sings=_SINGULARITIES)
def test_one_rule_gives_every_branch_verdict(rows, s, sings):
    for condition in _CONDITIONS:
        got = _aggregate(condition, rows, s, sings, 50.0)
        want = _reference_aggregate(condition, rows, s, sings, 50.0)
        if condition == "NNE" and got.verdict != "inconclusive":
            # the one change: NNE's fraction is the share of rows that meet it
            have = [r["nne_min"] for r in rows if "nne_min" in r]
            assert got.fraction == np.mean([v >= -s["thresholds.margin"] for v in have])
            want = replace(want, fraction=got.fraction)
        npt.assert_equal(asdict(got), asdict(want), err_msg=condition)


_RESULTS = st.lists(st.builds(
    NushPeriodicResult, point=st.just(np.array([1.0, 2.0, 20.0])),
    period=st.floats(0.5, 3.0), residual=st.just(0.0), e_average=_RATES,
    wedge_average=_RATES, passed=st.booleans(), eta=st.just(-0.05)),
    min_size=1, max_size=4)


@given(results=_RESULTS, tau=st.sampled_from([0.5, 1.0]))
def test_periodic_verdict_goes_through_the_rule(results, tau):
    s = settings({"windows": {"tau": tau},
                  "periodic_seeds": [{"point": [1.0, 2.0, 20.0]}] * len(results)},
                 REPORT_TABLE)
    shot = iter(results)
    with mock.patch.object(report_mod, "nush_periodic_check",
                           lambda *args, **kwargs: next(shot)):
        got = _periodic_verdict(load_model("lorenz"), s)
    npt.assert_equal(asdict(got), asdict(_reference_periodic(results, s)))


def test_nne_fraction_is_the_share_that_meets_it():
    # one of four members falls below -margin: NNE fails, and its
    # fraction is the three of four that meet the threshold
    rows = [{"nne_min": v} for v in (0.2, -1.0, 0.0, 0.5)]
    v = _aggregate("NNE", rows, settings({}, REPORT_TABLE), (), 6.0)
    assert v.verdict == "fail"
    assert v.fraction == 0.75
    assert v.rate == -1.0
