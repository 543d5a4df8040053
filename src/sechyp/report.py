"""Ensemble orchestration: per-condition verdicts over initial conditions.

The report runner draws a seeded ensemble from the model's trapping
region (or the section square for suspensions), evaluates every
requested condition per member, and aggregates into one verdict per
condition.  Uniform conditions (PH, SingularHyp, SH, NNE, MSH) must
hold over the whole sample including designated probe orbits; the
positive-measure conditions (ASH, NUSE, MNUSE) are aggregated as the
fraction of Lebesgue-random members that satisfy the bound, with probe
orbits excluded from the fraction since they carry zero volume.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import suspension as susp
from .errors import ConfigError
from .flowcalc import StepControl, batch_rk4, integrate
from .hyperbolicity import (ash_functional, classify_singularity,
                            mnuse_functional, msh_estimate, msh_windows,
                            nne_functional, nuse_functional,
                            nush_periodic_check,
                            sectional_expansion_functional,
                            volume_expansion_functional)
from .lpf import lpf_along
from .models import (SuspensionModel, VectorFieldModel, interval_fixed_points,
                     load_model)
from .splitting import (RATE_MARGIN, contraction_rate, domination_rate,
                        estimate_splitting, estimate_splittings)
from .util import fit_log_rate

KNOWN_CONDITIONS = ("PH", "SingularHyp", "SH", "ASH", "NUSE", "MNUSE", "NNE",
                    "MSH-estimate", "NUSH-periodic")


@dataclass
class ConditionVerdict:
    """Finite-time verdict for one hyperbolicity condition."""

    condition: str
    window: float
    fitted_rate: float
    sample_fraction: float
    threshold: float
    verdict: str                     # 'pass' | 'fail' | 'inconclusive'
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "condition": self.condition,
            "window": self.window,
            "rate": self.fitted_rate,
            "fraction": self.sample_fraction,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "details": self.details,
        }


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _cfg(config, *path, default=None):
    cur = config
    for p in path:
        if not isinstance(cur, dict) or p not in cur:
            return default
        cur = cur[p]
    return cur


# ----------------------------------------------------------------------
# per-seed evaluation, vector fields
# ----------------------------------------------------------------------

def _ode_seed_eval(model, x0, conditions, cfg):
    """All requested per-seed statistics for one vector-field orbit."""
    tol = StepControl(
        rtol=_cfg(cfg, "tolerances", "rtol", default=1e-7),
        atol=_cfg(cfg, "tolerances", "atol", default=1e-10),
        bound=_cfg(cfg, "tolerances", "bound", default=1e6),
    )
    warmup = _cfg(cfg, "splitting", "warmup", default=10.0)
    stride = _cfg(cfg, "splitting", "stride", default=4)
    d_s = _cfg(cfg, "splitting", "d_s", default=1)
    T = _cfg(cfg, "windows", "T", default=100.0)
    tau = _cfg(cfg, "windows", "tau", default=1.0)
    sect_window = _cfg(cfg, "windows", "sect_window") or max(tau, T / 4.0)
    margin = _cfg(cfg, "thresholds", "margin", default=RATE_MARGIN)
    eta = _cfg(cfg, "thresholds", "eta", default=-0.05)

    orbit = integrate(model, x0, T + 2 * warmup, tol)
    seq = estimate_splitting(orbit, d_s=d_s, warmup=warmup, stride=stride)
    need_lpf = any(c in conditions for c in ("NUSE", "MSH-estimate"))
    lpf = lpf_along(orbit) if need_lpf else None

    out = {}
    if any(c in conditions for c in ("PH", "SingularHyp", "SH")):
        dom = domination_rate(seq)
        con = contraction_rate(seq)
        out["ph_pass"] = bool(dom.passed and con.passed)
        out["dom_slope"] = dom.slope
        out["con_slope"] = con.slope
    if "SingularHyp" in conditions:
        vol = volume_expansion_functional(seq, sect_window)
        out["vol_rate"] = vol.rate
        out["vol_min"] = vol.min_rate
    if "SH" in conditions or "ASH" in conditions:
        if "SH" in conditions:
            sec = sectional_expansion_functional(seq, sect_window)
            out["sect_rate"] = sec.rate
            out["sect_min"] = sec.min_rate
        if "ASH" in conditions:
            out["ash_max"] = ash_functional(seq)
    if "MNUSE" in conditions:
        out["mnuse_rate"] = mnuse_functional(seq, tau)
        sens = cfg.get("tau_sensitivity")
        if sens:
            out["mnuse_tau"] = {str(tv): mnuse_functional(seq, tv) for tv in sens}
    if "NUSE" in conditions:
        out["nuse_rate"] = nuse_functional(lpf, seq, tau)
        sens = cfg.get("tau_sensitivity")
        if sens:
            out["nuse_tau"] = {str(tv): nuse_functional(lpf, seq, tv) for tv in sens}
    if "NNE" in conditions:
        nne = nne_functional(seq)
        out["nne_min"] = nne.min_rate
    if "MSH-estimate" in conditions:
        msh = msh_estimate(
            lpf, seq,
            radius=_cfg(cfg, "msh", "radius", default=0.05),
            avoid_window=_cfg(cfg, "msh", "avoid_window", default=5.0),
        )
        out["msh_slopes"] = (msh.ns_slope, msh.nu_slope, msh.domination_slope)
        out["msh_fit_pass"] = bool(msh.ns_slope <= -margin
                                   and msh.nu_slope <= -margin
                                   and msh.domination_slope <= -margin)
        out["msh_qualifying"] = msh.n_qualifying
    return out


def _ode_seed_eval_by_name(name, params, x0, conditions, cfg):
    return _ode_seed_eval(load_model(name, params), x0, conditions, cfg)


def _ode_ensemble(model, config, conditions):
    size = _cfg(config, "ensemble", "size", default=100)
    transient = _cfg(config, "ensemble", "transient", default=20.0)
    workers = _cfg(config, "ensemble", "workers", default=1)
    seed = config.get("seed", 20250808)

    box = _cfg(config, "ensemble", "box")
    box = np.asarray(box, dtype=float) if box is not None else model.trapping_region
    if box is None:
        raise ConfigError("ensemble.box",
                          "model declares no trapping region; supply a box")
    rng = np.random.default_rng(seed)
    ics = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((size, model.dim))
    if transient > 0:
        dt = _cfg(config, "ensemble", "transient_dt", default=0.01)
        ics = batch_rk4(model, ics, dt, int(round(transient / dt)))

    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_ode_seed_eval_by_name, model.name, model.params,
                            ics[i], conditions, config)
                for i in range(size)
            ]
            return [f.result() for f in futures], ics
    return [_ode_seed_eval(model, ics[i], conditions, config)
            for i in range(size)], ics


# ----------------------------------------------------------------------
# per-seed evaluation, suspensions
# ----------------------------------------------------------------------

def _suspension_probes(model):
    """Boundary fixed orbits of the base map as designated probes."""
    probes = []
    skew = model.section_map
    for xf in interval_fixed_points(skew.base):
        # fiber fixed point y* = g(xf, y*) over xf; g is affine in y
        y_star = skew.fiber(xf, 0.0) / (1.0 - skew.fiber_dy(xf, 0.0))
        probes.append((float(xf), float(y_star)))
    return probes


def _suspension_ensemble(model, config, conditions):
    size = _cfg(config, "ensemble", "size", default=200)
    seed = config.get("seed", 20250808)
    n_returns = _cfg(config, "windows", "n_returns", default=10000)
    tau = _cfg(config, "windows", "tau", default=1.0)
    margin = _cfg(config, "thresholds", "margin", default=RATE_MARGIN)
    sect_window = _cfg(config, "windows", "sect_window") or 50.0 * model.roof_floor

    rng = np.random.default_rng(seed)
    seeds = np.column_stack([
        rng.uniform(-1.0, 1.0, size),
        rng.uniform(-1.0, 1.0, size),
    ])
    probes = _suspension_probes(model)
    all_seeds = np.vstack([seeds] + [[p] for p in probes]) if probes else seeds
    is_probe = np.zeros(all_seeds.shape[0], dtype=bool)
    is_probe[size:] = True

    tilt_warmup = _cfg(config, "ensemble", "tilt_warmup", default=12)
    streams = susp.run_section_streams(model, all_seeds, n_returns,
                                       tilt_warmup=tilt_warmup)

    rows = []
    for b in range(all_seeds.shape[0]):
        out = {"probe": bool(is_probe[b])}
        if any(c in conditions for c in ("SingularHyp", "SH")):
            mean_r, min_r, max_r = susp.sectional_rate_stream(streams, b, sect_window)
            out["sect_rate"], out["sect_min"], out["sect_max"] = mean_r, min_r, max_r
            out["vol_rate"], out["vol_min"] = mean_r, min_r
        if "ASH" in conditions:
            out["ash_max"] = susp.ash_running_max(streams, b)
        if "MNUSE" in conditions:
            out["mnuse_rate"] = susp.mnuse_rate_stream(streams, b, tau)
            sens = config.get("tau_sensitivity")
            if sens:
                out["mnuse_tau"] = {
                    str(tv): susp.mnuse_rate_stream(streams, b, tv) for tv in sens
                }
        if "NUSE" in conditions:
            out["nuse_rate"] = susp.nuse_rate_stream(streams, b, tau)
            sens = config.get("tau_sensitivity")
            if sens:
                out["nuse_tau"] = {
                    str(tv): susp.nuse_rate_stream(streams, b, tv) for tv in sens
                }
        if "MSH-estimate" in conditions:
            out.update(_suspension_msh_row(streams, b, config, margin))
        rows.append(out)

    # uniform structural conditions via the generic matrix machinery on a
    # subsample of seeds plus every probe
    if any(c in conditions for c in ("PH", "SingularHyp", "SH", "NNE")):
        n_sample = min(_cfg(config, "ensemble", "ph_sample", default=6), size)
        sample = list(np.linspace(0, size - 1, n_sample).astype(int))
        sample += list(range(size, all_seeds.shape[0]))
        ph_returns = min(n_returns, 2000)
        dom_spans = np.linspace(2.0, 20.0, 5) * model.roof_floor
        orbits = [susp.suspension_orbit(model, all_seeds[b], ph_returns)
                  for b in sample]
        seqs = estimate_splittings(orbits, d_s=1, warmup=10.0 * model.roof_floor,
                                   stride=1)
        for b, seq in zip(sample, seqs):
            dom = domination_rate(seq, spans=dom_spans)
            con = contraction_rate(seq, spans=dom_spans)
            rows[b]["ph_pass"] = bool(dom.passed and con.passed)
            rows[b]["dom_slope"] = dom.slope
            rows[b]["con_slope"] = con.slope
            if "NNE" in conditions:
                rows[b]["nne_min"] = nne_functional(seq).min_rate
    return rows, all_seeds, {"clipped_roof_crossings": streams.clipped}


def _suspension_msh_row(streams, b, config, margin):
    """Restricted-LPF decay fits away from the singular line, from the
    scalar streams (N^s is the fiber direction, N^u the center-unstable
    trace in the section)."""
    radius = _cfg(config, "msh", "radius", default=0.05)
    avoid = _cfg(config, "msh", "avoid_window",
                 default=5.0 * streams.model.roof_floor)
    t = streams.times[:, b]
    n_qual, k0, k1 = msh_windows(t, np.abs(streams.x[:, b]), np.arange(len(t)),
                                 radius, avoid)
    if n_qual < 2:
        return {"msh_fit_pass": False, "msh_qualifying": 0,
                "msh_slopes": (np.nan, np.nan, np.nan)}

    s_ns = np.concatenate([[0.0], np.cumsum(streams.log_gy[:, b])])
    s_nu = np.concatenate([[0.0], np.cumsum(streams.log_a[:, b])])
    dt = t[k1] - t[k0]
    ys_s = s_ns[k1] - s_ns[k0]
    ys_u = -(s_nu[k1] - s_nu[k0])
    slope_s, _, _ = fit_log_rate(dt, ys_s)
    slope_u, _, _ = fit_log_rate(dt, ys_u)
    slope_d, _, _ = fit_log_rate(dt, ys_s + ys_u)
    ok = bool(slope_s <= -margin and slope_u <= -margin and slope_d <= -margin)
    return {"msh_fit_pass": ok, "msh_qualifying": n_qual,
            "msh_slopes": (float(slope_s), float(slope_u), float(slope_d))}


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _aggregate(condition, rows, config, sing_analyses, window):
    margin = _cfg(config, "thresholds", "margin", default=RATE_MARGIN)
    eta = _cfg(config, "thresholds", "eta", default=-0.05)
    min_fraction = _cfg(config, "thresholds", "min_fraction", default=0.5)
    ash_fraction = _cfg(config, "thresholds", "ash_fraction", default=0.9)
    random_rows = [r for r in rows if not r.get("probe", False)]

    def verdict_of(flag):
        return "pass" if flag else "fail"

    if condition == "PH":
        have = [r for r in rows if "ph_pass" in r]
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, -margin,
                                    "inconclusive", {"reason": "no PH data"})
        frac = np.mean([r["ph_pass"] for r in have])
        worst = max(max(r["dom_slope"], r["con_slope"]) for r in have)
        return ConditionVerdict(condition, window, float(worst), float(frac),
                                -margin, verdict_of(frac == 1.0),
                                {"n_checked": len(have)})

    if condition in ("SingularHyp", "SH"):
        key_min = "vol_min" if condition == "SingularHyp" else "sect_min"
        key_rate = "vol_rate" if condition == "SingularHyp" else "sect_rate"
        have = [r for r in rows if key_min in r]
        ph_rows = [r for r in rows if "ph_pass" in r]
        ph_ok = bool(ph_rows) and all(r["ph_pass"] for r in ph_rows)
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, margin,
                                    "inconclusive", {"reason": "no data"})
        worst = min(r[key_min] for r in have)
        rate = float(np.median([r[key_rate] for r in have]))
        ok = ph_ok and worst >= margin
        frac = np.mean([r[key_min] >= margin for r in have])
        return ConditionVerdict(condition, window, rate, float(frac), margin,
                                verdict_of(ok),
                                {"uniform_min": worst, "ph_component": ph_ok,
                                 "n_checked_ph": len(ph_rows)})

    if condition == "ASH":
        have = [r for r in random_rows if "ash_max" in r]
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, margin,
                                    "inconclusive", {"reason": "no data"})
        vals = np.array([r["ash_max"] for r in have])
        frac = float(np.mean(vals >= margin))
        return ConditionVerdict(condition, window, float(np.median(vals)),
                                frac, margin,
                                verdict_of(frac >= ash_fraction),
                                {"ash_fraction_required": ash_fraction,
                                 "note": "evaluated on Lebesgue-random seeds; "
                                         "zero-volume probe orbits excluded"})

    if condition in ("MNUSE", "NUSE"):
        key = "mnuse_rate" if condition == "MNUSE" else "nuse_rate"
        have = [r for r in random_rows if key in r]
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, eta,
                                    "inconclusive", {"reason": "no data"})
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
                tv: float(np.median([s[tv] for s in sens])) for tv in taus
            }
        return ConditionVerdict(condition, window, rate, frac, eta,
                                verdict_of(ok), details)

    if condition == "NNE":
        have = [r for r in rows if "nne_min" in r]
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, -margin,
                                    "inconclusive", {"reason": "no data"})
        worst = min(r["nne_min"] for r in have)
        return ConditionVerdict(
            condition, window, float(worst), 1.0, -margin,
            verdict_of(worst >= -margin),
            {"interpretation": "wedge of the pushed direction with the pushed "
                               "flow direction, normalized by the flow growth"})

    if condition == "MSH-estimate":
        have = [r for r in rows if "msh_fit_pass" in r]
        if not have:
            return ConditionVerdict(condition, window, np.nan, 0.0, -margin,
                                    "inconclusive", {"reason": "no data"})
        fit_ok = all(r["msh_fit_pass"] for r in have)
        sing_ok = True
        sing_detail = {}
        if sing_analyses:
            d_s = _cfg(config, "splitting", "d_s", default=1)
            for idx, sa in enumerate(sing_analyses):
                ok = bool(sa.lorenz_like)
                if ok and sa.splitting_dims is not None:
                    ok = sa.splitting_dims[0] == d_s
                sing_detail[f"sing_{idx}"] = {
                    "lorenz_like": sa.lorenz_like, "dims_ok": ok}
                sing_ok = sing_ok and ok
        slopes = [r["msh_slopes"] for r in have if np.isfinite(r["msh_slopes"][0])]
        worst = max(max(s[0], s[1]) for s in slopes) if slopes else np.nan
        frac = float(np.mean([r["msh_fit_pass"] for r in have]))
        return ConditionVerdict(
            condition, window, float(worst), frac, -margin,
            verdict_of(fit_ok and sing_ok),
            {"lpf_fits_pass": fit_ok, "singularities_ok": sing_ok,
             **sing_detail})

    return ConditionVerdict(condition, window, np.nan, 0.0, 0.0,
                            "inconclusive", {"reason": "not evaluated"})


def assemble_report(model, config: dict) -> dict:
    """Run the configured ensemble and aggregate ConditionVerdicts.

    Returns the report dictionary (JSON-serializable): model identity,
    seed, per-condition verdicts, singularity classifications, and the
    config hash for provenance.  Suspension reports add a `diagnostics`
    block counting the crossings whose roof argument was clipped.
    """
    conditions = list(config.get("conditions", []))
    for c in conditions:
        if c not in KNOWN_CONDITIONS:
            raise ConfigError("conditions", f"unknown condition '{c}'")

    window = float(_cfg(config, "windows", "T", default=100.0))
    sing_analyses = []
    diagnostics = None
    if isinstance(model, VectorFieldModel):
        for s in model.singularities:
            sing_analyses.append(classify_singularity(model, s, arc_budget=200.0))
        rows, _ = _ode_ensemble(model, config, conditions)
    elif isinstance(model, SuspensionModel):
        rows, _, diagnostics = _suspension_ensemble(model, config, conditions)
        window = float(_cfg(config, "windows", "n_returns", default=10000))
    else:
        raise ConfigError("model", "verify requires a flow or suspension model")

    verdicts = []
    for c in conditions:
        if c == "NUSH-periodic":
            verdicts.append(_periodic_verdict(model, config))
        else:
            verdicts.append(_aggregate(c, rows, config, sing_analyses, window))

    warnings = _consistency_scan(verdicts)
    report = {
        "model": model.name,
        "params": {k: v for k, v in model.params.items() if k != "table"},
        "seed": config.get("seed", 20250808),
        "toolkit_version": __version__,
        "config_hash": config_hash(config),
        "n_seeds": int(len(rows)),
        "conditions": [v.as_dict() for v in verdicts],
        "singularities": [sa.as_dict() for sa in sing_analyses],
        "consistency_warnings": warnings,
    }
    if diagnostics is not None:
        report["diagnostics"] = diagnostics
    return report


def _consistency_scan(verdicts):
    """Uniform sectional expansion implies asymptotic and mostly
    nonuniform expansion at finite time; a run where SH passes but a
    weaker condition fails can only be an integration-accuracy failure
    and must never be reported as a clean fail."""
    by_name = {v.condition: v for v in verdicts}
    warnings = []
    sh = by_name.get("SH")
    if sh is not None and sh.verdict == "pass":
        for weaker in ("ASH", "MNUSE"):
            w = by_name.get(weaker)
            if w is not None and w.verdict == "fail":
                msg = (f"SH passed but {weaker} failed on the same ensemble: "
                       f"flagged as an integration-accuracy failure")
                warnings.append(msg)
                w.verdict = "inconclusive"
                w.details["consistency_violation"] = msg
    return warnings


def _periodic_verdict(model, config):
    eta = _cfg(config, "thresholds", "eta", default=-0.05)
    tau = _cfg(config, "windows", "tau", default=1.0)
    d_s = _cfg(config, "splitting", "d_s", default=1)
    seeds = config.get("periodic_seeds", [])
    if not seeds and isinstance(model, SuspensionModel):
        seeds = [{"point": list(p), "period": None}
                 for p in _suspension_probes(model)]
    if not seeds:
        return ConditionVerdict("NUSH-periodic", 0.0, np.nan, 0.0, eta,
                                "inconclusive", {"reason": "no periodic seeds"})
    results = []
    for s in seeds:
        if isinstance(model, SuspensionModel):
            res = _suspension_periodic(model, s["point"], tau, eta)
        else:
            res = nush_periodic_check(model, s["point"], s.get("period", 1.0),
                                      tau=tau, d_s=d_s, eta=eta)
        results.append(res)
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


def _suspension_periodic(model, point, tau, eta):
    """Closed-form period averages over a fixed orbit of the section map."""
    from .hyperbolicity import NushPeriodicResult

    x, y = float(point[0]), float(point[1])
    skew = model.section_map
    fx, fy = skew.eval(x, y)
    if abs(fx - x) > 1e-9 or abs(fy - y) > 1e-9:
        from .errors import NotPeriodic
        raise NotPeriodic(f"section point {point} is not fixed")
    period = float(model.roof(x))
    gy = skew.fiber_dy(x, y)
    fp = skew.base.derivative(x)
    e_avg = float(np.log(abs(gy)) / period)
    wedge_avg = float(-np.log(abs(fp)) / period)
    return NushPeriodicResult(np.array([x, y]), period, 0.0,
                              e_avg, wedge_avg,
                              bool(e_avg <= eta and wedge_avg <= eta), eta)
