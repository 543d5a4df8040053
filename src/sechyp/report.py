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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import suspension as susp
from .config import REPORT_TABLE, reject_set, settings, step_control
from .errors import ConfigError, NotPeriodic
from .flowcalc import batch_rk4, integrate_batch
from .hyperbolicity import (NushPeriodicResult, ash_functional,
                            classify_singularity, mnuse_functional,
                            msh_estimate, msh_windows, nne_functional,
                            nuse_functional, nush_periodic_check,
                            sectional_expansion_functional,
                            volume_expansion_functional)
from .lpf import lpf_alongs
from .models import SuspensionModel, VectorFieldModel, interval_fixed_points
from .splitting import (block_factors, contraction_rate, domination_rate,
                        estimate_splittings, splittings_of_blocks)
from .util import fit_log_rate


@dataclass
class ConditionVerdict:
    """Finite-time verdict for one hyperbolicity condition."""

    condition: str
    window: float
    rate: float                      # fitted rate
    fraction: float                  # share of the sample that satisfies it
    threshold: float
    verdict: str                     # 'pass' | 'fail' | 'inconclusive'
    details: dict = field(default_factory=dict)


# members a flow ensemble integrates and evaluates together at most: one
# batch of orbits is held at once, about 104 bytes per step and member in
# 3-d, and with it the batch's LPF cocycles, about 44 more at stride 4
ENSEMBLE_BATCH = 25


# report keys that a suspension ensemble does not read
_SUSPENSION_UNREAD = tuple(p for p in REPORT_TABLE if p.startswith("splitting.")
                          ) + ("ensemble.box", "ensemble.transient",
                               "ensemble.transient_dt", "windows.T")
# report keys that a flow ensemble does not read
_FLOW_UNREAD = ("windows.n_returns", "ensemble.tilt_warmup", "ensemble.ph_sample")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# per-seed evaluation, vector fields
# ----------------------------------------------------------------------

def _ode_seed_eval(seq, lpf, conditions, s):
    """All requested per-seed statistics for one vector-field member, from
    its splitting sequence and, when NUSE or MSH-estimate is requested,
    its LPF cocycle (else None); `s` holds the report settings.  Reads
    block and LPF factors only, never the orbit's per-step factors."""
    T, tau = s["windows.T"], s["windows.tau"]
    sect_window = s["windows.sect_window"] or max(tau, T / 4.0)
    margin = s["thresholds.margin"]
    sens = s["tau_sensitivity"]
    if any(c in conditions for c in ("NUSE", "MNUSE")):
        valid = seq.times[-1] - seq.times[0]
        longest = max([tau, *(sens or ())])
        if valid <= longest:
            raise ConfigError("windows.T", f"leaves a valid range of {valid:.6g} "
                                           "after warmup trimming, no longer "
                                           f"than the longest tau window {longest:g} "
                                           "(windows.tau, tau_sensitivity)")
    out = {}

    def rates(cond, rate):
        if cond in conditions:
            out[f"{cond.lower()}_rate"] = rate(tau)
            if sens:
                out[f"{cond.lower()}_tau"] = {str(tv): rate(tv) for tv in sens}

    # the LPF functionals first, so that the LPF cocycle is freed before
    # the others run
    if lpf is not None:
        rates("NUSE", lambda t: nuse_functional(lpf, seq, t))
        if "MSH-estimate" in conditions:
            msh = msh_estimate(lpf, seq, radius=s["msh.radius"],
                               avoid_window=s["msh.avoid_window"] or 5.0)
            out["msh_slopes"] = (msh.ns_slope, msh.nu_slope, msh.domination_slope)
            out["msh_fit_pass"] = bool(msh.ns_slope <= -margin
                                       and msh.nu_slope <= -margin
                                       and msh.domination_slope <= -margin)
            out["msh_qualifying"] = msh.n_qualifying
        del lpf
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
    if "SH" in conditions:
        sec = sectional_expansion_functional(seq, sect_window)
        out["sect_rate"] = sec.rate
        out["sect_min"] = sec.min_rate
    if "ASH" in conditions:
        out["ash_max"] = ash_functional(seq)
    rates("MNUSE", lambda t: mnuse_functional(seq, t))
    if "NNE" in conditions:
        out["nne_min"] = nne_functional(seq).min_rate
    return out


def _ode_ensemble(model, s, conditions):
    size = s["ensemble.size"] or 100
    transient = s["ensemble.transient"]

    box = s["ensemble.box"]
    box = np.asarray(box, dtype=float) if box is not None else model.trapping_region
    if box is None:
        raise ConfigError("ensemble.box",
                          "model declares no trapping region; supply a box")
    if box.shape != (model.dim, 2):
        raise ConfigError("ensemble.box", f"must have {model.dim} rows, one "
                                          "[low, high] per dimension")
    if s["splitting.d_s"] > model.dim - 2:
        raise ConfigError("splitting.d_s", f"must be at most {model.dim - 2} for "
                                           f"a {model.dim}-dimensional model")
    rng = np.random.default_rng(s["seed"])
    ics = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((size, model.dim))
    if transient > 0:
        dt = s["ensemble.transient_dt"]
        ics = batch_rk4(model, ics, dt, int(round(transient / dt)))
    span, ctrl = s["windows.T"] + 2 * s["splitting.warmup"], step_control(s)
    rows = []
    for lo in range(0, len(ics), ENSEMBLE_BATCH):
        rows.extend(_batch_rows(
            integrate_batch(model, ics[lo:lo + ENSEMBLE_BATCH], span, ctrl),
            conditions, s))
    return rows


def _batch_rows(members, conditions, s):
    """The rows of one `integrate_batch` run's members, in member order.

    Each row, and the exception raised first, is what a loop over the
    members gives that runs `estimate_splitting`, `lpf_along` and the
    functionals one member at a time.  The cocycle work runs stacked
    over the members that integrated, in the order that holds the least
    at once: the LPF transport of all of them (frames kept at the block
    checkpoints only, which is all the functionals read), then each
    one's block factors, after which its per-step factors are released,
    then the splitting sweeps.
    """
    orbits = [m for m in members if not isinstance(m, Exception)]
    stride = s["splitting.stride"]
    lpfs = (lpf_alongs(orbits, frame_stride=stride)
            if any(c in conditions for c in ("NUSE", "MSH-estimate"))
            else [None] * len(orbits))
    blocks = []
    for orbit in orbits:
        blocks.append(block_factors(orbit, stride))
        orbit.step_cocycles = None
    seqs = splittings_of_blocks(orbits, blocks, s["splitting.d_s"],
                                s["splitting.warmup"])
    del orbits, blocks
    while members:
        # a member raises its integration error, else its splitting
        # error, else its LPF error; popped, so that each member is
        # released once its row is made
        if isinstance(members[0], Exception):
            raise members[0]
        del members[0]
        for outcome in (seqs[0], lpfs[0]):
            if isinstance(outcome, Exception):
                raise outcome
        yield _ode_seed_eval(seqs.pop(0), lpfs.pop(0), conditions, s)


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


def _suspension_ensemble(model, s, conditions):
    size = s["ensemble.size"] or 200
    n_returns = s["windows.n_returns"]
    tau = s["windows.tau"]
    margin = s["thresholds.margin"]
    sect_window = s["windows.sect_window"] or 50.0 * model.roof_floor
    avoid = s["msh.avoid_window"] or 5.0 * model.roof_floor
    sens = s["tau_sensitivity"]

    rng = np.random.default_rng(s["seed"])
    seeds = np.column_stack([
        rng.uniform(-1.0, 1.0, size),
        rng.uniform(-1.0, 1.0, size),
    ])
    probes = _suspension_probes(model)
    all_seeds = np.vstack([seeds] + [[p] for p in probes]) if probes else seeds
    is_probe = np.zeros(all_seeds.shape[0], dtype=bool)
    is_probe[size:] = True

    streams = susp.run_section_streams(model, all_seeds, n_returns,
                                       tilt_warmup=s["ensemble.tilt_warmup"])

    rows = []
    for b in range(all_seeds.shape[0]):
        out = {"probe": bool(is_probe[b])}
        if any(c in conditions for c in ("SingularHyp", "SH")):
            mean_r, min_r, max_r = susp.sectional_rate_stream(streams, b, sect_window)
            out["sect_rate"], out["sect_min"], out["sect_max"] = mean_r, min_r, max_r
            out["vol_rate"], out["vol_min"] = mean_r, min_r
        if "ASH" in conditions:
            out["ash_max"] = susp.ash_running_max(streams, b)
        for cond, rate in (("MNUSE", susp.mnuse_rate_stream),
                           ("NUSE", susp.nuse_rate_stream)):
            if cond in conditions:
                out[f"{cond.lower()}_rate"] = rate(streams, b, tau)
                if sens:
                    out[f"{cond.lower()}_tau"] = {str(tv): rate(streams, b, tv)
                                                  for tv in sens}
        if "MSH-estimate" in conditions:
            out.update(_suspension_msh_row(streams, b, s["msh.radius"], avoid,
                                           margin))
        rows.append(out)

    # uniform structural conditions via the generic matrix machinery on a
    # subsample of seeds plus every probe
    if any(c in conditions for c in ("PH", "SingularHyp", "SH", "NNE")):
        n_sample = min(s["ensemble.ph_sample"], size)
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
    return rows, {"clipped_roof_crossings": streams.clipped}


def _suspension_msh_row(streams, b, radius, avoid, margin):
    """Restricted-LPF decay fits away from the singular line, from the
    scalar streams (N^s is the fiber direction, N^u the center-unstable
    trace in the section)."""
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

def _aggregate(condition, rows, s, sing_analyses, window):
    margin = s["thresholds.margin"]
    eta = s["thresholds.eta"]
    random_rows = [r for r in rows if not r.get("probe", False)]
    # the row key carrying each condition's data, the rows it is taken over
    # (the positive-measure conditions exclude probes) and its threshold
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

    # MSH-estimate: every member's fits, and the one check that each
    # singularity is Lorenz-like with the configured stable dimension
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


def assemble_report(model, config: dict) -> dict:
    """Run the configured ensemble and aggregate ConditionVerdicts.

    Returns the report dictionary (JSON-serializable): model identity,
    seed, per-condition verdicts, singularity classifications, and the
    config hash for provenance.  Suspension reports add a `diagnostics`
    block counting the crossings whose roof argument was clipped.
    """
    s = settings(config, REPORT_TABLE)
    conditions = list(s["conditions"] or ())
    window = float(s["windows.T"])
    sing_analyses = []
    diagnostics = None
    if isinstance(model, VectorFieldModel):
        reject_set(config, _FLOW_UNREAD,
                   "a flow ensemble does not read it: its window is windows.T "
                   "and every member gets its own splitting")
        for sigma in model.singularities:
            sing_analyses.append(classify_singularity(model, sigma, arc_budget=200.0))
        rows = _ode_ensemble(model, s, conditions)
    elif isinstance(model, SuspensionModel):
        reject_set(config, _SUSPENSION_UNREAD,
                   "a suspension ensemble does not read it: its seeds come "
                   "from the section square, its window is windows.n_returns "
                   "and its splittings have d_s = 1")
        rows, diagnostics = _suspension_ensemble(model, s, conditions)
        window = float(s["windows.n_returns"])
    else:
        raise ConfigError("model", "verify requires a flow or suspension model")

    verdicts = []
    for c in conditions:
        if c == "NUSH-periodic":
            verdicts.append(_periodic_verdict(model, s))
        else:
            verdicts.append(_aggregate(c, rows, s, sing_analyses, window))

    warnings = _consistency_scan(verdicts)
    report = {
        "model": model.name,
        "params": {k: v for k, v in model.params.items() if k != "table"},
        "seed": s["seed"],
        "toolkit_version": __version__,
        "config_hash": config_hash(config),
        "n_seeds": int(len(rows)),
        "conditions": [asdict(v) for v in verdicts],
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


def _periodic_verdict(model, s):
    eta, tau, d_s = s["thresholds.eta"], s["windows.tau"], s["splitting.d_s"]
    seeds = s["periodic_seeds"]
    if not seeds and isinstance(model, SuspensionModel):
        seeds = [{"point": list(p), "period": None}
                 for p in _suspension_probes(model)]
    if not seeds:
        return ConditionVerdict("NUSH-periodic", 0.0, np.nan, 0.0, eta,
                                "inconclusive", {"reason": "no periodic seeds"})
    results = []
    for seed in seeds:
        if isinstance(model, SuspensionModel):
            res = _suspension_periodic(model, seed["point"], tau, eta)
        else:
            res = nush_periodic_check(model, seed["point"],
                                      seed.get("period", 1.0),
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
    x, y = float(point[0]), float(point[1])
    skew = model.section_map
    fx, fy = skew.eval(x, y)
    if abs(fx - x) > 1e-9 or abs(fy - y) > 1e-9:
        raise NotPeriodic(f"section point {point} is not fixed")
    period = float(model.roof(x))
    gy = skew.fiber_dy(x, y)
    fp = skew.base.derivative(x)
    e_avg = float(np.log(abs(gy)) / period)
    wedge_avg = float(-np.log(abs(fp)) / period)
    return NushPeriodicResult(np.array([x, y]), period, 0.0,
                              e_avg, wedge_avg,
                              bool(e_avg <= eta and wedge_avg <= eta), eta)
