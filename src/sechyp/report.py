"""Ensemble orchestration: per-condition verdicts over initial conditions.

The report runner draws a seeded ensemble from the model's trapping
region (or the section square for suspensions), evaluates every
requested condition per member, and aggregates into one verdict per
condition by one rule (`_aggregate`).  Uniform conditions (PH, SingularHyp,
SH, NNE, MSH, NUSH-periodic) must hold over the whole sample, designated
probe orbits included; the positive-measure conditions (ASH, NUSE, MNUSE)
are aggregated as the fraction of Lebesgue-random members that satisfy
the bound, probe orbits excluded since they carry zero volume.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import suspension as susp
from .config import REPORT_TABLE, reject_set, settings, step_control
from .errors import (Blowup, ConfigError, NearSingularity, NotPeriodic, ShortOrbit,
                     WarmupExceedsOrbit)
from .flowcalc import StepControl, batch_rk4, integrate_batch
from .hyperbolicity import (Functionals, NushPeriodicResult, classify_singularity,
                            msh_fit, msh_windows, nush_periodic_check, sect_windows,
                            tau_windows)
from .lpf import lpf_along
from .models import SuspensionModel, VectorFieldModel, interval_fixed_points
from .splitting import (RATE_STARTS, block_factors, rate_fits, span_windows,
                        splittings_of_blocks)


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
# 3-d, 72 of them the step factors, which a member drops once its blocks
# are formed (and its LPF blocks, from 80 more bytes per step of its own)
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

def _taus(s):
    """The distinct tau windows: windows.tau, then tau_sensitivity's."""
    return list(dict.fromkeys([s["windows.tau"], *(s["tau_sensitivity"] or ())]))


def _sect_window(s):
    return s["windows.sect_window"] or max(s["windows.tau"], s["windows.T"] / 4.0)


def _msh_avoid(s):
    return s["msh.avoid_window"] or 5.0


def _check_msh_window(t, grid, avoid):
    """Raise ConfigError when `msh.avoid_window` leaves no MSH fit window
    on samples at times t with window starts at `grid`, even where every
    sample is clear of the singular set (see `hyperbolicity.msh_windows`)."""
    if not len(msh_windows(t, np.full(len(t), np.inf), grid, 0.0, avoid)[1]):
        raise ConfigError("msh.avoid_window",
                          f"{avoid:g} leaves no MSH fit window: fewer than two "
                          "window starts whose avoid window ends inside the "
                          "orbit, or no fit span that reaches the next window "
                          "start")


def _check_windows(seq, conditions, s):
    """Raise ConfigError when a window setting leaves this member no
    window of a requested condition."""
    tau_rated = [c for c in ("MNUSE", "NUSE") if c in conditions]
    if tau_rated:
        sens = s["tau_sensitivity"]
        valid = seq.times[-1] - seq.times[0]
        longest = max([s["windows.tau"], *(sens or ())])
        if valid <= longest:
            raise ConfigError("windows.T", f"leaves a valid range of {valid:.6g} "
                                           "after warmup trimming, no longer "
                                           f"than the longest tau window {longest:g} "
                                           "(windows.tau, tau_sensitivity)")
    if any(c in conditions for c in ("SingularHyp", "SH")):
        window = _sect_window(s)
        if not len(sect_windows(seq, window)[0]):
            raise ConfigError("windows.sect_window",
                              f"{window:g} is shorter than one checkpoint block: "
                              "it leaves no sectional or volume window")
    for tau in _taus(s) if tau_rated else ():
        if not len(tau_windows(seq.times, tau)[0]):
            field = "windows.tau" if tau == s["windows.tau"] else "tau_sensitivity"
            raise ConfigError(field, f"{tau:g} is shorter than one checkpoint "
                                     f"block: it leaves no {tau_rated[0]} window")
    if "MSH-estimate" in conditions:
        _check_msh_window(seq.orbit.times, seq.grid, _msh_avoid(s))


def _rate_entries(rows, cond, by_tau, s):
    """Each row's rate of a tau-windowed condition at windows.tau, and its
    rates at the tau_sensitivity windows when those are set; `by_tau`
    holds per tau the rates of the rows' members."""
    for m, out in enumerate(rows):
        out[f"{cond.lower()}_rate"] = by_tau[s["windows.tau"]][m]
        if s["tau_sensitivity"]:
            out[f"{cond.lower()}_tau"] = {str(tv): by_tau[tv][m]
                                          for tv in s["tau_sensitivity"]}


def _msh_entries(res, margin):
    """The row entries of an MSH fit (`hyperbolicity.MshResult`): NaN
    slopes fail."""
    slopes = (res.ns_slope, res.nu_slope, res.domination_slope)
    return {"msh_slopes": slopes,
            "msh_fit_pass": all(slope <= -margin for slope in slopes),
            "msh_qualifying": res.n_qualifying}


def _entries(seqs, lpfs, conditions, s, spans=None):
    """Per member its row entries from its splitting sequence and, for
    NUSE and MSH-estimate, its LPF over the splitting blocks
    (`LPFCocycle.blocks(seq.grid)`), each functional run once over
    all members (see `hyperbolicity.Functionals`); `spans` are those of
    the domination and contraction fits (see `splitting.span_windows`)."""
    fns = Functionals(seqs, lpfs)
    rows = [{} for _ in seqs]
    if any(c in conditions for c in ("PH", "SingularHyp", "SH")):
        for out, (dom, con) in zip(rows, rate_fits(seqs, spans)):
            out["ph_pass"] = bool(dom.passed and con.passed)
            out["dom_slope"] = dom.slope
            out["con_slope"] = con.slope
    if any(c in conditions for c in ("SingularHyp", "SH")):
        for out, (sect, vol) in zip(rows, fns.sectional(_sect_window(s))):
            if "SingularHyp" in conditions:
                out["vol_rate"], out["vol_min"] = vol.rate, vol.min_rate
            if "SH" in conditions:
                out["sect_rate"], out["sect_min"] = sect.rate, sect.min_rate
    if "ASH" in conditions:
        for out, ash_max in zip(rows, fns.ash()):
            out["ash_max"] = ash_max
    if "MNUSE" in conditions:
        _rate_entries(rows, "MNUSE", {tau: fns.mnuse(tau) for tau in _taus(s)}, s)
    if "NNE" in conditions:
        for out, res in zip(rows, fns.nne()):
            out["nne_min"] = res.min_rate
    if "NUSE" in conditions:
        _rate_entries(rows, "NUSE", {tau: fns.nuse(tau) for tau in _taus(s)}, s)
    if "MSH-estimate" in conditions:
        fits = fns.msh(s["msh.radius"], _msh_avoid(s))
        for out, res in zip(rows, fits):
            out.update(_msh_entries(res, s["thresholds.margin"]))
    return rows


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
        # a member that overflows is named below, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            ics = batch_rk4(model, ics, dt, int(round(transient / dt)))
        bad = np.flatnonzero(~np.isfinite(ics).all(axis=1))
        if len(bad):
            raise Blowup(f"member {bad[0]} is not finite after the RK4 transient "
                         f"of {transient:g} (ensemble.transient)")
    span, ctrl = s["windows.T"] + 2 * s["splitting.warmup"], step_control(s)
    rows = []
    for lo in range(0, len(ics), ENSEMBLE_BATCH):
        rows.extend(_batch_rows(
            integrate_batch(model, ics[lo:lo + ENSEMBLE_BATCH], span, ctrl),
            conditions, s))
    return rows


def _batch_rows(members, conditions, s):
    """The rows of one `integrate_batch` run's members, in member order.

    Each member that integrated has its block factors formed and, for
    NUSE and MSH-estimate, its LPF over the same blocks
    (`LPFCocycle.blocks`), after which its per-step factors are released;
    then the splitting sweeps run stacked over all of them.  The members
    are then walked in order, and each raises at its turn its integration
    error, else its splitting error (a ShortOrbit as the ConfigError of
    `splitting.stride`), else its LPF error, else its `_check_windows`
    fault.  Only when none does do the functionals run, stacked over all
    members (`_entries`).  So the rows, and the exception raised first,
    are what a loop gives that runs `estimate_splitting`, `lpf_along`,
    `_check_windows` and the functionals one member at a time.
    """
    orbits = [m for m in members if not isinstance(m, Exception)]
    stride = s["splitting.stride"]
    lpf_read = any(c in conditions for c in ("NUSE", "MSH-estimate"))
    blocks, lpfs = [], []
    for orbit in orbits:
        blocks.append(block_factors(orbit, stride))
        try:
            lpfs.append(lpf_along(orbit).blocks(blocks[-1][0]) if lpf_read else None)
        except NearSingularity as exc:
            lpfs.append(exc)
        # nothing reads the per-step factors after this; kept, they raised
        # peak RSS on bench lorenz-verify from 44.7 to 47.5 MB and on
        # configs/lorenz_verify.json from 62.1 to 73.7 MB (2-core VM, one
        # BLAS thread)
        orbit.step_cocycles = None
    outcomes = iter(zip(splittings_of_blocks(orbits, blocks, s["splitting.d_s"],
                                             s["splitting.warmup"]), lpfs))
    seqs, cut = [], []
    for member in members:
        seq, lpf = (member, None) if isinstance(member, Exception) else next(outcomes)
        if isinstance(seq, ShortOrbit):
            raise ConfigError("splitting.stride",
                              f"{stride} leaves a member fewer than two checkpoints "
                              f"in windows.T {s['windows.T']:g} after warmup "
                              "trimming") from seq
        for fault in (seq, lpf):
            if isinstance(fault, Exception):
                raise fault
        _check_windows(seq, conditions, s)
        seqs.append(seq)
        if lpf_read:
            # the LPF cut to the checkpoints its splitting kept, from block
            # grid index k = seq.grid[0] // stride on (grid index k is
            # k * stride, save the last)
            (f, q), k = lpf, seq.grid[0] // stride
            cut.append((f[k:k + seq.n_blocks], q[k:k + len(seq)]))
    return _entries(seqs, cut, conditions, s)


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
    """Rows of a suspension ensemble and its diagnostics.  The section
    streams of every seed come first; then each seed's rows are read from
    them, one seed at a time (`_stream_rows`); then the streams are freed;
    then the PH sample's orbits and splittings fill in the structural
    fields of the sampled rows.  Each of the two seed loops raises a
    seed's faults at its turn (in the PH sample, its own failure before
    its config fault)."""
    size = s["ensemble.size"] or 200
    n_returns = s["windows.n_returns"]
    sect_window = s["windows.sect_window"] or 50.0 * model.roof_floor
    avoid = s["msh.avoid_window"] or 5.0 * model.roof_floor

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
    rows = _stream_rows(streams, is_probe, s, conditions, sect_window, avoid)
    clipped = streams.clipped
    # the PH sample's splittings need no stream; held through them, the
    # streams raised bench suspension-verify's peak RSS from 52.6 to 56.3 MB
    # (2-core VM, one BLAS thread)
    del streams

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
        warmup = 10.0 * model.roof_floor
        seqs = splittings_of_blocks(orbits, [block_factors(orbit, 1) for orbit in orbits],
                                    1, warmup)
        # a sampled seed too short for its fits is the config's fault
        for b, orbit, seq in zip(sample, orbits, seqs):
            if (isinstance(seq, (WarmupExceedsOrbit, ShortOrbit))
                    or (not isinstance(seq, Exception)
                        and not len(span_windows(seq.times, dom_spans, RATE_STARTS)[0]))):
                raise ConfigError("windows.n_returns",
                                  f"{ph_returns} returns give seed {b} a PH sample "
                                  f"orbit of span {orbit.t_span:.6g}, which leaves no "
                                  "domination window of 2 roof floors or more "
                                  "between its two warmups of 10 roof floors")
            if isinstance(seq, Exception):
                raise seq
        # every sampled member's fits, and its NNE when that is requested
        sample_conditions = ["PH"] + [c for c in conditions if c == "NNE"]
        for b, got in zip(sample, _entries(seqs, (), sample_conditions, s,
                                           spans=dom_spans)):
            rows[b].update(got)
    return rows, {"clipped_roof_crossings": clipped}


def _stream_rows(streams, is_probe, s, conditions, sect_window, avoid):
    """Each seed's SH, ASH, MSH-estimate, MNUSE and NUSE fields, read from
    the section streams one seed at a time.  At its turn a seed's orbit is
    checked against the longest tau window, and a seed whose MSH scan
    finds no fit window has `msh.avoid_window` checked."""
    tau_rated = [c for c in ("MNUSE", "NUSE") if c in conditions]
    rates = {"MNUSE": susp.mnuse_rate_stream, "NUSE": susp.nuse_rate_stream}
    by_tau = {cond: {tau: [] for tau in _taus(s)} for cond in tau_rated}
    longest, rows = max(_taus(s)), []
    for b in range(streams.n_seeds):
        if tau_rated and (span := streams.seed(b).times[-1]) <= longest:
            raise ConfigError("windows.n_returns",
                              f"{streams.n_returns} returns leave seed {b} an "
                              f"orbit of span {span:.6g}, no longer than the "
                              f"longest tau window {longest:g} (windows.tau, "
                              "tau_sensitivity)")
        out = {"probe": bool(is_probe[b])}
        if any(c in conditions for c in ("SingularHyp", "SH")):
            mean_r, min_r, max_r = susp.sectional_rate_stream(streams, b, sect_window)
            out["sect_rate"], out["sect_min"], out["sect_max"] = mean_r, min_r, max_r
            out["vol_rate"], out["vol_min"] = mean_r, min_r
        if "ASH" in conditions:
            out["ash_max"] = susp.ash_running_max(streams, b)
        if "MSH-estimate" in conditions:
            out.update(_suspension_msh_row(streams, b, s["msh.radius"], avoid,
                                           s["thresholds.margin"]))
            if np.isnan(out["msh_slopes"][0]):
                # no fit window on this orbit: the config's fault if there
                # would be none even where every sample is clear
                t = streams.seed(b).times
                _check_msh_window(t, np.arange(len(t)), avoid)
        for cond in tau_rated:
            for tau, got in by_tau[cond].items():
                got.append(rates[cond](streams, b, tau))
        rows.append(out)
    for cond in tau_rated:
        _rate_entries(rows, cond, by_tau[cond], s)
    return rows


def _suspension_msh_row(streams, b, radius, avoid, margin):
    """Restricted-LPF decay fits away from the singular line, from the
    scalar streams (N^s is the fiber direction, N^u the center-unstable
    trace in the section)."""
    st = streams.seed(b)
    t, s_ns, s_nu = st.times, st.cum_gy, st.cum_a
    n_qual, k0, k1 = msh_windows(t, np.abs(st.x), np.arange(len(t)), radius, avoid)
    return _msh_entries(msh_fit(t[k1] - t[k0], s_ns[k1] - s_ns[k0],
                                -(s_nu[k1] - s_nu[k0]), n_qual), margin)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

# per condition: the row key carrying its data; its threshold, as a
# thresholds.* setting and a sign; how a row's value meets it (None: the
# key is the row's own pass flag); and, for a positive-measure condition,
# the thresholds.* setting of the fraction of random rows that must meet
# it (None: a uniform condition, which every row must meet)
_RULES = {
    "PH": ("ph_pass", "thresholds.margin", -1, None, None),
    "SingularHyp": ("vol_min", "thresholds.margin", 1, operator.ge, None),
    "SH": ("sect_min", "thresholds.margin", 1, operator.ge, None),
    "NNE": ("nne_min", "thresholds.margin", -1, operator.ge, None),
    "MSH-estimate": ("msh_fit_pass", "thresholds.margin", -1, None, None),
    "NUSH-periodic": ("passed", "thresholds.eta", 1, None, None),
    "ASH": ("ash_max", "thresholds.margin", 1, operator.ge, "thresholds.ash_fraction"),
    "MNUSE": ("mnuse_rate", "thresholds.eta", 1, operator.le, "thresholds.min_fraction"),
    "NUSE": ("nuse_rate", "thresholds.eta", 1, operator.le, "thresholds.min_fraction"),
}
_NO_DATA = {"PH": "no PH data"}


def _aggregate(condition, rows, s, sing_analyses, window):
    """One condition's verdict over the rows by its `_RULES` entry: a
    uniform condition passes when every row meets its threshold, a
    positive-measure one when the fraction of random rows that meet it
    reaches the required one; either way its gate (`_terms`) must hold.
    A pool with no row carrying the key is inconclusive."""
    key, setting, sign, meets, required = _RULES[condition]
    threshold = sign * s[setting]
    pool = rows if required is None else [r for r in rows if not r.get("probe", False)]
    have = [r for r in pool if key in r]
    if not have:
        return ConditionVerdict(condition, window, np.nan, 0.0, threshold, "inconclusive",
                                {"reason": _NO_DATA.get(condition, "no data")})
    holds = [r[key] if meets is None else meets(r[key], threshold) for r in have]
    fraction = float(np.mean(holds))
    rate, gate, details = _terms(condition, have, holds, rows, s, sing_analyses)
    if required is None:
        ok = all(holds)
    else:
        ok = fraction >= s[required]
        details = {f"{required.removeprefix('thresholds.')}_required": s[required],
                   **details}
    return ConditionVerdict(condition, window, float(rate), fraction, threshold,
                            "pass" if ok and gate else "fail", details)


def _terms(condition, have, holds, rows, s, sing_analyses):
    """A condition's rate, its gate (what must hold besides its rule) and
    its details, from the rows `have` that carry its key and whether each
    meets its threshold (`holds`); `rows` are all of the ensemble's."""
    key = _RULES[condition][0]
    if condition == "PH":
        return (max(max(r["dom_slope"], r["con_slope"]) for r in have), True,
                {"n_checked": len(have)})
    if condition in ("SingularHyp", "SH"):
        # the dominated splitting: some row carries it, and every one passes
        ph = [r["ph_pass"] for r in rows if "ph_pass" in r]
        ph_ok = bool(ph) and all(ph)
        return (np.median([r[key.replace("min", "rate")] for r in have]), ph_ok,
                {"uniform_min": min(r[key] for r in have), "ph_component": ph_ok,
                 "n_checked_ph": len(ph)})
    if condition == "ASH":
        return (np.median([r[key] for r in have]), True,
                {"note": "evaluated on Lebesgue-random seeds; "
                         "zero-volume probe orbits excluded"})
    if condition in ("MNUSE", "NUSE"):
        rate = np.median([r[key] for r in have])
        details = {"positive_measure_proxy": any(holds)}
        tau_key = key.replace("rate", "tau")
        sens = [r[tau_key] for r in have if tau_key in r]
        if sens:
            details["tau_sensitivity"] = {tv: float(np.median([d[tv] for d in sens]))
                                          for tv in sorted(sens[0], key=float)}
        return rate, rate <= s["thresholds.eta"], details
    if condition == "NNE":
        return (min(r[key] for r in have), True,
                {"interpretation": "wedge of the pushed direction with the pushed "
                                   "flow direction, normalized by the flow growth"})
    if condition == "NUSH-periodic":
        return (max(max(r["e_average"], r["wedge_average"]) for r in have), True,
                {"orbits": have})
    # MSH-estimate: the one check that each singularity is Lorenz-like
    # with the configured stable dimension
    sing = {}
    for idx, sa in enumerate(sing_analyses):
        ok = bool(sa.lorenz_like) and (sa.splitting_dims is None
                                       or sa.splitting_dims[0] == s["splitting.d_s"])
        sing[f"sing_{idx}"] = {"lorenz_like": sa.lorenz_like, "dims_ok": ok}
    sing_ok = all(d["dims_ok"] for d in sing.values())
    slopes = [r["msh_slopes"] for r in have if np.isfinite(r["msh_slopes"][0])]
    rate = max(max(sl[0], sl[1]) for sl in slopes) if slopes else np.nan
    return rate, sing_ok, {"lpf_fits_pass": all(holds), "singularities_ok": sing_ok,
                           **sing}


def assemble_report(model, config: dict) -> dict:
    """Run the configured ensemble and aggregate ConditionVerdicts.

    Returns the report dictionary (JSON-serializable): model identity,
    seed, per-condition verdicts, singularity classifications, and the
    config hash for provenance.  Suspension reports add a `diagnostics`
    block counting the crossings whose roof argument was clipped.
    """
    s = settings(config, REPORT_TABLE)
    conditions = list(s["conditions"] or ())
    if not conditions:
        raise ConfigError("conditions", "must name at least one condition")
    window = float(s["windows.T"])
    sing_analyses = []
    diagnostics = None
    if not isinstance(model, (VectorFieldModel, SuspensionModel)):
        raise ConfigError("model", "verify requires a flow or suspension model")
    if "NUSH-periodic" in conditions:
        _check_periodic_seeds(model, s["periodic_seeds"])
    if isinstance(model, VectorFieldModel):
        reject_set(config, _FLOW_UNREAD,
                   "a flow ensemble does not read it: its window is windows.T "
                   "and every member gets its own splitting")
        for sigma in model.singularities:
            sing_analyses.append(classify_singularity(model, sigma, arc_budget=200.0))
        rows = _ode_ensemble(model, s, conditions)
    else:
        reject_set(config, _SUSPENSION_UNREAD,
                   "a suspension ensemble does not read it: its seeds come "
                   "from the section square, its window is windows.n_returns "
                   "and its splittings have d_s = 1")
        rows, diagnostics = _suspension_ensemble(model, s, conditions)
        window = float(s["windows.n_returns"])

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


def _check_periodic_seeds(model, seeds):
    """Raise ConfigError on a `periodic_seeds` entry the model cannot run:
    a point of the wrong length, a flow period whose largest step (a
    span / 8) is below the step floor, or a period on a suspension seed."""
    suspension = isinstance(model, SuspensionModel)
    dim = 2 if suspension else model.dim
    floor = 8 * StepControl().min_step_floor
    for i, seed in enumerate(seeds):
        if len(seed["point"]) != dim:
            fault = f"its point must have {dim} entries, " + (
                "a section point" if suspension else "one per dimension")
        elif suspension and "period" in seed:
            fault = "a suspension seed sets no period: it is the roof at the point"
        elif not suspension and seed.get("period", 1.0) < floor:
            fault = (f"its period {seed['period']:g} is below {floor:g}, the "
                     "shortest span an integration takes")
        else:
            continue
        raise ConfigError("periodic_seeds", f"seed {i}: {fault}")


def _periodic_verdict(model, s):
    eta, tau, d_s = s["thresholds.eta"], s["windows.tau"], s["splitting.d_s"]
    seeds = s["periodic_seeds"]
    if not seeds and isinstance(model, SuspensionModel):
        seeds = [{"point": list(p), "period": None}
                 for p in _suspension_probes(model)]
    if not seeds:
        return ConditionVerdict("NUSH-periodic", 0.0, np.nan, 0.0, eta,
                                "inconclusive", {"reason": "no periodic seeds"})
    rows = []
    for seed in seeds:
        if isinstance(model, SuspensionModel):
            res = _suspension_periodic(model, seed["point"], tau, eta)
        else:
            res = nush_periodic_check(model, seed["point"],
                                      seed.get("period", 1.0),
                                      tau=tau, d_s=d_s, eta=eta)
        rows.append({"point": [float(v) for v in np.atleast_1d(res.point)],
                     "period": res.period, "e_average": res.e_average,
                     "wedge_average": res.wedge_average, "passed": res.passed})
    return _aggregate("NUSH-periodic", rows, s, (), tau)


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
