"""Batch command-line interface.

One JSON config drives everything; flags only select the config file,
output directory, verbosity, and a seed override (the SECHYP_SEED
environment variable takes precedence over the config seed as well).
Every artifact embeds the config hash and toolkit version so reruns are
byte-identical and self-describing.

Exit codes: 0 success / all conditions pass, 1 some condition failed,
2 invalid configuration, 3 some condition inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, SechypError
from .flowcalc import StepControl, integrate, orbit_to_csv, save_orbit_cache
from .hyperbolicity import classify_singularity
from .measures import (basin_sample, birkhoff_map, empirical_measure,
                       histogram_to_csv, ks_statistic, map_pushforward,
                       benettin_spectrum, pesin_check_1d, series_to_csv,
                       tv_distance, uniform_cdf)
from .models import (IntervalMap, SuspensionModel, VectorFieldModel,
                     iterate_interval_map, load_model)
from .report import assemble_report, config_hash

_KNOWN_MODELS = ("lorenz", "linear_saddle", "linear", "polynomial",
                 "intermittent_lorenz", "expanding_lorenz", "geometric_lorenz")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    """Validate field presence, names, and numeric ranges."""
    _require(isinstance(cfg, dict), "config", "top level must be an object")
    model = cfg.get("model")
    _require(isinstance(model, str), "model", "model name is required")
    _require(model in _KNOWN_MODELS, "model",
             f"unknown model '{model}'; known: {', '.join(_KNOWN_MODELS)}")
    if "seed" in cfg:
        _require(isinstance(cfg["seed"], int) and cfg["seed"] >= 0,
                 "seed", "must be a nonnegative integer")
    tol = _section(cfg, "tolerances", "tolerances")
    for key, lo, hi in (("rtol", 1e-13, 1e-2), ("atol", 1e-16, 1e-2),
                        ("bound", 1.0, 1e12)):
        if key in tol:
            _require(_is_number(tol[key]) and lo <= tol[key] <= hi,
                     f"tolerances.{key}", f"must be a number in [{lo:g}, {hi:g}]")
    ver = _section(cfg, "verify", "verify")
    for key in ("ensemble", "windows", "thresholds", "splitting", "msh",
                "tolerances"):
        _section(ver, key, f"verify.{key}")
    if "conditions" in ver:
        from .report import KNOWN_CONDITIONS
        for c in ver["conditions"]:
            _require(c in KNOWN_CONDITIONS, "verify.conditions",
                     f"unknown condition '{c}'; known: {', '.join(KNOWN_CONDITIONS)}")
    ens = ver.get("ensemble", {})
    if "size" in ens:
        _require(isinstance(ens["size"], int) and 1 <= ens["size"] <= 100000,
                 "verify.ensemble.size", "must be an integer in [1, 100000]")
    if "workers" in ens:
        _require(isinstance(ens["workers"], int) and 1 <= ens["workers"] <= 256,
                 "verify.ensemble.workers", "must be an integer in [1, 256]")
    win = ver.get("windows", {})
    for key in ("T", "tau"):
        if key in win:
            _require(_is_number(win[key]) and win[key] > 0,
                     f"verify.windows.{key}", "must be a positive number")
    if "n_returns" in win:
        _require(isinstance(win["n_returns"], int) and win["n_returns"] >= 10,
                 "verify.windows.n_returns", "must be an integer >= 10")
    thr = ver.get("thresholds", {})
    if "eta" in thr:
        _require(_is_number(thr["eta"]) and thr["eta"] < 0,
                 "verify.thresholds.eta", "must be a negative number")
    sim = _section(cfg, "simulate", "simulate")
    if "n_returns" in sim:
        _require(_is_int(sim["n_returns"]) and sim["n_returns"] >= 1,
                 "simulate.n_returns", "must be an integer >= 1")
    if sim.get("section") is not None:
        _validate_section(sim["section"])
    return cfg


def _section(parent, key, field):
    """parent[key] ({} when absent), which must be a JSON object."""
    sec = parent.get(key, {})
    _require(isinstance(sec, dict), field, "must be an object")
    return sec


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    """A JSON number that is finite as a float (NaN fails the comparison)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_vector(v):
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _validate_section(spec):
    """A section is the literal "suspension-canonical" or an affine plane
    {point, normal[, orientation]}; its dimension is checked against the
    model's when the model is loaded."""
    if spec == "suspension-canonical":
        return
    _require(isinstance(spec, dict) and "point" in spec and "normal" in spec,
             "simulate.section",
             'expected {"point": [...], "normal": [...]} or '
             '"suspension-canonical"')
    for key in ("point", "normal"):
        _require(_is_vector(spec[key]), f"simulate.section.{key}",
                 "must be a nonempty list of finite numbers")
    _require(len(spec["point"]) == len(spec["normal"]), "simulate.section",
             "point and normal must have the same length")
    _require(any(c != 0 for c in spec["normal"]), "simulate.section.normal",
             "must be a nonzero vector")
    if "orientation" in spec:
        _require(_is_int(spec["orientation"]) and spec["orientation"] in (-1, 1),
                 "simulate.section.orientation", "must be 1 or -1")


def _effective_seed(cfg, override):
    env = os.environ.get("SECHYP_SEED")
    if override is not None:
        return int(override)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("SECHYP_SEED", f"not an integer: {env!r}")
    return int(cfg.get("seed", 20250808))


def _step_ctrl(cfg):
    tol = cfg.get("tolerances", {})
    return StepControl(
        rtol=float(tol.get("rtol", 1e-9)),
        atol=float(tol.get("atol", 1e-12)),
        bound=float(tol.get("bound", 1e6)),
    )


def _out_dir(cfg, args):
    out = Path(args.output_dir or cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(cfg):
    return f"sechyp v{__version__} config={config_hash(cfg)}"


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_simulate(cfg, args):
    model = load_model(cfg["model"], cfg.get("params"))
    sim = cfg.get("simulate", {})
    seed = _effective_seed(cfg, args.seed)
    out = _out_dir(cfg, args)

    if isinstance(model, (IntervalMap,)):
        n = int(sim.get("n", 10000))
        rng = np.random.default_rng(seed)
        x0 = float(sim.get("x0", rng.uniform(*model.domain)))
        orbit = iterate_interval_map(model, x0, n)
        path = out / f"{cfg['model']}_orbit.csv"
        with open(path, "w") as fh:
            fh.write(f"# {_stamp(cfg)}\n")
            fh.write("n,x\n")
            for i, v in enumerate(orbit):
                fh.write(f"{i},{v:.17g}\n")
        if args.verbose:
            print(f"wrote {path}", file=sys.stderr)
        return 0

    if sim.get("section") is not None:
        return _simulate_returns(model, cfg, sim, seed, out, args)

    if isinstance(model, SuspensionModel):
        from .suspension import suspension_orbit
        rng = np.random.default_rng(seed)
        xy0 = sim.get("x0") or [float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))]
        orbit = suspension_orbit(model, xy0, int(sim.get("n_returns", 1000)))
    else:
        t_span = float(sim.get("t_span", 50.0))
        rng = np.random.default_rng(seed)
        if sim.get("x0") is not None:
            x0 = np.asarray(sim["x0"], dtype=float)
        else:
            box = model.trapping_region
            _require(box is not None, "simulate.x0",
                     "model has no trapping region; x0 is required")
            x0 = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(model.dim)
        orbit = integrate(model, x0, t_span, _step_ctrl(cfg))

    path = out / f"{cfg['model']}_orbit.csv"
    orbit_to_csv(orbit, path, header_comment=_stamp(cfg))
    if "cache" in sim.get("formats", []):
        save_orbit_cache(orbit, out / f"{cfg['model']}_orbit.sechyp")
    if args.verbose:
        print(f"wrote {path} ({orbit.n_steps} steps)", file=sys.stderr)
    return 0


def _simulate_returns(model, cfg, sim, seed, out, args):
    """Return-map crossings: section spec {point, normal} or the literal
    "suspension-canonical"."""
    from .lpf import SectionSpec, return_map

    spec = sim["section"]
    if spec == "suspension-canonical":
        _require(isinstance(model, SuspensionModel), "simulate.section",
                 "suspension-canonical requires a suspension model")
        section = spec
    else:
        _require(not isinstance(model, SuspensionModel), "simulate.section",
                 'a suspension model needs "suspension-canonical"')
        _require(len(spec["point"]) == model.dim, "simulate.section",
                 f"point and normal must have length {model.dim}")
        section = SectionSpec(point=np.asarray(spec["point"], dtype=float),
                              normal=np.asarray(spec["normal"], dtype=float),
                              orientation=int(spec.get("orientation", 1)))
    rng = np.random.default_rng(seed)
    if sim.get("x0") is not None:
        x0 = np.asarray(sim["x0"], dtype=float)
    elif isinstance(model, SuspensionModel):
        x0 = np.array([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))])
    else:
        box = model.trapping_region
        _require(box is not None, "simulate.x0",
                 "model has no trapping region; x0 is required")
        x0 = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(model.dim)
    res = return_map(model, section, x0, int(sim.get("n_returns", 100)),
                     step_ctrl=None if isinstance(model, SuspensionModel)
                     else _step_ctrl(cfg))
    path = out / f"{cfg['model']}_returns.csv"
    with open(path, "w") as fh:
        fh.write(f"# {_stamp(cfg)}\n")
        dim = len(res.points[0])
        fh.write("t," + ",".join(f"p{i}" for i in range(dim)) + "\n")
        for t, p in zip(res.times, res.points):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in p) + "\n")
    if args.verbose:
        print(f"wrote {path} ({len(res.points)} crossings)", file=sys.stderr)
    return 0


def cmd_spectrum(cfg, args):
    model = load_model(cfg["model"], cfg.get("params"))
    _require(isinstance(model, VectorFieldModel), "model",
             "spectrum requires a vector-field model")
    spec = cfg.get("spectrum", {})
    seed = _effective_seed(cfg, args.seed)
    out = _out_dir(cfg, args)
    rng = np.random.default_rng(seed)
    if spec.get("x0") is not None:
        x0 = np.asarray(spec["x0"], dtype=float)
    else:
        box = model.trapping_region
        _require(box is not None, "spectrum.x0",
                 "model has no trapping region; x0 is required")
        x0 = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(model.dim)
    t_span = float(spec.get("T", 500.0))
    warmup = float(spec.get("warmup", min(20.0, t_span / 10.0)))
    k = int(spec.get("k", model.dim))
    orbit = integrate(model, x0, t_span, _step_ctrl(cfg))
    est = benettin_spectrum(orbit, k, warmup=warmup)
    payload = {
        "stamp": _stamp(cfg),
        "model": model.name,
        "params": {k_: v for k_, v in model.params.items() if k_ != "table"},
        "seed": seed,
        "x0": [float(v) for v in x0],
        "window": est.window,
        "exponents": [float(v) for v in est.exponents],
        "half_widths": [float(v) for v in est.half_widths],
        "sum": float(np.sum(est.exponents)),
        "divergence_average": est.divergence_average,
        "sum_half_width": est.sum_half_width,
    }
    path = out / f"{cfg['model']}_spectrum.json"
    _write_json(path, payload)
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    print(json.dumps(payload["exponents"]))
    return 0


def cmd_classify(cfg, args):
    model = load_model(cfg["model"], cfg.get("params"))
    _require(isinstance(model, VectorFieldModel), "model",
             "classify requires a vector-field model")
    out = _out_dir(cfg, args)
    budget = float(cfg.get("classify", {}).get("arc_budget", 1e3))
    records = []
    for s in model.singularities:
        sa = classify_singularity(model, s, arc_budget=budget,
                                  step_ctrl=_step_ctrl(cfg))
        records.append(sa.as_dict())
    payload = {
        "stamp": _stamp(cfg),
        "model": model.name,
        "params": {k: v for k, v in model.params.items() if k != "table"},
        "singularities": records,
    }
    path = out / f"{cfg['model']}_classify.json"
    _write_json(path, payload)
    print(json.dumps([r["lorenz_like"] for r in records]))
    return 0


def cmd_verify(cfg, args):
    model = load_model(cfg["model"], cfg.get("params"))
    ver = dict(cfg.get("verify", {}))
    ver.setdefault("conditions", ["SH", "MNUSE"])
    ver.setdefault("tau_sensitivity", [0.5, 1.0, 2.0])
    ver["seed"] = _effective_seed(cfg, args.seed)
    if "tolerances" in cfg and "tolerances" not in ver:
        ver["tolerances"] = cfg["tolerances"]
    out = _out_dir(cfg, args)
    report = assemble_report(model, ver)
    report["stamp"] = _stamp(cfg)
    path = out / f"{cfg['model']}_report.json"
    _write_json(path, report)
    for c in report["conditions"]:
        print(f"{c['condition']:>14s}: {c['verdict']:<12s} rate={c['rate']:+.4f} "
              f"fraction={c['fraction']:.3f}")
    return exit_code_for(report)


def exit_code_for(report) -> int:
    verdicts = [c["verdict"] for c in report["conditions"]]
    if any(v == "fail" for v in verdicts):
        return 1
    if any(v == "inconclusive" for v in verdicts):
        return 3
    return 0


def cmd_measure(cfg, args):
    model = load_model(cfg["model"], cfg.get("params"))
    mea = cfg.get("measure", {})
    kind = mea.get("kind", "invariance")
    seed = _effective_seed(cfg, args.seed)
    out = _out_dir(cfg, args)
    rng = np.random.default_rng(seed)
    payload = {"stamp": _stamp(cfg), "model": model.name, "kind": kind,
               "seed": seed}

    if kind == "invariance":
        _require(isinstance(model, IntervalMap), "measure.kind",
                 "invariance applies to interval maps")
        n = int(mea.get("n", 10 ** 6))
        lo, hi = model.domain
        samples = rng.uniform(lo, hi, n)
        pushed = map_pushforward(model, samples)
        ks = ks_statistic(pushed, uniform_cdf(lo, hi))
        hist = empirical_measure(pushed, bins=int(mea.get("bins", 64)),
                                 support=(lo, hi))
        histogram_to_csv(hist, out / f"{cfg['model']}_pushforward_hist.csv",
                         header_comment=_stamp(cfg))
        payload.update({"n": n, "ks_statistic": ks})
    elif kind == "birkhoff":
        _require(isinstance(model, IntervalMap), "measure.kind",
                 "birkhoff measure runs on interval maps")
        n = int(mea.get("n", 10 ** 6))
        x0 = float(mea.get("x0", rng.uniform(*model.domain)))
        series = birkhoff_map(model,
                              lambda x: np.log(abs(model.derivative(x))),
                              x0, n, name="log_derivative")
        series_to_csv(series, out / f"{cfg['model']}_birkhoff.csv",
                      header_comment=_stamp(cfg))
        payload.update({"n": n, "x0": x0, "average": series.final,
                        "oscillation": series.oscillation})
    elif kind == "histogram":
        _require(isinstance(model, IntervalMap), "measure.kind",
                 "histogram runs on interval maps")
        n = int(mea.get("n", 10 ** 6))
        x0 = float(mea.get("x0", rng.uniform(*model.domain)))
        orbit = iterate_interval_map(model, x0, n)
        half = n // 2
        lo, hi = model.domain
        bins = int(mea.get("bins", 32))
        h1 = empirical_measure(orbit[:half], bins=bins, support=(lo, hi))
        h2 = empirical_measure(orbit[half:], bins=bins, support=(lo, hi))
        full = empirical_measure(orbit, bins=bins, support=(lo, hi))
        histogram_to_csv(full, out / f"{cfg['model']}_hist.csv",
                         header_comment=_stamp(cfg))
        payload.update({"n": n, "x0": x0,
                        "tv_between_halves": tv_distance(h1, h2)})
    elif kind == "basin":
        _require(isinstance(model, VectorFieldModel), "measure.kind",
                 "basin sampling requires a vector-field model")
        grid_n = mea.get("grid", [6, 6, 6])
        box = model.trapping_region
        _require(box is not None, "measure.grid", "model has no trapping region")
        axes = [np.linspace(box[i, 0], box[i, 1], int(grid_n[i]))
                for i in range(model.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.column_stack([m.ravel() for m in mesh])
        ref = mea.get("reference")
        if ref is None:
            long_run = basin_sample(model, np.zeros(model.dim),
                                    grid_states=grid[:1],
                                    T=float(mea.get("ref_T", 400.0)),
                                    dt=float(mea.get("dt", 0.02)),
                                    transient=float(mea.get("transient", 50.0)))
            ref = long_run.averages[0]
        res = basin_sample(model, ref, grid,
                           T=float(mea.get("T", 40.0)),
                           dt=float(mea.get("dt", 0.02)),
                           tol=float(mea.get("tol", 0.05)),
                           transient=float(mea.get("transient", 10.0)))
        payload.update({"fraction": res.fraction,
                        "reference": [float(v) for v in res.reference],
                        "tolerance": res.tolerance,
                        "grid_points": int(grid.shape[0])})
    elif kind == "pesin":
        _require(isinstance(model, SuspensionModel), "measure.kind",
                 "pesin chain requires a suspension model")
        rep = pesin_check_1d(model.section_map.base, model,
                             n=int(mea.get("n", 10 ** 5)), seed=seed)
        payload.update({
            "h_base": rep.h_base, "mean_roof": rep.mean_roof,
            "quotient": rep.quotient, "flow_side": rep.flow_side,
            "truncation_bound": rep.truncation_bound,
            "chain_ok": rep.chain_ok,
        })
    else:
        raise ConfigError("measure.kind", f"unknown measurement '{kind}'")

    path = out / f"{cfg['model']}_measure_{kind}.json"
    _write_json(path, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_report(args):
    try:
        with open(args.input) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2
    print(f"model: {report.get('model')}  seed: {report.get('seed')}  "
          f"version: {report.get('toolkit_version')}")
    for c in report.get("conditions", []):
        print(f"{c['condition']:>14s}: {c['verdict']:<12s} rate={c['rate']:+.4f} "
              f"fraction={c['fraction']:.3f} window={c['window']}")
    return exit_code_for(report)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sechyp",
        description="Finite-time hyperbolicity certificates and SRB statistics "
                    "for singular flows (batch, config-driven).",
    )
    parser.add_argument("--version", action="version",
                        version=f"sechyp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", "-c", required=True, help="JSON config file")
        p.add_argument("--output-dir", "-o", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--verbose", "-v", action="store_true")

    for name, help_text in (
        ("simulate", "integrate orbits and dump CSV/binary caches"),
        ("spectrum", "Lyapunov spectrum of one orbit"),
        ("classify", "classify the model's equilibria"),
        ("verify", "evaluate hyperbolicity conditions over an ensemble"),
        ("measure", "invariant-measure statistics"),
    ):
        add_common(sub.add_parser(name, help=help_text))

    rep = sub.add_parser("report", help="pretty-print a saved report JSON")
    rep.add_argument("--input", "-i", required=True)

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args)

    try:
        cfg = load_config(args.config)
        handler = {
            "simulate": cmd_simulate,
            "spectrum": cmd_spectrum,
            "classify": cmd_classify,
            "verify": cmd_verify,
            "measure": cmd_measure,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SechypError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
