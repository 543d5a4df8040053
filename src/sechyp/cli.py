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
from .config import (REPORT_TABLE, TABLE, load_config, reject_set, settings,
                     step_control)
from .errors import ConfigError, SechypError
from .flowcalc import integrate, orbit_to_csv, save_orbit_cache
from .hyperbolicity import classify_singularity
from .lpf import SectionSpec, return_map
from .measures import (basin_sample, birkhoff_map, empirical_measure,
                       flow_spectrum, histogram_to_csv, ks_statistic,
                       map_pushforward, pesin_check_1d, series_to_csv,
                       tv_distance, uniform_cdf)
from .models import (IntervalMap, SuspensionModel, VectorFieldModel,
                     iterate_interval_map, load_model)
from .report import assemble_report, config_hash
from .suspension import suspension_orbit


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def _setup(cfg):
    """The model of a validated config, and the config's table-filled settings."""
    c = settings(cfg)
    return load_model(c["model"], c["params"]), c


def _effective_seed(c, override):
    """--seed, else SECHYP_SEED, else the config seed."""
    env = os.environ.get("SECHYP_SEED")
    if override is not None:
        field, seed = "--seed", override
    elif env is not None:
        field = "SECHYP_SEED"
        seed = int(env) if env.strip().removeprefix("-").isdecimal() else env
    else:
        return c["seed"]
    message = TABLE["seed"][0](seed)
    _require(message is None, field, message)
    return seed


def _initial_state(model, x0, field, seed):
    """The configured x0, else a seeded draw from the domain of an
    interval map, the section square of a suspension or the trapping
    region of a flow."""
    if x0 is not None:
        shape = () if isinstance(model, IntervalMap) else (
            (2,) if isinstance(model, SuspensionModel) else (model.dim,))
        _require(np.shape(x0) == shape, field,
                 f"must have shape {shape} for this model")
        return np.asarray(x0, dtype=float) if shape else float(x0)
    rng = np.random.default_rng(seed)
    if isinstance(model, IntervalMap):
        return float(rng.uniform(*model.domain))
    if isinstance(model, SuspensionModel):
        return np.array([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))])
    box = model.trapping_region
    _require(box is not None, field, "model has no trapping region; x0 is required")
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(model.dim)


def _out_dir(c, args):
    out = Path(args.output_dir or c["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stamp(cfg):
    return f"sechyp v{__version__} config={config_hash(cfg)}"


def _write_rows(path, cfg, header, rows):
    """CSV of numbers at full precision under a stamp line and a header."""
    with open(path, "w") as fh:
        fh.write(f"# {_stamp(cfg)}\n{header}\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

# simulate keys that an interval map does not read: it iterates n times
_MAP_UNREAD = ("simulate.section", "simulate.t_span", "simulate.n_returns",
               "simulate.formats")


def cmd_simulate(cfg, args):
    model, c = _setup(cfg)
    if isinstance(model, IntervalMap):
        reject_set(cfg, _MAP_UNREAD, "an interval map does not read it: "
                                     "simulate writes its first n iterates")
    else:
        reject_set(cfg, ("simulate.n",), "only an interval map reads it: a flow "
                                         "runs for t_span, a return map or a "
                                         "suspension for n_returns")
    section = _return_section(model, c)
    if section is not None:
        reject_set(cfg, ("simulate.t_span", "simulate.formats"),
                   "simulate with a section does not read it: it writes "
                   "n_returns crossings to a CSV")
    elif isinstance(model, SuspensionModel):
        reject_set(cfg, ("simulate.t_span",), "a suspension does not read it: "
                                              "simulate runs it for n_returns")
    elif not isinstance(model, IntervalMap):
        reject_set(cfg, ("simulate.n_returns",), "a flow without a section does "
                                                 "not read it: simulate runs it "
                                                 "for t_span")
    seed = _effective_seed(c, args.seed)
    x0 = _initial_state(model, c["simulate.x0"], "simulate.x0", seed)
    out = _out_dir(c, args)
    if isinstance(model, IntervalMap):
        path = out / f"{c['model']}_orbit.csv"
        _write_rows(path, cfg, "n,x",
                    enumerate(iterate_interval_map(model, x0, c["simulate.n"])))
    elif section is not None:
        res = return_map(model, section, x0, c["simulate.n_returns"] or 100,
                         step_ctrl=None if isinstance(model, SuspensionModel)
                         else step_control(c))
        path = out / f"{c['model']}_returns.csv"
        header = "t," + ",".join(f"p{i}" for i in range(len(res.points[0])))
        _write_rows(path, cfg, header,
                    ((t, *p) for t, p in zip(res.times, res.points)))
    else:
        if isinstance(model, SuspensionModel):
            orbit = suspension_orbit(model, x0, c["simulate.n_returns"] or 1000)
        else:
            orbit = integrate(model, x0, float(c["simulate.t_span"]),
                              step_control(c))
        path = out / f"{c['model']}_orbit.csv"
        orbit_to_csv(orbit, path, header_comment=_stamp(cfg))
        if "cache" in c["simulate.formats"]:
            save_orbit_cache(orbit, out / f"{c['model']}_orbit.sechyp")
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _return_section(model, c):
    """The return-map section of a flow or suspension, checked against the
    model: the literal "suspension-canonical" or a plane {point, normal}."""
    spec = c["simulate.section"]
    if spec is None or isinstance(model, IntervalMap):
        return None
    if spec == "suspension-canonical":
        _require(isinstance(model, SuspensionModel), "simulate.section",
                 "suspension-canonical requires a suspension model")
        return spec
    _require(not isinstance(model, SuspensionModel), "simulate.section",
             'a suspension model needs "suspension-canonical"')
    point, normal = c["simulate.section.point"], c["simulate.section.normal"]
    _require(len(point) == len(normal) == model.dim, "simulate.section",
             f"point and normal must have length {model.dim}")
    return SectionSpec(point=np.asarray(point, dtype=float),
                       normal=np.asarray(normal, dtype=float),
                       orientation=c["simulate.section.orientation"])


def cmd_spectrum(cfg, args):
    model, c = _setup(cfg)
    _require(isinstance(model, VectorFieldModel), "model",
             "spectrum requires a vector-field model")
    k = c["spectrum.k"] or model.dim
    _require(k <= model.dim, "spectrum.k",
             f"must be at most the model dimension {model.dim}")
    seed = _effective_seed(c, args.seed)
    x0 = _initial_state(model, c["spectrum.x0"], "spectrum.x0", seed)
    t_span = float(c["spectrum.T"])
    warmup = c["spectrum.warmup"]
    warmup = float(min(20.0, t_span / 10.0) if warmup is None else warmup)
    _require(warmup < t_span, "spectrum.warmup",
             f"must be less than spectrum.T ({t_span:g})")
    est = flow_spectrum(model, x0, t_span, k, warmup, step_control(c))
    out = _out_dir(c, args)
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
    path = out / f"{c['model']}_spectrum.json"
    _write_json(path, payload)
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    print(json.dumps(payload["exponents"]))
    return 0


def cmd_classify(cfg, args):
    model, c = _setup(cfg)
    _require(isinstance(model, VectorFieldModel), "model",
             "classify requires a vector-field model")
    out = _out_dir(c, args)
    budget, ctrl = float(c["classify.arc_budget"]), step_control(c)
    records = [classify_singularity(model, sigma, arc_budget=budget,
                                    step_ctrl=ctrl).as_dict()
               for sigma in model.singularities]
    payload = {
        "stamp": _stamp(cfg),
        "model": model.name,
        "params": {k: v for k, v in model.params.items() if k != "table"},
        "singularities": records,
    }
    path = out / f"{c['model']}_classify.json"
    _write_json(path, payload)
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    print(json.dumps([r["lorenz_like"] for r in records]))
    return 0


def cmd_verify(cfg, args):
    model, c = _setup(cfg)
    # the report's config hash is taken over this dict, as the user wrote
    # it plus these command defaults, the seed and inherited tolerances
    ver = dict(cfg.get("verify", {}))
    ver.setdefault("conditions", ["SH", "MNUSE"])
    ver.setdefault("tau_sensitivity", [0.5, 1.0, 2.0])
    ver["seed"] = _effective_seed(c, args.seed)
    if "tolerances" in cfg and "tolerances" not in ver:
        ver["tolerances"] = cfg["tolerances"]
    try:
        report = assemble_report(model, ver)
    except ConfigError as exc:
        if exc.field not in REPORT_TABLE:
            raise
        raise ConfigError(f"verify.{exc.field}", exc.message) from None
    report["stamp"] = _stamp(cfg)
    path = _out_dir(c, args) / f"{c['model']}_report.json"
    _write_json(path, report)
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
    for r in report["conditions"]:
        print(f"{r['condition']:>14s}: {r['verdict']:<12s} rate={r['rate']:+.4f} "
              f"fraction={r['fraction']:.3f}")
    return exit_code_for(report)


def exit_code_for(report) -> int:
    verdicts = {c["verdict"] for c in report["conditions"]}
    return 1 if "fail" in verdicts else 3 if "inconclusive" in verdicts else 0


def cmd_measure(cfg, args):
    model, c = _setup(cfg)
    kind = c["measure.kind"]
    need = {"basin": VectorFieldModel, "pesin": SuspensionModel}.get(kind, IntervalMap)
    _require(isinstance(model, need), "measure.kind",
             f"'{kind}' runs on a {need.__name__}")
    if kind == "basin":
        _require(model.trapping_region is not None, "measure.grid",
                 "model has no trapping region")
        for key in ("measure.grid", "measure.reference"):
            _require(c[key] is None or len(c[key]) == model.dim, key,
                     f"must have one entry per dimension ({model.dim})")
    seed = _effective_seed(c, args.seed)
    out = _out_dir(c, args)
    n = c["measure.n"] or (10 ** 5 if kind == "pesin" else 10 ** 6)
    bins = c["measure.bins"] or (64 if kind == "invariance" else 32)
    payload = {"stamp": _stamp(cfg), "model": model.name, "kind": kind,
               "seed": seed}

    if kind == "invariance":
        lo, hi = model.domain
        samples = np.random.default_rng(seed).uniform(lo, hi, n)
        pushed = map_pushforward(model, samples)
        ks = ks_statistic(pushed, uniform_cdf(lo, hi))
        hist = empirical_measure(pushed, bins=bins, support=(lo, hi))
        histogram_to_csv(hist, out / f"{c['model']}_pushforward_hist.csv",
                         header_comment=_stamp(cfg))
        payload.update({"n": n, "ks_statistic": ks})
    elif kind == "birkhoff":
        x0 = _initial_state(model, c["measure.x0"], "measure.x0", seed)
        series = birkhoff_map(model,
                              lambda x: np.log(abs(model.derivative(x))),
                              x0, n, name="log_derivative")
        series_to_csv(series, out / f"{c['model']}_birkhoff.csv",
                      header_comment=_stamp(cfg))
        payload.update({"n": n, "x0": x0, "average": series.final,
                        "oscillation": series.oscillation})
    elif kind == "histogram":
        x0 = _initial_state(model, c["measure.x0"], "measure.x0", seed)
        orbit = iterate_interval_map(model, x0, n)
        half = n // 2
        lo, hi = model.domain
        h1 = empirical_measure(orbit[:half], bins=bins, support=(lo, hi))
        h2 = empirical_measure(orbit[half:], bins=bins, support=(lo, hi))
        full = empirical_measure(orbit, bins=bins, support=(lo, hi))
        histogram_to_csv(full, out / f"{c['model']}_hist.csv",
                         header_comment=_stamp(cfg))
        payload.update({"n": n, "x0": x0,
                        "tv_between_halves": tv_distance(h1, h2)})
    elif kind == "basin":
        box = model.trapping_region
        axes = [np.linspace(box[i, 0], box[i, 1], int(c["measure.grid"][i]))
                for i in range(model.dim)]
        grid = np.column_stack([m.ravel()
                                for m in np.meshgrid(*axes, indexing="ij")])
        ref = c["measure.reference"]
        transient = c["measure.transient"]
        if ref is None:
            long_run = basin_sample(
                model, np.zeros(model.dim), grid_states=grid[:1],
                T=float(c["measure.ref_T"]), dt=float(c["measure.dt"]),
                transient=float(50.0 if transient is None else transient))
            ref = long_run.averages[0]
        res = basin_sample(
            model, ref, grid, T=float(c["measure.T"]), dt=float(c["measure.dt"]),
            tol=float(c["measure.tol"]),
            transient=float(10.0 if transient is None else transient))
        payload.update({"fraction": res.fraction,
                        "reference": [float(v) for v in res.reference],
                        "tolerance": res.tolerance,
                        "grid_points": int(grid.shape[0])})
    else:
        rep = pesin_check_1d(model.section_map.base, model, n=n, seed=seed)
        payload.update({
            "h_base": rep.h_base, "mean_roof": rep.mean_roof,
            "quotient": rep.quotient, "flow_side": rep.flow_side,
            "truncation_bound": rep.truncation_bound,
            "chain_ok": rep.chain_ok,
        })

    path = out / f"{c['model']}_measure_{kind}.json"
    _write_json(path, payload)
    if args.verbose:
        print(f"wrote {path}", file=sys.stderr)
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

    for name, handler, help_text in (
        ("simulate", cmd_simulate, "integrate orbits and dump CSV/binary caches"),
        ("spectrum", cmd_spectrum, "Lyapunov spectrum of one orbit"),
        ("classify", cmd_classify, "classify the model's equilibria"),
        ("verify", cmd_verify, "evaluate hyperbolicity conditions over an ensemble"),
        ("measure", cmd_measure, "invariant-measure statistics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", "-c", required=True, help="JSON config file")
        p.add_argument("--output-dir", "-o", default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--verbose", "-v", action="store_true")

    rep = sub.add_parser("report", help="pretty-print a saved report JSON")
    rep.add_argument("--input", "-i", required=True)

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args)

    try:
        return args.handler(load_config(args.config), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SechypError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
