"""The four benchmark workloads: seeded configs and output checks.

Each workload is one ``sechyp`` subcommand on a config generated from
the benchmark seed; the program sees only that config.  Shapes follow
the shipped configs, shrunk so that one invocation takes seconds rather
than a minute while each layer keeps its share of the time (see
``README.md`` in this directory for the sizes and the reasons).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LORENZ = {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}
# box around the Lorenz attractor from which x0 is drawn
LORENZ_X0_BOX = ((-15.0, 15.0), (-20.0, 20.0), (5.0, 40.0))
# slack on the Liouville identity sum(lambda) = -(sigma + 1 + beta): the
# bootstrap half-width only measures block-to-block spread of an almost
# constant quantity (~1e-9), below the integrator's truncation error at
# rtol 1e-9 (a few 1e-8 on the exponent sum)
LIOUVILLE_SLACK = 1e-6
SECTION_TOL = 1e-9

LORENZ_VERIFY_EXPECT = {
    "PH": "pass", "SingularHyp": "pass", "SH": "pass", "ASH": "pass",
    "MNUSE": "pass", "NUSE": "pass", "MSH-estimate": "fail", "NNE": "pass",
}
SUSPENSION_VERIFY_EXPECT = {
    "SH": "fail", "ASH": "pass", "MNUSE": "pass", "MSH-estimate": "fail",
    "NUSH-periodic": "fail",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # sechyp subcommand
    unit: str               # unit of work for work_per_s
    output: str             # file the invocation writes into its output dir
    expect_exit: int
    make_config: Callable[[int, bool], dict]
    check: Callable[[dict, Path], list]      # -> [(check name, passed)]
    work: Callable[[dict, Path], float]      # units of work of one invocation


def _draw_x0(seed):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for lo, hi in LORENZ_X0_BOX]


# ----------------------------------------------------------------------
# lorenz-verify
# ----------------------------------------------------------------------

def lorenz_verify_config(seed, smoke):
    return {
        "model": "lorenz",
        "params": dict(LORENZ),
        "seed": seed,
        "tolerances": {"rtol": 1e-7, "atol": 1e-10},
        "verify": {
            "conditions": list(LORENZ_VERIFY_EXPECT),
            "ensemble": {"size": 1 if smoke else 6, "transient": 20.0,
                         "workers": 1},
            "windows": {"T": 40.0 if smoke else 80.0, "tau": 1.0,
                        "sect_window": 20.0},
            "thresholds": {"eta": -0.05},
            "splitting": {"d_s": 1, "warmup": 10.0, "stride": 4},
            "tau_sensitivity": [0.5, 1.0, 2.0],
        },
    }


def suspension_verify_config(seed, smoke):
    return {
        "model": "geometric_lorenz",
        "params": {},
        "seed": seed,
        "verify": {
            "conditions": list(SUSPENSION_VERIFY_EXPECT),
            "ensemble": {"size": 10 if smoke else 60, "ph_sample": 2,
                         "workers": 1},
            "windows": {"n_returns": 2000 if smoke else 10000, "tau": 1.0},
            "thresholds": {"eta": -0.05},
        },
    }


def _verify_checks(expect):
    def check(cfg, out):
        report = json.loads((out / f"{cfg['model']}_report.json").read_text())
        got = {c["condition"]: c["verdict"] for c in report["conditions"]}
        checks = [(f"verdict {name}", got.get(name) == v)
                  for name, v in expect.items()]
        checks.append(("no consistency warnings",
                       report.get("consistency_warnings") == []))
        checks.append(("seed recorded", report.get("seed") == cfg["seed"]))
        return checks
    return check


def _verify_members(cfg, out):
    report = json.loads((out / f"{cfg['model']}_report.json").read_text())
    return float(report["n_seeds"])


def _suspension_crossings(cfg, out):
    n_returns = cfg["verify"]["windows"]["n_returns"]
    return float(n_returns * _verify_members(cfg, out))


# ----------------------------------------------------------------------
# lorenz-spectrum
# ----------------------------------------------------------------------

def lorenz_spectrum_config(seed, smoke):
    return {
        "model": "lorenz",
        "params": dict(LORENZ),
        "seed": seed,
        "tolerances": {"rtol": 1e-9, "atol": 1e-12},
        "spectrum": {"k": 3, "T": 200.0 if smoke else 300.0, "warmup": 20.0,
                     "x0": _draw_x0(seed)},
    }


def _spectrum_checks(cfg, out):
    res = json.loads((out / "lorenz_spectrum.json").read_text())
    lam, hw = res["exponents"], res["half_widths"]
    p = cfg["params"]
    liouville = -(p["sigma"] + 1.0 + p["beta"])
    return [
        ("lambda1 in [0.85, 0.95]", 0.85 <= lam[0] <= 0.95),
        ("|lambda2| <= half-width", abs(lam[1]) <= hw[1]),
        ("sum matches -(sigma+1+beta)",
         abs(res["sum"] - liouville) <= res["sum_half_width"] + LIOUVILLE_SLACK),
    ]


# ----------------------------------------------------------------------
# lorenz-returns
# ----------------------------------------------------------------------

def lorenz_returns_config(seed, smoke):
    return {
        "model": "lorenz",
        "params": dict(LORENZ),
        "seed": seed,
        "tolerances": {"rtol": 1e-9, "atol": 1e-12},
        "simulate": {
            "x0": _draw_x0(seed),
            "n_returns": 4 if smoke else 80,
            # the plane z = rho - 1 through the two nontrivial equilibria,
            # crossed downward
            "section": {"point": [0.0, 0.0, LORENZ["rho"] - 1.0],
                        "normal": [0.0, 0.0, 1.0], "orientation": -1},
        },
    }


def _read_returns(out):
    lines = (out / "lorenz_returns.csv").read_text().splitlines()
    rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    return rows


def _returns_checks(cfg, out):
    rows = _read_returns(out)
    sim = cfg["simulate"]
    z0 = sim["section"]["point"][2]
    times = [r[0] for r in rows]
    return [
        ("requested crossings", len(rows) == sim["n_returns"]),
        ("times strictly increasing",
         all(b > a for a, b in zip(times, times[1:]))),
        ("points on the section",
         all(math.isfinite(r[3]) and abs(r[3] - z0) <= SECTION_TOL for r in rows)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("lorenz-verify", "verify", "members", "lorenz_report.json", 1,
             lorenz_verify_config, _verify_checks(LORENZ_VERIFY_EXPECT),
             _verify_members),
    Workload("suspension-verify", "verify", "crossings",
             "geometric_lorenz_report.json", 1, suspension_verify_config,
             _verify_checks(SUSPENSION_VERIFY_EXPECT), _suspension_crossings),
    Workload("lorenz-spectrum", "spectrum", "flow-time", "lorenz_spectrum.json",
             0, lorenz_spectrum_config, _spectrum_checks,
             lambda cfg, out: cfg["spectrum"]["T"]),
    Workload("lorenz-returns", "simulate", "crossings", "lorenz_returns.csv", 0,
             lorenz_returns_config, _returns_checks,
             lambda cfg, out: float(len(_read_returns(out)))),
)}
