"""The config table: every key a `sechyp` command or `assemble_report` reads.

Each key is a dotted path with its check and its default.  A None default
is decided at the one site that reads the key, because it depends on the
model or the command; for such a key, null in a config means absent.
Checks that need the model run where it is loaded.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import ConfigError
from .flowcalc import StepControl
from .models import PARAM_KEYS
from .splitting import RATE_MARGIN

KNOWN_CONDITIONS = ("PH", "SingularHyp", "SH", "ASH", "NUSE", "MNUSE", "NNE",
                    "MSH-estimate", "NUSH-periodic")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    """A JSON number that is finite as a float (NaN fails the comparison)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_vector(v):
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_number, v))


def _check(ok, message):
    """A check: the error message for a value that `ok` rejects, else None."""
    return lambda v: None if ok(v) else message


def _int(lo, hi=math.inf):
    return _check(lambda v: _is_int(v) and lo <= v <= hi,
                  f"must be an integer in [{lo}, {hi}]")


def _number(lo, hi):
    return _check(lambda v: _is_number(v) and lo <= v <= hi,
                  f"must be a number in [{lo:g}, {hi:g}]")


def _list_of(ok, what):
    return _check(lambda v: isinstance(v, (list, tuple)) and all(map(ok, v)),
                  f"must be a list of {what}")


def _one_of(*choices):
    return _check(lambda v: isinstance(v, str) and v in choices,
                  f"must be one of {', '.join(choices)}")


def _is_positive(v):
    return _is_number(v) and v > 0


def _periodic_seed(s):
    return (isinstance(s, dict) and set(s) <= {"point", "period"}
            and _is_vector(s.get("point"))
            and ("period" not in s or _is_positive(s["period"])))


POSITIVE = _check(_is_positive, "must be a positive number")
NONNEGATIVE = _number(0, math.inf)
VECTOR = _check(_is_vector, "must be a nonempty list of finite numbers")
X0 = _check(lambda v: _is_number(v) or _is_vector(v),
            "must be a number or a list of numbers")
RTOL, ATOL, BOUND = _number(1e-13, 1e-2), _number(1e-16, 1e-2), _number(1, 1e12)
BOX = _list_of(lambda r: _is_vector(r) and len(r) == 2 and r[0] <= r[1],
               "[low, high] pairs")

# dotted path -> (check, default); a comment gives a None default's value
TABLE = {
    "model": (_one_of(*PARAM_KEYS), None),                 # required
    # params go whole to load_model, which rejects a key the model does
    # not read and a value its builder rejects
    "params": (_check(lambda v: isinstance(v, dict), "must be an object"), None),
    "seed": (_int(0), 20250808),
    "output_dir": (_check(lambda v: isinstance(v, str), "must be a string"), "out"),
    "tolerances.rtol": (RTOL, 1e-9),
    "tolerances.atol": (ATOL, 1e-12),
    "tolerances.bound": (BOUND, 1e6),
    "simulate.n": (_int(1), 10000),
    "simulate.x0": (X0, None),                             # seeded draw
    "simulate.t_span": (POSITIVE, 50.0),
    "simulate.n_returns": (_int(1), None),                 # 1000 returns, 100 crossings
    "simulate.formats": (_list_of(("csv", "cache").__contains__, "csv, cache"), ()),
    "simulate.section": (_check(lambda v: v == "suspension-canonical" or (
        isinstance(v, dict) and None not in (v.get("point"), v.get("normal"))),
        'expected {"point": [...], "normal": [...]} or "suspension-canonical"'),
        None),                                             # plain orbit
    "simulate.section.point": (VECTOR, None),
    "simulate.section.normal": (_check(lambda v: _is_vector(v) and any(v),
                                       "must be a nonzero vector"), None),
    "simulate.section.orientation": (_check(lambda v: _is_int(v) and v in (-1, 1),
                                            "must be 1 or -1"), 1),
    "spectrum.x0": (X0, None),                             # seeded draw
    "spectrum.T": (POSITIVE, 500.0),
    "spectrum.warmup": (NONNEGATIVE, None),                # min(20, T / 10)
    "spectrum.k": (_int(1), None),                         # model dimension
    "classify.arc_budget": (POSITIVE, 1e3),
    "measure.kind": (_one_of("invariance", "birkhoff", "histogram", "basin",
                             "pesin"), "invariance"),
    "measure.n": (_int(1), None),                          # 10**6; pesin 10**5
    "measure.bins": (_int(1), None),                       # 64 invariance, 32 histogram
    "measure.x0": (X0, None),                              # seeded draw
    "measure.grid": (_list_of(lambda n: _is_int(n) and n >= 1, "positive integers"),
                     (6, 6, 6)),
    "measure.reference": (VECTOR, None),                   # from a run at the origin
    "measure.ref_T": (POSITIVE, 400.0),
    "measure.T": (POSITIVE, 40.0),
    "measure.dt": (POSITIVE, 0.02),
    "measure.tol": (POSITIVE, 0.05),
    "measure.transient": (NONNEGATIVE, None),              # 50 reference run, 10 grid
    "verify.conditions": (_list_of(KNOWN_CONDITIONS.__contains__,
                                   ", ".join(KNOWN_CONDITIONS)), None),  # by command
    "verify.tau_sensitivity": (_list_of(_is_positive, "positive numbers"),
                               None),                      # by command
    "verify.periodic_seeds": (_list_of(_periodic_seed, "{point, period} objects"),
                              ()),                         # a period defaults to 1
    "verify.ensemble.size": (_int(1, 100000), None),       # 100 flow, 200 suspension
    "verify.ensemble.transient": (NONNEGATIVE, 20.0),
    "verify.ensemble.transient_dt": (POSITIVE, 0.01),
    # accepted only as 1 until the bench configs stop setting it
    "verify.ensemble.workers": (_check(lambda v: _is_int(v) and v == 1,
                                       "must be 1: members run in one process "
                                       "as one batched integration"), 1),
    "verify.ensemble.box": (BOX, None),                    # trapping region
    "verify.ensemble.tilt_warmup": (_int(0), 12),
    "verify.ensemble.ph_sample": (_int(1), 6),
    "verify.windows.T": (POSITIVE, 100.0),
    "verify.windows.tau": (POSITIVE, 1.0),
    "verify.windows.sect_window": (POSITIVE, None),        # T/4 flow, 50 roofs
    "verify.windows.n_returns": (_int(10), 10000),
    "verify.thresholds.eta": (_check(lambda v: _is_number(v) and v < 0,
                                     "must be a negative number"), -0.05),
    "verify.thresholds.margin": (NONNEGATIVE, RATE_MARGIN),
    "verify.thresholds.min_fraction": (_number(0, 1), 0.5),
    "verify.thresholds.ash_fraction": (_number(0, 1), 0.9),
    "verify.splitting.d_s": (_int(1), 1),
    "verify.splitting.warmup": (POSITIVE, 10.0),
    "verify.splitting.stride": (_int(1), 4),
    "verify.msh.radius": (POSITIVE, 0.05),
    "verify.msh.avoid_window": (POSITIVE, None),           # 5 flow, 5 roof floors
    "verify.tolerances.rtol": (RTOL, 1e-7),
    "verify.tolerances.atol": (ATOL, 1e-10),
    "verify.tolerances.bound": (BOUND, 1e6),
}

# `assemble_report` takes the verify section plus the seed
REPORT_TABLE = {p[len("verify."):]: e for p, e in TABLE.items()
                if p.startswith("verify.")} | {"seed": TABLE["seed"]}


def _walk(node, table, path=""):
    """Check every key of the object `node` at dotted `path` against `table`."""
    if not isinstance(node, dict):
        raise ConfigError(path or "config", "must be an object")
    prefix = f"{path}." if path else ""
    for key, value in node.items():
        full = prefix + key
        entry = table.get(full)
        if value is None and entry is not None and entry[1] is None:
            continue
        is_section = any(p.startswith(full + ".") for p in table)
        if entry is None and not is_section:
            known = sorted({p[len(prefix):].split(".")[0]
                            for p in table if p.startswith(prefix)})
            raise ConfigError(full, f"unknown key; known here: {', '.join(known)}")
        if is_section and (entry is None or isinstance(value, dict)):
            _walk(value, table, full)
        message = entry and entry[0](value)
        if message:
            raise ConfigError(full, message)


def settings(config, table=TABLE) -> dict:
    """Check `config` against `table`; return {dotted path: the config's
    value, else the default} for every key of the table."""
    _walk(config, table)
    out = {}
    for path, (_, default) in table.items():
        value = _lookup(config, path)
        out[path] = default if value is None else value
    return out


def _lookup(config, path):
    """The value at dotted `path` in `config`, or None where it is unset."""
    node = config
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    return node


def reject_set(config, paths, message):
    """ConfigError naming the first of `paths` that `config` sets: for
    keys the table lists that a run on the loaded model does not read."""
    for path in paths:
        if _lookup(config, path) is not None:
            raise ConfigError(path, message)


def validate_config(cfg):
    """Check a command config against TABLE and return it unchanged."""
    _walk(cfg, TABLE)
    if cfg.get("model") is None:
        raise ConfigError("model", "model name is required")
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    return validate_config(cfg)


def step_control(s) -> StepControl:
    """Integrator tolerances from the `tolerances.*` keys of `settings`."""
    return StepControl(rtol=float(s["tolerances.rtol"]),
                       atol=float(s["tolerances.atol"]),
                       bound=float(s["tolerances.bound"]))
