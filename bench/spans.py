"""In-memory spans around the public functions of the sechyp layers.

The tracer replaces a function in every loaded ``sechyp`` module that
binds it, so a call is recorded whether its caller imported the name
(``from .flowcalc import integrate``) or reaches it through the module
(``susp.run_section_streams``).  Nothing under ``src/`` is edited.

Only layer entry points are wrapped.  Hot helpers (``scaled_product``,
``wedge2_of``, ``restricted_window_norm``, ...) are left alone: their
time counts as self time of the layer function that calls them, and
wrapping them would make the traced run measure the tracer.

Model evaluations get no spans; a counting copy of the model (see
``counting_model``) counts row-level ``eval`` and ``jacobian`` calls,
and every span records the ``eval`` count at its start and end.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time

# layer -> public functions wrapped at every binding site
LAYER_FUNCTIONS = {
    "flowcalc": ("integrate", "batch_rk4", "orbit_to_csv", "save_orbit_cache"),
    "splitting": ("estimate_splitting", "domination_rate", "contraction_rate",
                  "window_splitting", "estimator_consistency"),
    "lpf": ("lpf_along", "return_map"),
    "hyperbolicity": ("classify_singularity", "sectional_expansion_functional",
                      "volume_expansion_functional", "ash_functional",
                      "mnuse_functional", "nuse_functional", "nne_functional",
                      "msh_estimate", "nush_periodic_check"),
    "suspension": ("run_section_streams", "suspension_orbit",
                   "sectional_rate_stream", "ash_running_max",
                   "mnuse_rate_stream", "nuse_rate_stream"),
    "measures": ("benettin_spectrum", "basin_sample", "birkhoff_map",
                 "map_pushforward", "pesin_check_1d"),
    "report": ("assemble_report",),
    "cli": ("cmd_simulate", "cmd_spectrum", "cmd_classify", "cmd_verify",
            "cmd_measure"),
}

# the set-up marker: load_model is the last step before the first layer call
SETUP_SPAN = "setup.load_model"


def _orbit_info(orbit):
    arrays = (orbit.times, orbit.states, orbit.step_cocycles, orbit.renorm_log)
    return {"steps": int(orbit.n_steps),
            "bytes": int(sum(a.nbytes for a in arrays))}


# what each entry point's return value says about the work it did
_INFO = {
    "flowcalc.integrate": _orbit_info,
    "suspension.suspension_orbit": _orbit_info,
    "splitting.estimate_splitting": lambda seq: {"blocks": int(seq.n_blocks)},
    "lpf.lpf_along": lambda lpf: {"steps": int(lpf.n_steps)},
    "lpf.return_map": lambda res: {"returns": len(res.points)},
    "suspension.run_section_streams":
        lambda s: {"crossings": int(s.n_returns * s.n_seeds)},
    "measures.benettin_spectrum":
        lambda est: {"reorths": int(est.reorthonormalizations)},
    "report.assemble_report": lambda rep: {"members": int(rep["n_seeds"])},
}


class Tracer:
    """Records spans ``[name, parent, start, end, evals0, evals1, info]``.

    ``parent`` is the index of the enclosing span, or -1.  The clock is
    ``time.monotonic``, which on Linux is one clock for every process,
    so span times compare with the launching process's timestamps.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.evals = 0
        self.jacobians = 0

    def wrap(self, name, fn):
        info_of = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0,
                   self.evals, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[5] = self.evals
                stack.pop()
            if info_of is not None:
                rec[6] = info_of(out)
            return out

        return wrapper

    def install(self):
        """Wrap every function of LAYER_FUNCTIONS where callers look it up."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "sechyp" or n.startswith("sechyp.")) and m is not None]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"sechyp.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def counting_model(self, model):
        """Copy of a vector-field model whose eval/jacobian count calls."""
        if not hasattr(model, "jacobian"):
            return model
        f, jac = model.eval, model.jacobian

        def eval_(x):
            self.evals += 1
            return f(x)

        def jacobian(x):
            self.jacobians += 1
            return jac(x)

        return dataclasses.replace(model, eval=eval_, jacobian=jacobian)

    def record(self):
        return {"spans": self.spans, "evals": self.evals,
                "jacobians": self.jacobians}


# ----------------------------------------------------------------------
# analysis (in the benchmark process)
# ----------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Calls are single-threaded and properly nested, so direct children
    never overlap each other and lie inside their parent.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer_metrics(rec, t_spawn, t_exit):
    """Per-layer metrics of one traced invocation.

    ``t_spawn`` / ``t_exit`` are the launcher's monotonic timestamps
    around the child process; the time before the first span (interpreter
    start, imports, config) counts as set-up, like the load_model span.
    """
    spans = rec["spans"]
    selfs = self_times(spans)
    wall = t_exit - t_spawn
    by_fn = {}
    calls = {}
    for s, st in zip(spans, selfs):
        by_fn[s[0]] = by_fn.get(s[0], 0.0) + st
        calls[s[0]] = calls.get(s[0], 0) + 1

    layers = {}
    for name, st in by_fn.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + st
    first = min((s[2] for s in spans), default=t_exit)
    layers["setup"] = layers.get("setup", 0.0) + (first - t_spawn)

    def fn_self(*names):
        return sum(by_fn.get(n, 0.0) for n in names)

    def info_sum(name, key):
        return sum(s[6][key] for s in spans if s[0] == name and s[6])

    integ = [s for s in spans if s[0] == "flowcalc.integrate"]
    durations = sorted(s[3] - s[2] for s in integ)
    steps = info_sum("flowcalc.integrate", "steps")
    integ_evals = sum(s[5] - s[4] for s in integ)
    blocks = info_sum("splitting.estimate_splitting", "blocks")
    lpf_steps = info_sum("lpf.lpf_along", "steps")
    returns = info_sum("lpf.return_map", "returns")
    crossings = info_sum("suspension.run_section_streams", "crossings")
    reorths = info_sum("measures.benettin_spectrum", "reorths")
    # integrate calls made inside return_map spans (any depth)
    inside = set(i for i, s in enumerate(spans) if s[0] == "lpf.return_map")
    for i, s in enumerate(spans):
        if s[1] in inside:
            inside.add(i)
    rm_integrate = sum(1 for i in inside if spans[i][0] == "flowcalc.integrate")

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    fits = ("splitting.domination_rate", "splitting.contraction_rate")
    functionals = {
        "sectional": "hyperbolicity.sectional_expansion_functional",
        "volume": "hyperbolicity.volume_expansion_functional",
        "ash": "hyperbolicity.ash_functional",
        "mnuse": "hyperbolicity.mnuse_functional",
        "nuse": "hyperbolicity.nuse_functional",
        "nne": "hyperbolicity.nne_functional",
        "msh": "hyperbolicity.msh_estimate",
    }
    stream_fns = ("suspension.sectional_rate_stream", "suspension.ash_running_max",
                  "suspension.mnuse_rate_stream", "suspension.nuse_rate_stream")
    orbit_bytes = max((s[6]["bytes"] for s in integ if s[6]), default=0)

    m = {
        "flowcalc.integrate.calls": (len(integ), "count"),
        "flowcalc.integrate.self_s": (by_fn.get("flowcalc.integrate", 0.0), "s"),
        "flowcalc.integrate.call_p50_ms": (_quantile(durations, 0.5) * 1e3, "ms"),
        "flowcalc.integrate.call_p90_ms": (_quantile(durations, 0.9) * 1e3, "ms"),
        "flowcalc.accepted_steps": (steps, "count"),
        "flowcalc.us_per_step":
            (per(by_fn.get("flowcalc.integrate", 0.0), steps, 1e6), "us"),
        "flowcalc.rhs_per_step": (per(integ_evals, steps, 1.0), "ratio"),
        "flowcalc.batch_rk4.self_s": (fn_self("flowcalc.batch_rk4"), "s"),
        "flowcalc.orbit_mb": (orbit_bytes / 1e6, "MB_computed"),
        "models.eval_calls": (rec["evals"], "count"),
        "models.jacobian_calls": (rec["jacobians"], "count"),
        "splitting.estimate.self_s": (fn_self("splitting.estimate_splitting"), "s"),
        "splitting.blocks": (blocks, "count"),
        "splitting.us_per_block":
            (per(fn_self("splitting.estimate_splitting"), blocks, 1e6), "us"),
        "splitting.fits.self_s": (fn_self(*fits), "s"),
        "splitting.fits.calls": (sum(calls.get(f, 0) for f in fits), "count"),
        "lpf.along.self_s": (fn_self("lpf.lpf_along"), "s"),
        "lpf.us_per_step": (per(fn_self("lpf.lpf_along"), lpf_steps, 1e6), "us"),
        "lpf.return_map.self_s": (fn_self("lpf.return_map"), "s"),
        "lpf.returns": (returns, "count"),
        "lpf.integrate_calls_per_return": (per(rm_integrate, returns, 1.0), "ratio"),
        "hyperbolicity.classify.self_s":
            (fn_self("hyperbolicity.classify_singularity"), "s"),
        "hyperbolicity.classify.calls":
            (calls.get("hyperbolicity.classify_singularity", 0), "count"),
        "hyperbolicity.functionals.self_s": (fn_self(*functionals.values()), "s"),
    }
    for short, fname in functionals.items():
        m[f"hyperbolicity.{short}.self_s"] = (fn_self(fname), "s")
    m.update({
        "suspension.streams.self_s": (fn_self("suspension.run_section_streams"), "s"),
        "suspension.crossings": (crossings, "count"),
        "suspension.ns_per_crossing":
            (per(fn_self("suspension.run_section_streams"), crossings, 1e9), "ns"),
        "suspension.stream_functionals.self_s": (fn_self(*stream_fns), "s"),
        "suspension.orbit.self_s": (fn_self("suspension.suspension_orbit"), "s"),
        "measures.benettin.self_s": (fn_self("measures.benettin_spectrum"), "s"),
        "measures.us_per_reorth":
            (per(fn_self("measures.benettin_spectrum"), reorths, 1e6), "us"),
        "report.members": (info_sum("report.assemble_report", "members"), "count"),
    })
    for layer in ("setup",) + tuple(LAYER_FUNCTIONS):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    covered = sum(layers.values())
    m["trace.wall_s"] = (wall, "s")
    m["trace.coverage"] = (covered / wall if wall > 0 else 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def _quantile(sorted_values, q):
    """Linearly interpolated quantile (inclusive); 0 for an empty list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[
        round(q * 100) - 1]
