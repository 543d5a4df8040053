#!/usr/bin/env python3
"""Check that two sechyp source trees write byte-identical outputs.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Both trees run the same CLI invocations, each one a fresh
``python3 -m sechyp.cli`` process with the tree's ``src/`` on PYTHONPATH
and one BLAS/OpenMP thread:

- every benchmark workload at seeds 1, 2 and 3, on the config that
  CHANGE_TREE's ``bench/workloads.py`` makes for it;
- ``verify`` on ``configs/lorenz_verify.json`` and
  ``configs/intermittent_verify.json``;
- ``simulate`` and ``spectrum`` on ``configs/lorenz_simulate.json``,
  and ``classify`` on ``configs/lorenz_verify.json``;
- ten inline configs (see ``INLINE``) for paths that no other
  invocation runs: two ``spectrum`` runs of seconds, on Lorenz at T=60
  and rtol 1e-9 and on a van der Pol ``polynomial`` field whose
  Jacobian trace varies along the orbit, so that spectrum bytes are
  compared without waiting for the shipped T=2000 config; ``measure``,
  since no shipped config sets a ``measure`` section, once on
  invariance and once on pesin (whose flow
  side reads a one-seed section stream through ``mnuse_rate_stream``);
  ``verify`` on a 4-d ``linear`` field at splitting stride 2, where N^cu
  is 2-d; ``verify`` on Lorenz with NUSE, MSH-estimate and NNE at
  splitting stride 3, where two of the three members' grids end in a
  short block; ``verify`` of NNE on a ``linear_saddle``, where members
  fail the NNE threshold, so its fraction is not one; ``verify`` on a
  ``geometric_lorenz`` with a constant roof
  (``roof_log_coeff`` 0), whose roof is a scalar where the shipped
  suspension's is an array; and ``simulate`` on ``geometric_lorenz``,
  with both output formats on the suspension orbit
  (``suspension_orbit``, ``save_orbit_cache``) and again on the
  suspension return map (``"section": "suspension-canonical"``);
- four ``verify`` runs whose ensemble fails (see ``FAILING``): a member
  that blows up past the bound; one that passes the Lorenz origin too
  slowly for the linear Poincare flow; a flow whose ``splitting.stride``
  leaves a member fewer than two checkpoints (exit 2); and a suspension
  whose ``windows.n_returns`` leaves a seed's orbit no longer than its
  tau window (exit 2).

The ``report`` subcommand only prints a saved report, so it has no
invocation of its own.  Configs are read from CHANGE_TREE and handed
to both trees unchanged.  Each invocation's output files are compared
byte for byte, like ``cmp``, and so are its standard output, its exit code and the
``error:`` lines of its standard error (the other lines of standard
error, such as warnings, carry tree paths).  One line is printed per
invocation, with both wall times and both peak RSS values (each process
is reaped with ``os.wait4``, and its ``ru_maxrss`` is read in MB).
Under it, each JSON output that differs gets a line with the largest
absolute and relative change over its floats, and whether every other
field (keys, list lengths, strings such as verdicts, booleans, integer
counts) is equal.  After the last invocation one line says "all
identical" or gives the largest JSON changes over all invocations, and
the last line gives the largest relative rise in peak RSS from
PARENT_TREE to CHANGE_TREE (a fall when negative) and its invocation.
The exit status is 1 when any output differs, however small; the RSS
does not set it.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (1, 2, 3)
SHIPPED = (("verify", "lorenz_verify.json"), ("verify", "intermittent_verify.json"),
           ("simulate", "lorenz_simulate.json"), ("spectrum", "lorenz_simulate.json"),
           ("classify", "lorenz_verify.json"))
# (label, subcommand, config) of the invocations that no shipped config makes
INLINE = (
    ("measure invariance", "measure", {
        "model": "intermittent_lorenz", "seed": 7,
        "measure": {"kind": "invariance", "n": 100000}}),
    ("measure pesin", "measure", {
        "model": "geometric_lorenz", "seed": 3,
        "measure": {"kind": "pesin", "n": 20000}}),
    ("verify linear 4-d stride 2", "verify", {
        "model": "linear",
        "params": {"matrix": [[1.0, 0.3, 0.0, 0.0], [0.0, 0.5, 0.2, 0.0],
                              [0.0, 0.0, 0.2, 0.0], [0.0, 0.1, 0.0, -1.0]]},
        "seed": 5,
        "verify": {"conditions": ["NUSE", "MSH-estimate", "MNUSE", "SH"],
                   "ensemble": {"size": 4, "transient": 0.0},
                   "windows": {"T": 6.0, "tau": 2.0},
                   "splitting": {"warmup": 2.0, "stride": 2},
                   "tau_sensitivity": [2.0, 3.0]}}),
    ("verify lorenz LPF stride 3", "verify", {
        "model": "lorenz", "seed": 8,
        "verify": {"conditions": ["NUSE", "MSH-estimate", "NNE"],
                   "ensemble": {"size": 3, "transient": 5.0},
                   "windows": {"T": 20.0}, "splitting": {"warmup": 4.0, "stride": 3}}}),
    ("verify linear_saddle NNE fails", "verify", {
        "model": "linear_saddle", "params": {"eigs": [1.0, -0.5, -2.0]}, "seed": 9,
        "verify": {"conditions": ["NNE"], "ensemble": {"size": 3, "transient": 0.0},
                   "windows": {"T": 6.0}, "splitting": {"warmup": 2.0}}}),
    ("verify suspension constant roof", "verify", {
        "model": "geometric_lorenz", "params": {"roof_log_coeff": 0.0}, "seed": 4,
        "verify": {"conditions": ["SH", "ASH", "MNUSE", "NUSE", "MSH-estimate", "PH"],
                   "ensemble": {"size": 8, "ph_sample": 2},
                   "windows": {"n_returns": 2000, "tau": 1.0},
                   "tau_sensitivity": [0.5, 2.0]}}),
    ("simulate suspension orbit", "simulate", {
        "model": "geometric_lorenz", "seed": 3,
        "simulate": {"n_returns": 2000, "formats": ["csv", "cache"]}}),
    ("simulate suspension returns", "simulate", {
        "model": "geometric_lorenz", "seed": 3,
        "simulate": {"n_returns": 2000, "section": "suspension-canonical"}}),
    ("spectrum lorenz T=60", "spectrum", {
        "model": "lorenz", "seed": 6, "tolerances": {"rtol": 1e-9, "atol": 1e-12},
        "spectrum": {"T": 60.0, "warmup": 5.0, "k": 3}}),
    # van der Pol in (x, y) driving z: the Jacobian trace -x^2 varies
    ("spectrum van der Pol", "spectrum", {
        "model": "polynomial",
        "params": {"table": {"dim": 3, "components": [
            [{"exponents": [0, 1, 0], "coeff": 1.0}],
            [{"exponents": [0, 1, 0], "coeff": 1.0},
             {"exponents": [2, 1, 0], "coeff": -1.0},
             {"exponents": [1, 0, 0], "coeff": -1.0}],
            [{"exponents": [0, 0, 1], "coeff": -1.0},
             {"exponents": [1, 1, 0], "coeff": 1.0}]]}},
        "tolerances": {"rtol": 1e-9, "atol": 1e-12},
        "spectrum": {"T": 60.0, "warmup": 5.0, "k": 3, "x0": [1.0, 2.0, 0.5]}}),
)
# verify configs whose ensemble fails: member 2 blows up past the bound;
# member 2 passes the origin below the LPF speed floor; the stride leaves
# member 0 fewer than two checkpoints; 10 returns leave seed 0 an orbit no
# longer than its tau window 500
FAILING = (
    ("verify Blowup member", {
        "model": "lorenz", "seed": 48,
        "verify": {"conditions": ["MNUSE"], "ensemble": {"size": 4, "transient": 0.0},
                   "windows": {"T": 5.0}, "splitting": {"warmup": 2.0},
                   "tolerances": {"rtol": 1e-6, "atol": 1e-9, "bound": 48.0}}}),
    ("verify NearSingularity member", {
        "model": "lorenz", "seed": 2,
        "verify": {"conditions": ["NUSE"],
                   "ensemble": {"size": 4, "transient": 0.0,
                                "box": [[0.0, 1e-51], [0.0, 1e-51], [20.0, 30.0]]},
                   "windows": {"T": 8.0}, "splitting": {"warmup": 3.0},
                   "tolerances": {"rtol": 1e-6, "atol": 1e-9}}}),
    ("verify splitting.stride fault", {
        "model": "lorenz",
        "verify": {"conditions": ["MNUSE"], "ensemble": {"size": 1, "transient": 0.0},
                   "windows": {"T": 0.5}, "splitting": {"warmup": 0.5, "stride": 50}}}),
    ("verify suspension n_returns fault", {
        "model": "geometric_lorenz",
        "verify": {"conditions": ["MNUSE"], "windows": {"n_returns": 10},
                   "tau_sensitivity": [500], "ensemble": {"size": 1}}}),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def bench_workloads(tree):
    """The WORKLOADS table of a tree's bench/workloads.py."""
    path = tree / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_compared_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def invocations(tree):
    """(label, subcommand, config dict) of every compared invocation."""
    cases = []
    for name, wl in bench_workloads(tree).items():
        for seed in SEEDS:
            cases.append((f"{name} seed {seed}", wl.command,
                          wl.make_config(seed, False)))
    for command, fname in SHIPPED:
        cfg = json.loads((tree / "configs" / fname).read_text())
        cases.append((f"{command} configs/{fname}", command, cfg))
    cases += INLINE
    cases += [(label, "verify", cfg) for label, cfg in FAILING]
    return cases


def run(tree, command, config_path, out):
    """Run one invocation in `tree`: (exit code, stdout bytes, the
    ``error:`` lines of stderr, wall s, peak RSS MB).  The streams go to
    files beside `out`, and the process is reaped with ``os.wait4``,
    whose ``ru_maxrss`` is the peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    out.mkdir(parents=True)
    streams = out.with_suffix(".stdout"), out.with_suffix(".stderr")
    with open(streams[0], "wb") as stdout, open(streams[1], "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sechyp.cli", command, "-c",
                                 str(config_path), "-o", str(out)],
                                cwd=out, env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    errors = [line for line in streams[1].read_bytes().splitlines()
              if line.startswith(b"error:")]
    return (proc.returncode, streams[0].read_bytes(), errors, wall,
            usage.ru_maxrss / 1024.0)


def differences(a, b):
    """Paths under two output directories that are missing on one side or
    differ byte for byte."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = sorted(str(p) + " (only one side)" for p in files_a ^ files_b)
    out += sorted(str(p) for p in files_a & files_b
                  if not filecmp.cmp(a / p, b / p, shallow=False))
    return out


def json_changes(a, b):
    """Compare two parsed JSON values: (largest absolute change, largest
    relative change, whether every non-numeric field is equal).  The
    changes are taken over the floats at the same place on both sides.
    Everything else must be equal: keys, list lengths, strings such as
    verdicts, booleans, and integers, which are counts; a float against
    NaN or against a non-float counts as a non-numeric difference."""
    changes = [(0.0, 0.0)]

    def same(x, y):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                return True
            d = abs(x - y)
            if math.isnan(d):
                return False
            changes.append((d, d / max(abs(x), abs(y)) if math.isfinite(d) else d))
            return True
        if isinstance(x, dict) and isinstance(y, dict):
            # every common entry is walked, so that its numbers count too
            common = [same(x[k], y[k]) for k in x.keys() & y.keys()]
            return all(common) and x.keys() == y.keys()
        if isinstance(x, list) and isinstance(y, list):
            common = [same(p, q) for p, q in zip(x, y)]
            return all(common) and len(x) == len(y)
        return type(x) is type(y) and x == y

    equal = same(a, b)
    return (max(d for d, _ in changes), max(r for _, r in changes), equal)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "sechyp" / "cli.py").is_file():
            parser.error(f"{tree} holds no sechyp source tree (src/sechyp)")
    work = Path(tempfile.mkdtemp(prefix="sechyp-compare-"))
    failed = 0
    largest = (0.0, 0.0)
    rss_change = (-math.inf, "")
    try:
        for n, (label, command, cfg) in enumerate(invocations(trees["change"])):
            case = work / f"case{n:02d}"
            case.mkdir(parents=True)
            config_path = case / "config.json"
            config_path.write_text(json.dumps(cfg, indent=2))
            got = {side: run(tree, command, config_path, case / side)
                   for side, tree in trees.items()}
            ((code_a, out_a, err_a, wall_a, rss_a),
             (code_b, out_b, err_b, wall_b, rss_b)) = got.values()
            rss_change = max(rss_change, (rss_b / rss_a - 1.0, label))
            diffs = differences(case / "parent", case / "change")
            if code_a != code_b:
                diffs.append(f"exit code {code_a} != {code_b}")
            if out_a != out_b:
                diffs.append("stdout")
            if err_a != err_b:
                diffs.append("stderr error lines")
            failed += bool(diffs)
            status = "identical" if not diffs else "DIFFERS: " + ", ".join(diffs)
            print(f"{label:<40s} exit {code_b}  {wall_a:7.2f} s -> {wall_b:7.2f} s  "
                  f"{rss_a:6.1f} MB -> {rss_b:6.1f} MB  {status}", flush=True)
            for name in diffs:
                if not name.endswith(".json"):
                    continue
                d_abs, d_rel, equal = json_changes(
                    *(json.loads((case / side / name).read_text()) for side in trees))
                largest = max(largest[0], d_abs), max(largest[1], d_rel)
                rest = ("every non-numeric field equal" if equal
                        else "NON-NUMERIC FIELDS DIFFER")
                print(f"    {name}: largest change {d_abs:.3g} absolute, "
                      f"{d_rel:.3g} relative; {rest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all identical" if not failed else
          f"{failed} invocation(s) differ; largest JSON change {largest[0]:.3g} "
          f"absolute, {largest[1]:.3g} relative")
    print(f"largest peak RSS change {rss_change[0]:+.1%} ({rss_change[1]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
