"""sechyp benchmark: one workload, closed loop, for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI is imported from
``src/``.  Every invocation is a fresh ``python3`` process, one at a
time (closed loop: the next starts when the previous has exited), with
``ensemble.workers`` = 1 and BLAS/OpenMP threads capped.

A run alternates set-up probes (processes that stop as soon as
``load_model`` returns) with workload invocations until ``--seconds``
have passed.  It makes at least two invocations, so that it also checks
that two invocations with the same seed write byte-identical files,
unless it is untraced and one invocation alone outlasts ``--seconds``.  With ``--trace 1`` every second invocation is traced (see
``spans.py``) and the metrics are the per-layer ones; otherwise they are
the end-to-end ones.

Times are reported at reference speed.  The benchmark was defined on a
shared 2-core Xeon VM whose speed changes by up to 1.75x in phases of
seconds to minutes, which no number of repeats in a 20 s run averages
out.  So
the run keeps itself and its children on one CPU and, while a child
runs, stops it every SAMPLE_PERIOD_S to time a fixed calibration kernel
on that CPU (about 5% of the time).  The stopped intervals are taken out
of every time of the child, and each time is scaled by REFERENCE_CAL_S
over the mean kernel time around and during the child.  The raw wall
times and the speed factors are printed in the table.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An operation is one
CLI invocation; it fails on a crash, an unexpected exit code or a failed
output check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from spans import per_layer_metrics
from workloads import WORKLOADS

SETUP_PROBES = 5
MIN_INVOCATIONS = 2
# a run must end within 180 s; stop starting invocations past this point
RUN_LIMIT_S = 165.0
THREAD_CAP = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORK_DIR = ".bench_work"
COVERAGE_TOL = 0.05

# The calibration kernel drives small numpy products from a Python loop,
# like sechyp's integrator and QR sweeps.  REFERENCE_CAL_S is about its
# time on the 2-core Xeon VM the benchmark was defined on, in that VM's
# usual (slower) phase; a reported time is what the process would have
# taken had every kernel sample taken exactly this long.
CAL_STEPS = 2000
REFERENCE_CAL_S = 0.01
SAMPLE_PERIOD_S = 0.2
_CAL_MATRIX = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.3], [0.0, 0.2, -2.0]])
TIME_UNITS = {"s", "ms", "us", "ns"}

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB", "output_ok": "ratio"}


def calibrate():
    """Seconds the calibration kernel takes now."""
    x = np.ones(3)
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = _CAL_MATRIX @ x
        x = x / np.linalg.norm(x)
    return time.perf_counter() - t0


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SECHYP_SEED", None)
    # users run from bytecode caches; the warm-up probe writes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cap = str(min(THREAD_CAP, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = cap
    return env


def spawn(root, env, mode, record, cli_args, stdout, stderr, timeout,
          sample=None):
    """Run the launcher once; return (exit code, spawn time, exit time,
    rusage, stops).

    With ``sample``, the child is stopped every SAMPLE_PERIOD_S while
    ``sample()`` runs; ``stops`` lists those (start, end) intervals.
    """
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), mode, str(record),
           "--", *cli_args]
    stops = []
    exit_time = []
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        exited = threading.Event()

        def wait_exit():
            # WNOWAIT leaves the child a zombie, so its pid stays valid
            # for the signals below until wait4 reaps it
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exit_time.append(time.monotonic())
            exited.set()

        waiter = threading.Thread(target=wait_exit)
        waiter.start()
        try:
            while not exited.wait(SAMPLE_PERIOD_S if sample else timeout):
                if time.monotonic() - t0 > timeout:
                    proc.kill()
                elif sample is not None:
                    start = time.monotonic()
                    os.kill(proc.pid, signal.SIGSTOP)
                    sample()
                    os.kill(proc.pid, signal.SIGCONT)
                    stops.append((start, time.monotonic()))
        except BaseException:
            proc.kill()
            raise
        finally:
            waiter.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, t0, exit_time[0], usage, stops


def active_clock(t0, stops):
    """Map a monotonic time to the seconds since t0 the child was not stopped."""
    def active(t):
        return t - t0 - sum(min(end, t) - start for start, end in stops
                            if start < t)
    return active


def read_record(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def digest(directory):
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, root, workload, seed, trace, smoke):
        self.root = root
        self.wl = WORKLOADS[workload]
        self.trace = trace
        self.cfg = self.wl.make_config(seed, smoke)
        self.work = root / WORK_DIR / f"{workload}-s{seed}-t{int(trace)}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.cfg_path = self.work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.env = child_env(root)
        self.setups = []          # (raw set-up s, speed factor)
        self.invocations = []
        self.start = time.monotonic()
        self.cals = [calibrate()]

    def elapsed(self):
        return time.monotonic() - self.start

    def sample(self):
        self.cals.append(calibrate())

    def speed_factor(self):
        """REFERENCE_CAL_S over the mean kernel time since the last call.

        The window runs from the sample before the child started to one
        taken right after it ended.
        """
        self.sample()
        factor = REFERENCE_CAL_S / statistics.mean(self.cals)
        self.cals = self.cals[-1:]
        return factor

    def cli_args(self, out):
        return [self.wl.command, "-c", str(self.cfg_path), "-o", str(out)]

    def probe_setup(self, i):
        """Time set-up alone: a process that exits when load_model returns."""
        tag = self.work / f"setup{i}"
        record = tag.with_suffix(".record.json")
        code, t0, _, _, _ = spawn(self.root, self.env, "setup", record,
                                  self.cli_args(tag), tag.with_suffix(".out"),
                                  tag.with_suffix(".err"), RUN_LIMIT_S)
        factor = self.speed_factor()
        rec = read_record(record)
        if code != 0 or rec is None:
            raise RuntimeError(f"set-up probe failed (exit {code}); "
                               f"see {tag.with_suffix('.err')}")
        return rec["setup_end"] - t0, factor

    def invoke(self, mode):
        i = len(self.invocations)
        out = self.work / f"inv{i}"
        out.mkdir()
        record = self.work / f"inv{i}.record.json"
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        code, t0, t_exit, usage, stops = spawn(
            self.root, self.env, mode, record, self.cli_args(out),
            self.work / f"inv{i}.out", self.work / f"inv{i}.err", timeout,
            sample=self.sample)
        factor = self.speed_factor()
        active = active_clock(t0, stops)
        rec = read_record(record)
        inv = {"mode": mode, "wall_s": active(t_exit), "factor": factor,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "setup_s": active(rec["setup_end"])
               if rec and "setup_end" in rec else None}
        checks = [("exit code", code == self.wl.expect_exit),
                  ("record written", rec is not None)]
        if (out / self.wl.output).is_file():
            try:
                checks += self.wl.check(self.cfg, out)
                inv["work"] = self.wl.work(self.cfg, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks.append((f"output readable ({exc!r})", False))
            inv["digest"] = digest(out)
            if self.invocations:
                checks.append(("byte-identical to invocation 0",
                               inv["digest"] == self.invocations[0].get("digest")))
        else:
            checks.append((f"{self.wl.output} written", False))
        if mode == "trace" and rec is not None and "spans" in rec:
            spans = [[n, p, active(a), active(b), *rest]
                     for n, p, a, b, *rest in rec["spans"]]
            layers = per_layer_metrics({**rec, "spans": spans}, 0.0,
                                       active(t_exit))
            inv["layers"] = {k: (v * factor if u in TIME_UNITS else v, u)
                             for k, (v, u) in layers.items()}
            cov = layers["trace.coverage"][0]
            checks.append(("trace coverage within 5%",
                           abs(cov - 1.0) <= COVERAGE_TOL))
        inv["checks"] = checks
        self.invocations.append(inv)

    def execute(self, seconds):
        """Alternate set-up probes and invocations until ``seconds`` pass.

        Another invocation starts only if the median one so far still fits
        in the time left.  A run makes at least MIN_INVOCATIONS, except an
        untraced run whose invocations each take longer than ``seconds``:
        that one stops after the first.
        """
        self.probe_setup("-warm")     # fills the bytecode and file caches
        while True:
            n = len(self.invocations)
            typical = _median(i["wall_s"] for i in self.invocations)
            if n and self.elapsed() + typical > seconds and (
                    n >= MIN_INVOCATIONS or not self.trace and typical > seconds):
                break
            if n and self.elapsed() + typical > RUN_LIMIT_S:
                break
            self.setups.append(self.probe_setup(len(self.setups)))
            self.invoke("trace" if self.trace and n % 2 == 1 else "plain")
        while len(self.setups) < SETUP_PROBES:
            self.setups.append(self.probe_setup(len(self.setups)))

    def failed(self):
        return sum(not all(ok for _, ok in i["checks"]) for i in self.invocations)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    """End-to-end metrics; times at reference speed."""
    plain = [i for i in run.invocations if i["mode"] == "plain"]
    checks = [ok for i in run.invocations for _, ok in i["checks"]]
    timed = [i for i in plain if i["setup_s"] is not None]
    rates = [i["work"] / ((i["wall_s"] - i["setup_s"]) * i["factor"])
             for i in timed if i.get("work") and i["wall_s"] > i["setup_s"]]
    return {
        "wall_s": _median(i["wall_s"] * i["factor"] for i in plain),
        "setup_s": _median([s * f for s, f in run.setups]
                           + [i["setup_s"] * i["factor"] for i in timed]),
        "work_per_s": _median(rates),
        "peak_rss_mb": _median(i["peak_rss_mb"] for i in plain),
        "output_ok": sum(checks) / len(checks) if checks else 0.0,
    }


def per_layer(run):
    traced = [i["layers"] for i in run.invocations if "layers" in i]
    if not traced:
        return {}
    out = {name: (_median(t[name][0] for t in traced), unit)
           for name, (_, unit) in traced[0].items()}
    plain_wall = _median(i["wall_s"] * i["factor"] for i in run.invocations
                         if i["mode"] == "plain")
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - plain_wall, "s")
    return out


def provenance(root, env):
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def caches():
        found = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        try:
            for idx in sorted(base.glob("index*")):
                level = (idx / "level").read_text().strip()
                kind = (idx / "type").read_text().strip()
                if level in ("2", "3"):
                    found[f"L{level}"] = (idx / "size").read_text().strip()
                elif kind != "Instruction":
                    found["L1d"] = (idx / "size").read_text().strip()
        except OSError:
            pass
        return found

    def git_revision():
        try:
            ref = (root / ".git" / "HEAD").read_text().strip()
            if ref.startswith("ref: "):
                return (root / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (checkout is not a git repository)"

    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_revision": git_revision(),
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "reference_cal_s": REFERENCE_CAL_S,
        "machine_note": f"shared {nproc}-core box: other tenants' load changes "
                        "its speed by up to 1.75x; times are scaled to "
                        "reference speed with the calibration kernel",
    }


def print_report(run, e2e, layers):
    wl = run.wl
    plain = [i for i in run.invocations if i["mode"] == "plain"]
    attempted = len(run.invocations)
    print(f"workload {wl.name}: {attempted} invocations ({len(plain)} untraced), "
          f"{len(run.setups)} set-up probes, {run.elapsed():.1f} s")
    print("  times at reference speed; raw wall s / CPU s / speed factor of "
          "each untraced invocation: "
          + ", ".join(f"{i['wall_s']:.3f}/{i['cpu_s']:.3f}/{i['factor']:.3f}"
                      for i in plain))
    print(f"  {'setup_s':<16}{e2e['setup_s']:>12.4f} s")
    print(f"  {'wall_s':<16}{e2e['wall_s']:>12.4f} s")
    print(f"  {'work_per_s':<16}{e2e['work_per_s']:>12.4f} {wl.unit}/s")
    print(f"  {'peak_rss_mb':<16}{e2e['peak_rss_mb']:>12.1f} MB")
    print(f"  {'output_ok':<16}{e2e['output_ok']:>12.4f}")
    print(f"  {'failed_fraction':<16}{run.failed() / attempted:>12.4f}")
    for i, inv in enumerate(run.invocations):
        bad = [name for name, ok in inv["checks"] if not ok]
        if bad:
            print(f"  invocation {i} ({inv['mode']}) failed checks: {bad}")
    if layers:
        wall = layers["trace.wall_s"][0]
        print(f"  per-layer self time (traced wall_s {wall:.3f} s, "
              f"overhead {layers['trace.overhead_s'][0]:+.3f} s):")
        for name, (value, unit) in layers.items():
            if name.endswith(".self_s") and name.count(".") == 1:
                print(f"    {name.split('.')[0]:<16}{value:>10.3f} s "
                      f"{100 * value / wall:>6.1f} %")
        cov = layers["trace.coverage"][0]
        verdict = "ok" if abs(cov - 1.0) <= COVERAGE_TOL else "OUTSIDE 5%"
        print(f"    {'sum':<16}{cov * wall:>10.3f} s {100 * cov:>6.1f} %  "
              f"coverage {verdict}")


def _terminate(signum, frame):
    sys.exit(128 + signum)      # unwinds through spawn(), which kills the child


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "sechyp" / "cli.py").is_file():
        print(f"error: {root} holds no sechyp source tree (src/sechyp)",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    # one CPU for the calibration kernel and every child process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(root, args.workload, args.seed, bool(args.trace), args.smoke)
    print("provenance: " + json.dumps(provenance(root, run.env), sort_keys=True))
    try:
        run.execute(args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = end_to_end(run)
    layers = per_layer(run) if args.trace else {}
    print_report(run, e2e, layers)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in e2e.items()}
    failed = run.failed()
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(run.invocations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
