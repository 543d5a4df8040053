"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest bench/test_bench.py

They run the benchmark as its command line does, from the repository root,
and take a few minutes because every lorenz-verify invocation classifies
the three Lorenz equilibria.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import per_layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def bench():
    """Run (workload, seed, trace) once in smoke mode; cache the result."""
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            proc = _run(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace), "--smoke"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{trace}"
            cache[key] = (result, work)
        return cache[key]

    return get


def _outputs(work, inv):
    return {p.name: p.read_bytes() for p in sorted((work / f"inv{inv}").iterdir())}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_with_unit(bench, workload, trace):
    result, _ = bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_inputs_not_verdicts(bench, workload):
    wl = WORKLOADS[workload]
    assert wl.make_config(1, True) != wl.make_config(2, True)
    (r1, w1), (r2, w2) = bench(workload, 1, 0), bench(workload, 2, 0)
    assert r1["correct"] and r2["correct"]
    if wl.command == "verify":
        def verdicts(work):
            rep = json.loads((work / "inv0" / wl.output).read_bytes())
            return {c["condition"]: c["verdict"] for c in rep["conditions"]}
        assert verdicts(w1) == verdicts(w2)
    assert _outputs(w1, 0) != _outputs(w2, 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_outputs_identical(bench, workload):
    result, work = bench(workload, 1, 1)
    modes = [json.loads((work / f"inv{i}.record.json").read_text()).get("spans")
             is not None for i in range(2)]
    assert modes == [False, True]
    assert _outputs(work, 0) == _outputs(work, 1)
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_suspension_verify_never_integrates(bench):
    metrics = bench("suspension-verify", 1, 1)[0]["metrics"]
    assert metrics["flowcalc.integrate.calls"]["value"] == 0
    assert metrics["models.eval_calls"]["value"] == 0
    assert metrics["report.self_s"]["value"] > 0


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "lorenz-returns", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_subtract_direct_children():
    # name, parent, start, end, evals0, evals1, info
    spans = [["report.assemble_report", -1, 0.0, 10.0, 0, 0, None],
             ["flowcalc.integrate", 0, 1.0, 4.0, 0, 70, {"steps": 10, "bytes": 8}],
             ["lpf.return_map", 0, 5.0, 9.0, 70, 70, {"returns": 2}],
             ["flowcalc.integrate", 2, 6.0, 7.0, 70, 70, {"steps": 5, "bytes": 8}]]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = per_layer_metrics({"spans": spans, "evals": 70, "jacobians": 70},
                          -1.0, 10.0)
    assert m["setup.self_s"][0] == 1.0
    assert m["flowcalc.self_s"][0] == 4.0
    assert m["trace.coverage"][0] == 1.0
    assert m["flowcalc.integrate.calls"][0] == 2
    assert m["flowcalc.rhs_per_step"][0] == 70 / 15
    assert m["lpf.integrate_calls_per_return"][0] == 0.5
