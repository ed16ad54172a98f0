"""Smoke test of the benchmark harness on reduced workloads.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_workloads()


def declared(kind: str) -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def reduced_run(tmp_path, workload, trace=0, seed=3, extra_jobs=()):
    return run.run_workload(workload, seed, 0.5, trace, reduced=True, probes=1,
                            extra_jobs=extra_jobs, results_dir=tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_reported_with_its_unit(tmp_path, workload, trace):
    doc = reduced_run(tmp_path, workload, trace)
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    saved = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert saved["result"] == result
    assert {"python", "numpy", "scipy", "rexosc_backend", "nproc", "cpu_model",
            "REXOSC_THREADS", "threads_env", "seed", "git_commit"} <= set(saved["env"])
    if trace:
        assert saved["spans"] and len(saved["passes"]) >= 1


def test_injected_failures_are_counted(tmp_path):
    wrong = workloads.Job("injected.wrong", lambda: 1.0,
                          lambda out, checks: checks.record("injected.wrong", out == 0.0))

    def boom():
        raise RuntimeError("injected")

    raising = workloads.Job("injected.boom", boom, lambda out, checks: None)
    base = reduced_run(tmp_path, "verify3d")
    doc = reduced_run(tmp_path, "verify3d", extra_jobs=[wrong, raising])
    names = [f["check"] for f in doc["failed_checks"]]
    passes = len(doc["pass_wall_s"])
    assert names.count("injected.wrong") == passes
    assert names.count("injected.boom.raised") == passes
    assert doc["result"]["failed"] == len(names)
    assert doc["result"]["attempted"] > base["result"]["attempted"]
    assert base["result"]["correct"] and not doc["result"]["correct"]


def test_known_defects_are_counted_but_keep_a_run_correct():
    checks = workloads.Checks()
    for name in sorted(workloads.KNOWN_DEFECTS):
        checks.record(name, False)
    assert checks.correct and len(checks.failed) == len(workloads.KNOWN_DEFECTS)
    checks.record("residual.1d.osc.m0.g", False)
    assert not checks.correct


def test_seed_changes_sweep_draws_but_not_metric_names(tmp_path):
    def draws(seed):
        jobs = workloads.build("sweep", seed, reduced=True)
        return [job.label for job in jobs], [
            [complex(f) for f in job.call()] for job in jobs
            if job.label.startswith("degeneracy.")]

    labels_a, draws_a = draws(1)
    labels_b, draws_b = draws(2)
    assert labels_a == labels_b
    assert draws_a != draws_b
    assert draws(1)[1] == draws_a
    names = [set(reduced_run(tmp_path, "sweep", seed=s)["result"]["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
