"""rexosc benchmark: times the verification workloads the way users run them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 107 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

A single workload runs in this process, with BLAS/OpenMP pinned to one thread
and REXOSC_THREADS unset. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run (and the tracing
overhead against an untraced run in the same process). ``--workload all``
runs every workload in fresh processes, untraced and traced, and prints every
metric. The last line of standard output is always one JSON object with the
keys correct, attempted, failed and metrics. Each run also writes its result,
with the environment and (when traced) every span, under perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("sweep", "verify2d", "verify3d")
PINNED_THREADS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")
SETUP_PROBES = 7        # fresh interpreters per run; setup_s is their median
WARMUP_S = 3.0          # full-size jobs run untimed before the first timed pass

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p95_s": "s",
              "peak_rss_mb": "MB", "max_residual": "1"}

# per-layer metric -> (span name, summary field); see spans.summarize. Metric
# names drop the leading underscore of the _kernels module.
SPAN_METRICS = {
    "model.axis_eigenfunction.self_s": ("model.axis_eigenfunction", "self_s"),
    "kernels.horner.self_s": ("_kernels.horner", "self_s"),
    "kernels.horner.ops": ("_kernels.horner", "count"),
    "model.eigenfunction.points": ("model.eigenfunction", "count"),
    "verify.residual_scan.self_s": ("verify.residual_scan", "self_s"),
    "verify.pt_parity_eigenvalue.total_s": ("verify.pt_parity_eigenvalue", "total_s"),
    "verify.pt_parity_eigenvalue.errors": ("verify.pt_parity_eigenvalue", "errors"),
    "model.re_potential.calls": ("model.re_potential", "calls"),
    "model.decouple.calls": ("model.decouple", "calls"),
    "kernels.tridiagonal_smallest.calls": ("_kernels.tridiagonal_smallest", "calls"),
    "kernels.tridiagonal_smallest.self_s": ("_kernels.tridiagonal_smallest", "self_s"),
    "poly.isolate_real_roots.calls": ("poly.isolate_real_roots", "calls"),
    "poly.isolate_real_roots.self_s": ("poly.isolate_real_roots", "self_s"),
    "poly.pseudo_hermite_zeros.calls": ("poly.pseudo_hermite_zeros", "calls"),
    "verify.pole_scan.total_s": ("verify.pole_scan", "total_s"),
    "kernels.simpson.self_s": ("_kernels.simpson", "self_s"),
    "kernels.second_derivative_profile.self_s": ("_kernels.second_derivative_profile",
                                                  "self_s"),
    "verify.rayleigh_energy.total_s": ("verify.rayleigh_energy", "total_s"),
    "verify.orthogonality_gram.total_s": ("verify.orthogonality_gram", "total_s"),
    "verify.grid_spectrum.total_s": ("verify.grid_spectrum", "total_s"),
    "model.spectrum.total_s": ("model.spectrum", "total_s"),
}
# layer -> per-layer metric holding the summed self time of its spans
LAYER_SELF = {"transform": "transform.self_s", "poly": "poly.self_s",
              "numerics": "numerics.self_s", "_kernels": "kernels.self_s",
              "model": "model.self_s", "verify": "verify.self_s",
              "cli": "cli.main.self_s"}
PER_LAYER = {
    **{name: "count" if field in ("calls", "errors", "count") else "s"
       for name, (_, field) in SPAN_METRICS.items()},
    **dict.fromkeys(LAYER_SELF.values(), "s"),
    "model.psi_evals_per_point": "ratio",
    "verify.mesh_bytes": "B",
    "verify.rss_bytes_per_point": "B",
    "trace.overhead_s": "s",
}


def pin_environment() -> None:
    os.environ.update(PINNED_THREADS)
    os.environ.pop("REXOSC_THREADS", None)


def import_workloads():
    """Import rexosc from this checkout's src/ and return the workload module."""
    if not (SRC / "rexosc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rexosc sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import rexosc

    if Path(rexosc.__file__).resolve().parent != SRC / "rexosc":
        raise SystemExit(f"run.py: imported rexosc from {rexosc.__file__}, not {SRC}")
    import workloads

    return workloads


# ------------------------------------------------------------- environment

def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import rexosc

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "rexosc_backend": rexosc.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "REXOSC_THREADS": os.environ.get("REXOSC_THREADS"),
        "threads_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------------ timing

def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Seconds from starting a fresh interpreter to rexosc imported and the
    job list built, once per probe."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def run_pass(jobs, checks, tracer=None) -> list:
    """Run every job once and check its output; return the job latencies."""
    gc.collect()
    latencies = []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.label)
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a failing job is counted, never fatal
            latencies.append(time.perf_counter() - t0)
            checks.record(f"{job.label}.raised", False, repr(exc))
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            job.check(out, checks)
        except Exception as exc:
            checks.record(f"{job.label}.output", False, repr(exc))
    return latencies


def timed_passes(jobs, budget: float, checks, tracer=None) -> list:
    """Whole passes while the next one still fits in ``budget`` seconds
    (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        passes.append(run_pass(jobs, checks, tracer))
        if tracer is not None:
            tracer.end_pass()
        typical = statistics.median(sum(p) for p in passes)
        if time.perf_counter() - start + typical > budget:
            return passes


def warm_up(jobs, seconds: float, checks) -> None:
    """Run full-size jobs, untimed, until ``seconds`` have passed."""
    start = time.perf_counter()
    for job in jobs:
        run_pass([job], checks)
        if time.perf_counter() - start >= seconds:
            return


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def end_to_end(passes, setup_times, checks) -> dict:
    latencies = [t for p in passes for t in p]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p) for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_p95_s": percentile(latencies, 95),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "max_residual": checks.max_residual,
    }


def per_layer(tracer, jobs, untraced, traced, rss_bytes: int) -> dict:
    """Median over traced passes of each per-layer metric."""
    from spans import summarize

    tables = summarize(tracer.names, tracer.spans, tracer.passes)
    pairs = sum(job.pairs for job in jobs)
    rows = []
    for (first, end), table in zip(tracer.passes, tables):
        row = {name: table.get(span, {}).get(field, 0.0)
               for name, (span, field) in SPAN_METRICS.items()}
        for layer, name in LAYER_SELF.items():
            row[name] = sum(v["self_s"] for k, v in table.items()
                            if k.startswith(layer + "."))
        meshes = [(pts, dim) for at, pts, dim in tracer.meshes if first <= at < end]
        row["model.psi_evals_per_point"] = row["model.eigenfunction.points"] / pairs \
            if pairs else 0.0
        row["verify.mesh_bytes"] = max((16 * pts * dim for pts, dim in meshes), default=0)
        most = max((pts for pts, _ in meshes), default=0)
        row["verify.rss_bytes_per_point"] = rss_bytes / most if most else 0.0
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_s"] = (statistics.median(sum(p) for p in traced)
                               - statistics.median(sum(p) for p in untraced))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, *,
                 reduced: bool = False, extra_jobs=(), probes: int = SETUP_PROBES,
                 results_dir: Path = RESULTS) -> dict:
    """One benchmark run; returns the result line and writes the result file."""
    workloads = import_workloads()
    setup_times = [] if trace else measure_setup(workload, seed, probes)
    jobs = workloads.build(workload, seed, reduced=reduced) + list(extra_jobs)
    env = environment(seed)
    warm_up(jobs, min(WARMUP_S, seconds / 10), workloads.Checks())
    checks = workloads.Checks()
    doc = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "reduced": reduced, "env": env, "setup_probes_s": setup_times}
    if trace:
        from spans import Tracer

        untraced = timed_passes(jobs, seconds / 2, checks)
        rss = peak_rss_bytes()
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(jobs, seconds / 2, checks, tracer)
        finally:
            tracer.uninstall()
        values = per_layer(tracer, jobs, untraced, traced, rss)
        units = PER_LAYER
        doc["pass_wall_s"] = {"untraced": [sum(p) for p in untraced],
                              "traced": [sum(p) for p in traced]}
    else:
        passes = timed_passes(jobs, seconds, checks)
        values = end_to_end(passes, setup_times, checks)
        units = END_TO_END
        doc["pass_wall_s"] = [sum(p) for p in passes]
    result = {"correct": checks.correct, "attempted": checks.attempted,
              "failed": len(checks.failed),
              "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}
    doc["result"] = result
    doc["failed_checks"] = [{"check": n, "detail": d,
                             "known_defect": n in workloads.KNOWN_DEFECTS}
                            for n, d in checks.failed]
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    if trace:
        tracer.save(path, doc)
    else:
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


# -------------------------------------------------------------------- all

def run_all(seed: int, seconds: float) -> dict:
    """Every workload in fresh processes, untraced then traced."""
    import_workloads()
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True))
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"{workload} trace={trace} failed:\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            print(f"\n{workload} ({'traced' if trace else 'untraced'}, seed {seed}): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
                merged["metrics"][f"{workload}.{name}"] = m
            if not trace:
                merged["correct"] &= result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"all-seed{seed}.json").write_text(
        json.dumps({"env": env, "result": merged}, indent=1) + "\n")
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    # seed 107 makes the sweep's pole-scan draws those of acceptance criterion 7
    ap.add_argument("--seed", type=int, default=107)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_environment()
    if args.setup_probe:
        if args.workload == "all":
            raise SystemExit("run.py: a setup probe needs one workload")
        import_workloads().build(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
        for f in {json.dumps(f, sort_keys=True): f for f in doc["failed_checks"]}.values():
            print(f"check failed{' (known defect)' if f['known_defect'] else ''}: "
                  f"{f['check']}: {f['detail']}")
        print("env " + json.dumps(doc["env"], sort_keys=True))
        result = doc["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
