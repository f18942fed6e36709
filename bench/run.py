"""antifourier benchmark: one seeded workload, end-to-end or traced.

Run from the repository root::

    python3 bench/run.py --workload coeffs-callable --seed 1 --seconds 30 --trace 0

Workloads are defined in ``jobs.py``.  The run times a fresh interpreter
importing ``antifourier.cli`` and building its parser (``setup_s``), writes
the seeded inputs, then starts one child process (``client.py``) that drives
``antifourier.cli.main`` in a closed loop.  Every output is then checked
against the independent reference in ``reference.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, their times scaled to a reference host speed
(see ``calibrate`` in ``client.py``), the per-layer metrics of ``tracer.py``
with ``--trace 1``.  The line before it holds provenance, the tail percentile
used and, when traced, the per-span table.  Jobs that return the wrong exit code
or whose output fails the check count as failed; the failed fraction is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import jobs as jobs_mod
import reference
from client import calibrate, speed_scales
from tracer import LAYER_METRICS

# Half of the set-up samples are taken before the workload and half after
# it, so that their median spans the run: on a shared host the speed of
# short start-ups shifts between levels that last seconds.
SETUP_REPEATS = 8
SETUP_CODE = "import antifourier.cli as c; c.build_parser()"
BLAS_THREADS = 1
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("ANTIFOURIER_QUAD_TOL", None)  # the checks assume the default tolerance
    return env


def measure_setup(root: str, env: dict) -> list:
    """[seconds, speed scale] of SETUP_REPEATS fresh interpreters."""
    # No timeout: subprocess waits with a timeout by polling every 50 ms,
    # which would round every sample up to the next poll.
    times, kernel_times = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        kernel_times.append(calibrate())
    return [list(pair) for pair in zip(times, speed_scales(kernel_times))]


def _git_sha(root: str):
    """HEAD commit when ``root`` is a git clone and git is installed, else None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def provenance(root: str, args) -> dict:
    lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            lines += handle.read().count(b"\n")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it.

    Returns (value, percentile, job count); with TAIL_BEYOND or fewer jobs
    no such percentile exists and the maximum (percentile 100) is reported.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, count


def check_job(job: dict, checks: list, readings) -> list:
    """Reference check of one job's outputs and its untimed check calls."""
    problems = [f"check call {c['label']} exited {code}: {err}"
                for c, (code, err) in zip(job["checks"], checks) if code != 0]
    if problems:
        return problems
    kind, body, L, N = job["type"], job["body"], job["L"], job["N"]
    ref = reference.coefficients(body, L, N)
    if kind == "coeffs":
        coeffs_out, eval_out = job["outputs"]
        problems += reference.check_coefficients(coeffs_out, body, L, N, ref, readings)
        problems += reference.check_parity_zeros(coeffs_out, jobs_mod.body_parity(body))
        problems += reference.check_eval(eval_out, body, L, N, jobs_mod.EVAL_GRID, ref)
        for check in job["checks"]:  # in-process eval
            with open(check["out"], "rb") as a, open(eval_out, "rb") as b:
                if a.read() != b.read():
                    problems.append("eval --coeffs-file is not bit-identical to in-process eval")
        return problems
    if kind == "compare":
        problems += reference.check_compare(job["outputs"][0], job, ref)
    else:
        heat_ref = reference.coefficients(body, L, N, shift=job["c"])
        problems += reference.check_heat(job["outputs"][0], job, heat_ref, readings)
    for check in job["checks"]:  # coefficient dump
        problems += reference.check_coefficients(check["out"], body, L, N, ref, readings)
    return problems


def evaluate_run(plan: list, result: dict):
    """Exit codes, output digests and reference checks; returns
    (attempted, failed, problems by job id, readings)."""
    readings = reference.Readings()
    by_id = {job["id"]: job for job in plan}
    problems = {}
    for job in plan:
        found = []
        records = [r for p in result["passes"] for r in p["jobs"] if r["id"] == job["id"]]
        if len({r["digest"] for r in records}) != 1:
            found.append("outputs differ between passes")
        if job["type"] == "hostile":
            argv = job["calls"][0]
            if os.path.exists(argv[argv.index("--out") + 1]):
                found.append("rejected call left an output file")
            if any("error" not in r["stderr"][0] for r in records):
                found.append("rejected call printed no error message")
        else:
            try:
                found += check_job(job, result["checks"][job["id"]], readings)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if found:
            problems[job["id"]] = found
    attempted = failed = 0
    for p in result["passes"]:
        for record in p["jobs"]:
            attempted += 1
            job = by_id[record["id"]]
            if record["codes"] != job["expect"]:
                failed += 1
                problems.setdefault(job["id"], []).append(
                    f"exit codes {record['codes']} != {job['expect']}: {record['stderr']}")
            elif job["id"] in problems:
                failed += 1
    return attempted, failed, problems, readings


def _time_metrics(plan: list, result: dict, setup: list, scaled: bool) -> dict:
    """Median set-up, pass, job and tail times; each timing multiplied by
    its speed scale when ``scaled``."""
    def at(seconds, scale):
        return seconds * scale if scaled else seconds

    hostile = {job["id"] for job in plan if job["type"] == "hostile"}
    walls = [sum(at(r["latency_s"], r["scale"]) for r in p["jobs"]) for p in result["passes"]]
    per_pass = [[at(r["latency_s"], r["scale"]) for r in p["jobs"] if r["id"] not in hostile]
                for p in result["passes"]]
    return {
        "setup_s": statistics.median(at(seconds, scale) for seconds, scale in setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(statistics.median(lat) for lat in per_pass),
        "job_tail_s": statistics.median(tail(lat)[0] for lat in per_pass),
    }


def end_to_end(plan: list, result: dict, setup: list):
    """End-to-end metrics: times at the reference speed (see ``client.py``)
    and the peak RSS.  Latency statistics are taken per pass and the median
    over passes is reported, so that the job count behind ``job_tail_s`` is
    one job list however many passes fit in a run.  ``setup`` holds
    [seconds, speed scale] pairs.  The detail returned beside the metrics
    holds the same times unscaled."""
    metrics = _time_metrics(plan, result, setup, scaled=True)
    metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
    hostile = {job["id"] for job in plan if job["type"] == "hostile"}
    _, percentile, count = tail([r["latency_s"] for r in result["passes"][0]["jobs"]
                                 if r["id"] not in hostile])
    scales = sorted(r["scale"] for p in result["passes"] for r in p["jobs"])
    info = {"passes": len(result["passes"]), "jobs_per_pass": count,
            "tail_percentile": percentile,
            "unscaled": _time_metrics(plan, result, setup, scaled=False),
            "passes_s": [p["wall_s"] for p in result["passes"]],
            "setup_runs_s": [seconds for seconds, _ in setup],
            "speed_scale_min_median_max": [scales[0], statistics.median(scales), scales[-1]]}
    return metrics, info


def layer_metrics(result: dict, readings) -> dict:
    metrics = dict(result["trace"]["layers"])
    metrics["classical.max_coef_err"] = readings.coef_err["classical"]
    metrics["antiperiodic.max_coef_err"] = readings.coef_err["antiperiodic"]
    metrics["heat.boundary_defect"] = readings.boundary_defect
    metrics["trace.overhead_frac"] = result["trace"]["overhead_frac"]
    return {name: metrics[name] for name in LAYER_METRICS}


def _run(args, root: str, work: str) -> int:
    env = child_env(root)
    setup_times = [] if args.trace else measure_setup(root, env)
    plan = jobs_mod.make_plan(args.workload, args.seed, work)
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({"jobs": plan}, handle)
    child = [sys.executable, os.path.join(BENCH_DIR, "client.py"), plan_path, result_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        subprocess.run(child, cwd=root, env=env, check=True, stdout=sys.stderr,
                       timeout=CHILD_TIMEOUT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: workload process failed: {exc}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if not args.trace:
        setup_times += measure_setup(root, env)
    attempted, failed, problems, readings = evaluate_run(plan, result)

    detail = {"provenance": provenance(root, args), "failed_frac": failed / attempted,
              "problems": problems}
    if args.trace:
        metrics = layer_metrics(result, readings)
        units = LAYER_METRICS
        detail.update(missing_wrap_points=result["trace"]["missing"],
                      spans=result["trace"]["spans"],
                      passes_s=[p["wall_s"] for p in result["passes"]])
    else:
        metrics, info = end_to_end(plan, result, setup_times)
        units = END_TO_END
        detail.update(info)
        detail["readings"] = {"classical.max_coef_err": readings.coef_err["classical"],
                              "antiperiodic.max_coef_err": readings.coef_err["antiperiodic"],
                              "heat.boundary_defect": readings.boundary_defect}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4g})")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for jid, found in problems.items():
        print(f"  FAILED {jid}: {'; '.join(found)[:300]}")
    print(json.dumps(detail))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if not all(math.isfinite(m["value"]) for m in line["metrics"].values()):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="antifourier benchmark")
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "antifourier", "cli.py")):
        print("bench: src/antifourier/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(".bench_work") and not os.listdir(".bench_work"):
            os.rmdir(".bench_work")


if __name__ == "__main__":
    sys.exit(main())
