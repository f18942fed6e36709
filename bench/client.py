"""Closed-loop client: runs one workload's job list inside this process.

Started by ``run.py`` as the one child process of a benchmark run::

    python3 bench/client.py PLAN.json RESULT.json --seconds S --trace 0|1

It calls ``antifourier.cli.main(argv)``, which is what the ``antifourier``
entry point runs, one job after the other.  Untraced, it runs the first job
once as a warm-up, then repeats the whole job list while another pass fits
in ``--seconds`` (at least once), timing the calibration kernel before the
first job of a pass and after every job.  Traced, it runs every job twice,
once traced and once not, and ignores ``--seconds``.  Afterwards, outside
all timing, it records the peak RSS and runs the plan's check calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

# Host-speed calibration.  On a shared host the CPU speed one process gets
# moves between levels up to 1.8x apart that last from seconds to minutes,
# and every timing moves with it.  ``calibrate`` times a fixed kernel of the
# benchmark's own that mixes the program's kinds of work: many numpy calls
# on small arrays, ``np.cos`` on a large one and a pure-Python loop.  A
# timing is scaled by CAL_REF_S over the mean of the kernel times taken just
# before and just after it, which gives seconds at the speed at which the
# kernel takes CAL_REF_S.  Only a kernel timed next to the work tracks the
# speed: one figure for a whole run does not.
CAL_REF_S = 0.007
_CAL_SMALL = np.linspace(0.0, 1.0, 64)
_CAL_LARGE = np.linspace(0.0, 100.0, 100_000)
_CAL_OUT = np.empty_like(_CAL_LARGE)


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(400):
        acc += float(np.cos(_CAL_SMALL * (k + 0.5)).sum())
    for _ in range(3):
        np.cos(_CAL_LARGE, out=_CAL_OUT)
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scales(kernel_times) -> list:
    """Scale of the timing between each pair of neighbouring kernel times."""
    return [2.0 * CAL_REF_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]


def _call(cli, argv):
    """Run one command line; return (exit code or None, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, err.getvalue()[-500:]


def _digest(paths):
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        try:
            with open(path, "rb") as handle:
                h.update(handle.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_job(cli, job) -> dict:
    start = time.perf_counter()
    calls = [_call(cli, argv) for argv in job["calls"]]
    return {"id": job["id"], "latency_s": time.perf_counter() - start,
            "codes": [c for c, _ in calls], "stderr": [e for _, e in calls]}


def run_pass(cli, jobs) -> dict:
    """Run every job once; latency and speed scale per job, and the list's
    wall time as the sum of the job latencies."""
    kernel_times = [calibrate()]
    records = []
    for job in jobs:
        records.append(run_job(cli, job))
        kernel_times.append(calibrate())
    for job, record, scale in zip(jobs, records, speed_scales(kernel_times)):
        record["scale"] = scale
        record["digest"] = _digest(job["outputs"])
    return {"wall_s": sum(r["latency_s"] for r in records), "jobs": records}


def run_traced(cli, jobs, tracer) -> list:
    """Run every job twice, traced and untraced back to back, alternating
    which goes first, so that machine speed drifting during the run cancels
    out of the overhead ratio.  Returns the untraced and the traced pass."""
    passes = ({"wall_s": 0.0, "jobs": []}, {"wall_s": 0.0, "jobs": []})
    for i, job in enumerate(jobs):
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install()
            try:
                record = run_job(cli, job)
            finally:
                tracer.uninstall()
            record["digest"] = _digest(job["outputs"])
            passes[traced]["jobs"].append(record)
            passes[traced]["wall_s"] += record["latency_s"]
    return list(passes)


def run(cli, plan: dict, seconds: float, trace: bool) -> dict:
    jobs = plan["jobs"]
    result = {}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced = run_traced(cli, jobs, tracer)
        result["passes"] = [untraced, traced]
        result["trace"] = {
            "layers": tracer.layer_metrics(),
            "spans": tracer.span_table(),
            "missing": tracer.missing,
            "overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        }
    else:
        run_job(cli, jobs[0])  # warm-up: first-call costs stay out of the timed passes
        passes = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(run_pass(cli, jobs))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        result["passes"] = passes
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["checks"] = {
        job["id"]: [list(_call(cli, check["argv"])) for check in job["checks"]] for job in jobs
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import antifourier.cli as cli

    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"client: antifourier imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(cli, plan, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
