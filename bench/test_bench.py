"""Tests of the benchmark itself: seeded inputs, the reference check, exact
counts of the traced run, tracer robustness and the result contract.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import antifourier._kernels  # noqa: E402
import antifourier.cli as cli  # noqa: E402
import client  # noqa: E402
import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer  # noqa: E402


def _run_job(job):
    codes = [client._call(cli, argv)[0] for argv in job["calls"]]
    assert codes == job["expect"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload, tmp_path):
    def snapshot(seed):
        plan = jobs.make_plan(workload, seed, str(tmp_path))
        tables = {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))}
        return json.dumps(plan), tables

    first = snapshot(7)
    assert snapshot(7) == first
    assert snapshot(8)[0] != first[0]


def test_every_catalog_entry_and_parity_is_covered(tmp_path):
    plan = jobs.make_plan("coeffs-callable", 3, str(tmp_path))
    bodies = [job["body"] for job in plan if job["type"] == "coeffs"]
    assert {b["name"] for b in bodies if b["kind"] == "named"} == set(jobs.CATALOG)
    polys = [b for b in bodies if b["kind"] == "poly"]
    assert {jobs.body_parity(b) for b in polys} == {-1, 0, 1}
    assert max(job["N"] for job in plan if job["type"] == "coeffs") == 100


def _coeffs_outputs(tmp_path, body, L, N):
    job = jobs.coeffs_job("c00", body, L, N, str(tmp_path))
    _run_job(job)
    return job, reference.coefficients(body, L, N)


def test_reference_accepts_and_catches_a_perturbed_coefficient(tmp_path):
    body = {"kind": "named", "name": "x-plus-sign", "params": []}
    job, ref = _coeffs_outputs(tmp_path, body, 2.0, 12)
    coeffs_path, eval_path = job["outputs"]
    readings = reference.Readings()
    assert reference.check_coefficients(coeffs_path, body, 2.0, 12, ref, readings) == []
    assert reference.check_parity_zeros(coeffs_path, jobs.body_parity(body)) == []
    assert reference.check_eval(eval_path, body, 2.0, 12, jobs.EVAL_GRID, ref) == []
    assert 0.0 < readings.coef_err["antiperiodic"] < reference.coef_tol(body, 2.0)

    data = json.loads(open(coeffs_path).read())
    data["antiperiodic"]["beta"][3] += 1e-6
    with open(coeffs_path, "w") as handle:
        json.dump(data, handle)
    assert reference.check_coefficients(coeffs_path, body, 2.0, 12, ref, reference.Readings())


def test_reference_catches_a_broken_parity_zero_and_sum(tmp_path):
    body = {"kind": "poly", "coeffs": [0.0, 0.5, 0.0, -0.1]}
    job, ref = _coeffs_outputs(tmp_path, body, 1.5, 10)
    coeffs_path, eval_path = job["outputs"]
    data = json.loads(open(coeffs_path).read())
    data["classical"]["a"][2] = 1e-300
    with open(coeffs_path, "w") as handle:
        json.dump(data, handle)
    assert reference.check_parity_zeros(coeffs_path, -1)

    lines = open(eval_path).read().splitlines()
    cells = lines[100].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[100] = ",".join(cells)
    with open(eval_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert reference.check_eval(eval_path, body, 1.5, 10, jobs.EVAL_GRID, ref)


def test_reference_checks_heat_output_and_boundary_identities(tmp_path):
    body = {"kind": "named", "name": "scaled-square", "params": []}
    L, N = 2.0, 8
    c = jobs.endpoint_mean(body, L)
    job = jobs.heat_job("q00", body, L, 0.5, c, N, [0.0, 0.1, 1.0], str(tmp_path), grid=101)
    _run_job(job)
    ref = reference.coefficients(body, L, N, shift=c)
    readings = reference.Readings()
    assert reference.check_heat(job["outputs"][0], job, ref, readings) == []
    assert readings.boundary_defect <= reference.BOUNDARY_TOL

    path = job["outputs"][0]
    lines = open(path).read().splitlines()
    cells = lines[101].split(",")  # x = L at t = 0
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[101] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert reference.check_heat(path, job, ref, reference.Readings())


def test_hostile_jobs_are_rejected_as_documented(tmp_path):
    for workload in jobs.WORKLOADS:
        plan = jobs.make_plan(workload, 1, str(tmp_path))
        hostile = [job for job in plan if job["type"] == "hostile"]
        assert hostile
        for job in hostile:
            code, err = client._call(cli, job["calls"][0])
            assert [code] == job["expect"] and "error" in err
            assert not os.path.exists(job["calls"][0][-1])


def _tiny_jobs(tmp_path):
    rng = np.random.default_rng(0)
    xs, ys = jobs.noisy_table(rng, 1.5, 301)
    table = str(tmp_path / "t.csv")
    jobs.write_table(table, xs, ys, header=True)
    body = {"kind": "named", "name": "signum", "params": []}
    coeffs = jobs.coeffs_job("c00", body, 1.5, 6, str(tmp_path))
    compare = {"id": "l00", "calls": [["compare", "--function", "csv:" + table, "--interval", "1.5",
                                       "--orders", "4,8", "--grid", "101", "--subgrid", "2001",
                                       "--out", str(tmp_path / "l00.json")]], "outputs": []}
    heat = jobs.heat_job("q00", body, 1.5, 1.0, 0.0, 5, [0.0, 0.5], str(tmp_path), grid=51)
    return [coeffs, compare, heat]


def _traced_counts(job_list):
    tracer = Tracer()
    tracer.install()
    try:
        passed = client.run_pass(cli, job_list)
    finally:
        tracer.uninstall()
    assert all(code == 0 for record in passed["jobs"] for code in record["codes"])
    assert tracer.missing == []
    return tracer.layer_metrics()


def test_exact_counts_repeat_for_the_same_inputs(tmp_path):
    job_list = _tiny_jobs(tmp_path)
    first = _traced_counts(job_list)
    second = _traced_counts(job_list)
    for name in EXACT_COUNTS:
        assert first[name] > 0
        assert first[name] == second[name]
    assert set(first) | {"classical.max_coef_err", "antiperiodic.max_coef_err",
                         "heat.boundary_defect", "trace.overhead_frac"} == set(LAYER_METRICS)


def test_tracer_restores_the_package(tmp_path):
    original = antifourier._kernels.integrate
    tracer = Tracer()
    tracer.install()
    assert antifourier._kernels.integrate is not original
    tracer.uninstall()
    assert antifourier._kernels.integrate is original


def test_missing_wrap_point_is_recorded_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(antifourier._kernels, "integrate")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["antifourier._kernels.integrate"]
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["quadrature.integrate_calls"] == 0


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 100.0 * 20 / 30, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_latency_metrics_do_not_depend_on_the_number_of_passes():
    plan = [{"id": f"j{i}", "type": "coeffs"} for i in range(30)] + [{"id": "h", "type": "hostile"}]
    latencies = [0.1 * ((7 * i) % 30 + 1) for i in range(30)] + [9.0]

    def metrics(passes, scale=1.0):
        one_pass = {"wall_s": sum(latencies),
                    "jobs": [{"id": job["id"], "latency_s": t, "scale": scale}
                             for job, t in zip(plan, latencies)]}
        result = {"passes": [one_pass] * passes, "maxrss_kb": 1024}
        return run.end_to_end(plan, result, [[0.2, scale]])[0]

    one, two, three = metrics(1), metrics(2), metrics(3)
    assert one == two == three
    assert one["job_tail_s"] == run.tail(latencies[:30])[0]
    halved = metrics(2, scale=0.5)
    for name in ("setup_s", "wall_s", "job_p50_s", "job_tail_s"):
        assert halved[name] == pytest.approx(0.5 * one[name])


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "heat-flux", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
