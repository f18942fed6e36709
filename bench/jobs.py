"""Seeded job lists for the three benchmark workloads.

A job is one or more ``antifourier`` command lines run back to back by a
single client; its latency is the time of all of them.  Every job records
the exit code each call must return and, for work jobs, the facts the
reference check needs (body, interval, order).  The program under test only
ever sees the generated argv and the generated CSV tables.

Each workload keeps the same shape for every seed (the same number of jobs
per order class or table size band) so that run-to-run spread comes from the
machine, not from the seed; the seed picks bodies, intervals, parameters,
noise and the job order.

Workloads and why they were chosen:

* ``coeffs-callable``: ``coeffs --kind both`` then ``eval --coeffs-file`` on
  callable bodies (every catalog entry plus random low-degree polynomials on
  random L), orders spread up to N=100.  Adaptive quadrature is O(N^2) and
  makes many small trig calls, so a projection change shows here.
* ``ladder-sampled``: ``compare`` with the default ladder on noisy CSV tables
  of a few thousand rows with f(-L) != f(L).  Sampled bodies take the
  closed-form table path and never call the integrator; time goes to partial
  sums over large grids, so an evaluator change shows here and a quadrature
  change should not.
* ``heat-flux``: ``heat --flux --format csv`` on compatible initial data at
  moderate N with several times on a fine grid.  It uses the evaluator with
  per-mode decay weights and the derivative, and writes the largest output,
  so serialization shows here.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("coeffs-callable", "ladder-sampled", "heat-flux")

CATALOG = ("identity", "const", "signum", "x-plus-sign", "scaled-square")
ODD_NAMED = frozenset({"identity", "signum", "x-plus-sign"})
EVEN_NAMED = frozenset({"const", "scaled-square"})

# coeffs-callable: (order, family) slots of one job list.  Every seed gets
# the same families at the same orders (polynomial degrees cycle 2, 3, 4);
# the seed draws L, polynomial and const parameters, the small orders and
# the job order.  That keeps the cost of a job list, and the mix of jobs its
# median and tail are taken from, the same from seed to seed: both fall
# among the 16 N=25 jobs.  The N=100 slot is the identity on [-pi, pi], the
# case the roadmap baseline names at N=400; a list costs about 4 s, so a run
# times several passes.
_POLYS = ("poly-general", "poly-odd", "poly-even")
COEFF_SLOTS = (
    ((100, "identity-pi"),)
    + tuple((50, f) for f in ("x-plus-sign", "signum", "poly-general"))
    + tuple((25, f) for f in (CATALOG + _POLYS) * 2)
    + tuple(("small", f) for f in CATALOG + _POLYS)
)
SMALL_ORDERS = (4, 10)
EVAL_GRID = 401

LADDER_TABLES = 2
LADDER_ROWS = (3000, 4000)
# compare defaults, as documented in ``antifourier compare --help``
LADDER_ORDERS = (10, 25, 50, 100, 200, 400)
LADDER_GRID = 2001
LADDER_SUBGRID = 4001
LADDER_WINDOW = 0.1

HEAT_JOBS = 22
HEAT_ORDERS = (28, 32)
HEAT_GRID = 1001
HEAT_TIMES = 8

# Table and heat jobs whose body also gets an untimed coefficient dump.
DUMP_JOBS = 5

MALFORMED_SPECS = ("poly:1,,2", "poly:", "named:", "named:nosuch", "cubic:1,2", "named:const")


def _num(value: float) -> str:
    """Shortest text that parses back to exactly ``value``."""
    return repr(float(value))


def spec_text(body: dict) -> str:
    """Function-spec string for a body description (see :func:`make_plan`)."""
    if body["kind"] == "poly":
        return "poly:" + ",".join(_num(c) for c in body["coeffs"])
    if body["kind"] == "named":
        if body["params"]:
            return f"named:{body['name']}:" + ",".join(_num(p) for p in body["params"])
        return f"named:{body['name']}"
    return "csv:" + body["path"]


def body_parity(body: dict) -> int:
    """+1 for an even body, -1 for an odd one, 0 otherwise (exact in floats)."""
    if body["kind"] == "named":
        if body["name"] in ODD_NAMED:
            return -1
        return 1 if body["name"] in EVEN_NAMED else 0
    if body["kind"] == "poly":
        coeffs = body["coeffs"]
        if all(c == 0.0 for c in coeffs[0::2]):
            return -1
        if all(c == 0.0 for c in coeffs[1::2]):
            return 1
    return 0


def _named_body(rng, name):
    params = [round(float(rng.uniform(-2.0, 2.0)), 6)] if name == "const" else []
    return {"kind": "named", "name": name, "params": params}


def _poly_body(rng, L, shape, degree):
    # The largest |c_k| L^k is 1, so the cost of a job hardly depends on L or
    # on the draw.
    scaled = rng.uniform(-1.0, 1.0, degree + 1)
    if shape == "odd":
        scaled[0::2] = 0.0
    elif shape == "even":
        scaled[1::2] = 0.0
    scaled /= np.abs(scaled).max()
    coeffs = [float(u) / L**k for k, u in enumerate(scaled)]
    return {"kind": "poly", "coeffs": [float(f"{c:.6g}") for c in coeffs]}


def _interval(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def coeffs_job(jid, body, L, N, work, L_text=None):
    """``coeffs --kind both`` to JSON, then ``eval --coeffs-file`` to CSV."""
    cpath = os.path.join(work, f"{jid}.json")
    epath = os.path.join(work, f"{jid}.csv")
    common = ["--function", spec_text(body), "--interval", L_text or _num(L), "--kind", "both",
              "--n", str(N)]
    return {
        "id": jid, "type": "coeffs", "body": body, "L": L, "N": N,
        "calls": [
            ["coeffs", *common, "--format", "json", "--out", cpath],
            ["eval", *common, "--grid", str(EVAL_GRID), "--coeffs-file", cpath,
             "--format", "csv", "--out", epath],
        ],
        "expect": [0, 0], "outputs": [cpath, epath],
    }


def _coeffs_callable(rng, work):
    jobs = []
    polys = 0
    for order, family in COEFF_SLOTS:
        N = int(rng.integers(SMALL_ORDERS[0], SMALL_ORDERS[1] + 1)) if order == "small" else order
        if family == "identity-pi":
            L, L_text, body = math.pi, "pi", _named_body(rng, "identity")
        else:
            L = _interval(rng, 1.5, 2.5)
            L_text = _num(L)
            if family.startswith("poly-"):
                body = _poly_body(rng, L, family[5:], 2 + polys % 3)
                polys += 1
            else:
                body = _named_body(rng, family)
        jobs.append(coeffs_job(f"c{len(jobs):02d}", body, L, N, work, L_text))
    bad = MALFORMED_SPECS[int(rng.integers(len(MALFORMED_SPECS)))]
    jobs.append(_hostile("h00", ["coeffs", "--function", bad, "--interval", "1", "--n", "4",
                                 "--format", "json", "--out", os.path.join(work, "h00.json")], 2))
    return jobs


def noisy_table(rng, L, rows):
    """Ramp plus curvature plus a sine plus noise; |f(L) - f(-L)| > 0.6."""
    xs = np.linspace(-L, L, rows)
    slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.75, 1.5)
    freq = rng.uniform(0.5, 3.0)
    ys = (slope * xs / L + rng.uniform(-0.5, 0.5) * (xs / L) ** 2
          + rng.uniform(0.1, 0.4) * np.sin(freq * np.pi * xs / L)
          + 0.01 * rng.standard_normal(rows))
    return xs, ys


def write_table(path, xs, ys, header):
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write("x,y\n")
        handle.writelines(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs.tolist(), ys.tolist()))


def compare_job(jid, body, L, work):
    """``compare`` with the default ladder, CSV output."""
    out = os.path.join(work, f"{jid}.csv")
    return {
        "id": jid, "type": "compare", "body": body, "L": L, "N": max(LADDER_ORDERS),
        "orders": LADDER_ORDERS, "grid": LADDER_GRID, "subgrid": LADDER_SUBGRID,
        "window": LADDER_WINDOW,
        "calls": [["compare", "--function", spec_text(body), "--interval", _num(L),
                   "--format", "csv", "--out", out]],
        "expect": [0], "outputs": [out],
    }


def _ladder_sampled(rng, work):
    jobs = []
    for i in range(LADDER_TABLES):
        L = _interval(rng, 0.5, 4.0)
        rows = int(rng.integers(LADDER_ROWS[0], LADDER_ROWS[1] + 1))
        xs, ys = noisy_table(rng, L, rows)
        path = os.path.join(work, f"t{i:02d}.csv")
        write_table(path, xs, ys, header=bool(rng.integers(2)))
        jobs.append(compare_job(f"l{i:02d}", {"kind": "table", "path": path}, L, work))
    table = jobs[0]["body"]["path"]
    jobs.append(_hostile("h00", ["compare", "--function", "csv:" + table, "--interval",
                                 _num(jobs[0]["L"]), "--grid", "2000", "--format", "csv",
                                 "--out", os.path.join(work, "h00.csv")], 2))
    return jobs


def endpoint_mean(body: dict, L: float) -> float:
    """(f(-L) + f(L)) / 2 computed here, not by the package."""
    if body["kind"] == "poly":
        ends = [sum(c * x**k for k, c in enumerate(body["coeffs"])) for x in (-L, L)]
        return (ends[0] + ends[1]) / 2.0
    name = body["name"]
    if name == "const":
        return body["params"][0]
    if name == "scaled-square":
        return (L / math.pi) ** 2
    return 0.0  # identity, signum, x-plus-sign are odd


def heat_job(jid, body, L, k, c, N, times, work, grid=HEAT_GRID):
    """``heat --flux --format csv`` for compatible data (c is the endpoint mean)."""
    out = os.path.join(work, f"{jid}.csv")
    args = ["heat", "--function", spec_text(body), "--interval", _num(L), "--k", _num(k),
            "--c", _num(c), "--n", str(N), "--times", ",".join(_num(t) for t in times),
            "--grid", str(grid), "--flux", "--format", "csv", "--out", out]
    return {
        "id": jid, "type": "heat", "body": body, "L": L, "N": N, "k": k, "c": c,
        "times": times, "grid": grid, "calls": [args], "expect": [0], "outputs": [out],
    }


def _heat_flux(rng, work):
    jobs = []
    families = list(CATALOG) * 3 + ["poly"] * (HEAT_JOBS - 3 * len(CATALOG))
    for i, family in enumerate(str(f) for f in rng.permutation(families)):
        L = _interval(rng, 1.0, 3.0)
        k = round(float(rng.uniform(0.2, 2.0)), 4)
        if family == "poly":
            body = _poly_body(rng, L, "general", 2 + i % 3)
        else:
            body = _named_body(rng, family)
        c = endpoint_mean(body, L)
        N = int(rng.integers(HEAT_ORDERS[0], HEAT_ORDERS[1] + 1))
        T = L * L / k
        times = [0.0] + sorted(round(float(t), 6) for t in rng.uniform(0.0, T, HEAT_TIMES - 1))
        jobs.append(heat_job(f"q{i:02d}", body, L, k, c, N, times, work))
    first = jobs[0]
    bad = list(first["calls"][0])
    bad[bad.index("--c") + 1] = _num(first["c"] + 0.5)
    bad[bad.index("--out") + 1] = os.path.join(work, "h00.csv")
    jobs.append(_hostile("h00", bad, 1))
    return jobs


def _hostile(jid, argv, code):
    return {"id": jid, "type": "hostile", "calls": [argv], "expect": [code], "outputs": []}


_BUILDERS = {
    "coeffs-callable": _coeffs_callable,
    "ladder-sampled": _ladder_sampled,
    "heat-flux": _heat_flux,
}


def make_plan(workload: str, seed: int, work: str) -> list:
    """Build the seeded job list of ``workload``; CSV inputs go to ``work``.

    Body descriptions are ``{"kind": "named", "name", "params"}``,
    ``{"kind": "poly", "coeffs"}`` (ascending) or ``{"kind": "table", "path"}``.
    Jobs run in a seeded order; the hostile job runs last.
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**63])
    jobs = _BUILDERS[workload](rng, work)
    work_jobs = [job for job in jobs if job["type"] != "hostile"]
    hostile = [job for job in jobs if job["type"] == "hostile"]
    plan = [work_jobs[i] for i in rng.permutation(len(work_jobs))] + hostile
    for i, job in enumerate(plan):
        job["checks"] = check_calls(job, work, dump=i < DUMP_JOBS)
    return plan


def check_calls(job: dict, work: str, dump: bool) -> list:
    """Untimed extra calls whose outputs the reference check reads.

    Coefficient jobs of order at most 10 get an ``eval`` that computes its
    coefficients in-process, whose bytes must equal the ``eval --coeffs-file`` output.
    With ``dump``, a table or heat job gets a ``coeffs --kind both`` dump of
    its body for the coefficient accuracy readings.
    """
    jid = job["id"]
    if job["type"] == "coeffs" and job["N"] <= SMALL_ORDERS[1]:
        argv = list(job["calls"][1])
        at = argv.index("--coeffs-file")
        del argv[at : at + 2]
        out = os.path.join(work, f"{jid}.inproc.csv")
        argv[argv.index("--out") + 1] = out
        return [{"label": "inproc_eval", "argv": argv, "out": out}]
    if dump and job["type"] in ("compare", "heat"):
        args = job["calls"][0]
        out = os.path.join(work, f"{jid}.coeffs.json")
        argv = ["coeffs", "--function", spec_text(job["body"]), "--interval",
                args[args.index("--interval") + 1], "--kind", "both", "--n", str(job["N"]),
                "--format", "json", "--out", out]
        return [{"label": "coeffs", "argv": argv, "out": out}]
    return []
