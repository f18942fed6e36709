"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The order-400 coefficient sets of the identity are computed once per
session through the default projection (tolerance 1e-10).
"""

import json

import numpy as np
import pytest

from antifourier import (
    FunctionSpec,
    HeatProblem,
    Named,
    Polynomial,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    classical_coefficients,
    classical_partial_sum,
    coefficients_via_periodic_split,
    decay_exponent,
    gibbs_overshoot,
    half_basis,
    heat_eval,
    heat_eval_dx,
    integrate,
    jordan_midpoint,
    solve_heat,
    verify_solution,
)
from antifourier.cli import main as cli_main
from conftest import catalog_specs

IDENTITY = FunctionSpec(np.pi, Named("identity"))
QUADRATIC = FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))


def _pass(number, text):
    print(f"ACCEPTANCE PASS  criterion {number:2d}: {text}")


@pytest.fixture(scope="module")
def identity_400():
    classical = classical_coefficients(IDENTITY, 400)
    anti = antiperiodic_coefficients(IDENTITY, 400)
    return classical, anti


def test_criterion_01_identity_coefficients():
    c = antiperiodic_coefficients(IDENTITY, 32)
    n = np.arange(33)
    closed = 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)
    assert abs(c.gamma) <= 1e-12
    assert np.abs(c.alpha).max() <= 1e-9
    assert np.abs(c.beta - closed).max() <= 1e-8
    _pass(1, "identity half-integer coefficients match the closed form")


def test_criterion_02_quadratic_coefficients():
    anti = antiperiodic_coefficients(QUADRATIC, 32)
    n = np.arange(33)
    assert abs(anti.gamma - 2.0) <= 1e-12
    assert np.abs(anti.alpha - (-32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3))).max() <= 1e-8
    assert np.abs(anti.beta - 16.0 * (-1.0) ** n / (np.pi**2 * (2 * n + 1) ** 2)).max() <= 1e-8
    classical = classical_coefficients(QUADRATIC, 32)
    m = np.arange(1, 33)
    assert abs(classical.a[0] - 8.0 / 3.0) <= 1e-8
    assert np.abs(classical.a[1:] - 4.0 * (-1.0) ** m / (np.pi**2 * m**2)).max() <= 1e-8
    assert np.abs(classical.b - (-4.0 * (-1.0) ** m / (np.pi * m))).max() <= 1e-8
    _pass(2, "quadratic example matches both series' closed forms")


def test_criterion_03_endpoint_coincidence(identity_400):
    classical, anti = identity_400
    assert abs(antiperiodic_partial_sum(anti, np.pi, 400) - np.pi) <= 5e-3
    for M in (0, 1, 10, 100, 400):
        assert classical_partial_sum(classical, np.pi, M) == 0.0
    _pass(3, "half-integer series hits f(pi); classical sum is exactly 0 there")


def test_criterion_04_gibbs_suppression(identity_400):
    classical, anti = identity_400
    over_classical = gibbs_overshoot(IDENTITY, classical, 400, 0.1, 4001)
    over_anti = gibbs_overshoot(IDENTITY, anti, 400, 0.1, 4001)
    assert over_classical > 0.4
    assert over_anti <= 0.04
    _pass(4, f"overshoot {over_classical:.3f} (classical) vs {over_anti:.2e} (half-integer)")


def test_identity_400_matches_the_closed_forms(identity_400):
    # every harmonic up to 400, both families starting on the top harmonic's panels
    classical, anti = identity_400
    m, n = np.arange(1, 401), np.arange(401)
    assert (classical.a == 0.0).all() and (anti.alpha == 0.0).all() and anti.gamma == 0.0
    assert np.abs(classical.b - 2.0 * (-1.0) ** (m + 1) / m).max() <= 1e-11
    assert np.abs(anti.beta - 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)).max() <= 1e-11


# Closed forms on [-pi, pi] at N = 400, in u = x / pi with omega = (n + 1/2) pi:
# (a_n for n >= 0, b_n for n >= 1, gamma, alpha_n, beta_n for n >= 0).
def _signum_forms(m, n, omega):
    zeros = np.zeros(n.size)
    return zeros, 2.0 * (1.0 - (-1.0) ** m) / (m * np.pi), 0.0, zeros, 2.0 / omega


def _identity_forms(m, n, omega):
    zeros = np.zeros(n.size)
    return zeros, 2.0 * (-1.0) ** (m + 1) / m, 0.0, zeros, 2.0 * np.pi * (-1.0) ** n / omega**2


def _x_plus_sign_forms(m, n, omega):
    return tuple(p + q for p, q in zip(_identity_forms(m, n, omega), _signum_forms(m, n, omega)))


def _scaled_square_forms(m, n, omega):  # u^2, and gamma = 1
    a = np.append(2.0 / 3.0, 4.0 * (-1.0) ** m / (m * np.pi) ** 2)
    return a, np.zeros(m.size), 1.0, -4.0 * (-1.0) ** n / omega**3, np.zeros(n.size)


@pytest.mark.parametrize("name, forms", [
    ("signum", _signum_forms),
    ("x-plus-sign", _x_plus_sign_forms),
    ("scaled-square", _scaled_square_forms),
], ids=["signum", "x-plus-sign", "scaled-square"])
def test_catalog_bodies_at_400_match_the_closed_forms(name, forms):
    # the independent check of the callable projection: both series, every
    # harmonic up to 400 (at most 4.5e-14 off when this test was written)
    f = FunctionSpec(np.pi, Named(name))
    classical, anti = classical_coefficients(f, 400), antiperiodic_coefficients(f, 400)
    m, n = np.arange(1, 401), np.arange(401)
    a, b, gamma, alpha, beta = forms(m, n, (n + 0.5) * np.pi)
    for computed, exact in [(classical.a, a), (classical.b, b), (anti.gamma, gamma),
                            (anti.alpha, alpha), (anti.beta, beta)]:
        assert np.abs(computed - exact).max() <= 1e-12


# Low orders start their families on few panels (2 at N = 0, 66 at N = 65):
# each order, both series, against the closed forms above.
@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 7, 10, 16, 17, 25, 63, 64, 65])
@pytest.mark.parametrize("name, forms", [
    ("identity", _identity_forms),
    ("signum", _signum_forms),
    ("x-plus-sign", _x_plus_sign_forms),
    ("scaled-square", _scaled_square_forms),
], ids=["identity", "signum", "x-plus-sign", "scaled-square"])
def test_catalog_bodies_at_low_orders_match_the_closed_forms(name, forms, N):
    # at most 3.4e-15 off when this test was written
    f = FunctionSpec(np.pi, Named(name))
    classical, anti = classical_coefficients(f, N), antiperiodic_coefficients(f, N)
    m, n = np.arange(1, N + 1), np.arange(N + 1)
    a, b, gamma, alpha, beta = forms(m, n, (n + 0.5) * np.pi)
    for computed, exact in [(classical.a, a), (classical.b, b), (anti.gamma, gamma),
                            (anti.alpha, alpha), (anti.beta, beta)]:
        assert np.abs(computed - exact).max(initial=0.0) <= 1e-13


def test_criterion_05_split_identity():
    for spec in catalog_specs() + [QUADRATIC]:
        direct = antiperiodic_coefficients(spec, 16)
        split = coefficients_via_periodic_split(spec, 16)
        assert np.abs(split.alpha - direct.alpha).max() <= 1e-7
        assert np.abs(split.beta - direct.beta).max() <= 1e-7
    _pass(5, "periodic-split coefficients equal direct quadrature on the catalog")


def test_criterion_06_orthogonality():
    L = np.pi
    for m in range(13):
        cm, sm = (lambda x, m=m: half_basis(m, L, x)[0]), (lambda x, m=m: half_basis(m, L, x)[1])
        for n in range(13):
            cn, sn = (lambda x, n=n: half_basis(n, L, x)[0]), (lambda x, n=n: half_basis(n, L, x)[1])
            target = L if m == n else 0.0
            assert abs(integrate(lambda x: cm(x) * cn(x), -L, L) - target) <= 1e-9
            assert abs(integrate(lambda x: sm(x) * sn(x), -L, L) - target) <= 1e-9
            assert abs(integrate(lambda x: cm(x) * sn(x), -L, L)) <= 1e-9
    _pass(6, "half-integer basis is orthogonal with norm L (m, n <= 12)")


def test_criterion_07_decay_exponents(identity_400):
    classical, anti = identity_400
    p_classical = decay_exponent(classical)
    p_anti = decay_exponent(anti)
    assert abs(p_classical - 1.0) <= 0.15
    assert abs(p_anti - 2.0) <= 0.15
    _pass(7, f"decay exponents {p_classical:.3f} (classical) vs {p_anti:.3f} (half-integer)")


def test_criterion_08_heat_solution():
    problem = HeatProblem(1.0, np.pi, 1.0, FunctionSpec(np.pi, Named("scaled-square")))
    sol = solve_heat(problem, 10)
    n = np.arange(11)
    assert np.abs(sol.B).max() <= 1e-9
    assert np.abs(sol.A - (-32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3))).max() <= 1e-8
    assert abs(heat_eval(sol, 0.0, 50.0, 10) - 1.0) <= 1e-5

    xs = np.linspace(-0.9 * np.pi, 0.9 * np.pi, 15)
    ts = [0.1, 0.5, 1.0, 2.0]
    assert verify_solution(sol, xs, ts, 1e-4).max_residual <= 1e-5
    # the ~4x halving law is checked where the h^2 truncation term dominates;
    # at h = 1e-4 the residual sits on the eps / h^2 rounding floor instead
    coarse = verify_solution(sol, xs, ts, 4e-3).max_residual
    fine = verify_solution(sol, xs, ts, 2e-3).max_residual
    assert 3.2 <= coarse / fine <= 4.8
    _pass(8, "heat modes, long-time limit, and second-order residual check")


def test_criterion_09_boundary_identities():
    problems = [
        HeatProblem(1.0, np.pi, 1.0, FunctionSpec(np.pi, Named("scaled-square"))),
        HeatProblem(0.5, np.pi, 1.0, FunctionSpec(np.pi, Polynomial((1.0, 1.0)))),
        HeatProblem(2.0, np.pi, 3.0, FunctionSpec(np.pi, Named("const", (3.0,)))),
        HeatProblem(1.0, 1.0, 2.0, QUADRATIC),
    ]
    for problem in problems:
        sol = solve_heat(problem, 8)
        for t in (0.0, 0.1, 1.0, 10.0):
            for M in (0, 3, 8):
                u_sum = heat_eval(sol, -sol.L, t, M) + heat_eval(sol, sol.L, t, M)
                ux_sum = heat_eval_dx(sol, -sol.L, t, M) + heat_eval_dx(sol, sol.L, t, M)
                assert abs(u_sum - 2.0 * sol.boundary_mean) <= 1e-12
                assert abs(ux_sum) <= 1e-12
    _pass(9, "mean and flux boundary identities hold at every truncation")


def test_criterion_10_jordan_midpoint():
    c = antiperiodic_coefficients(FunctionSpec(np.pi, Named("x-plus-sign")), 64)
    expected = jordan_midpoint(-1.0, 1.0) + 0.0
    for M in range(65):
        assert antiperiodic_partial_sum(c, 0.0, M) == expected == 0.0
    _pass(10, "series value at the jump equals the one-sided-limit midpoint exactly")


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    coeffs_path = tmp_path / "coeffs.json"
    base = ["--function", "named:identity", "--interval", "pi", "--kind", "both", "--n", "16"]
    assert cli_main(["coeffs", *base, "--format", "json", "--out", str(coeffs_path)]) == 0
    capsys.readouterr()

    eval_args = ["eval", *base, "--grid", "41", "--format", "csv"]
    assert cli_main(eval_args) == 0
    direct = capsys.readouterr().out
    assert cli_main([*eval_args, "--coeffs-file", str(coeffs_path)]) == 0
    loaded = capsys.readouterr().out
    assert loaded == direct
    assert json.loads(coeffs_path.read_text())["classical"]["kind"] == "classical"
    _pass(11, "coeffs JSON reloaded through --coeffs-file reproduces eval bytes")
