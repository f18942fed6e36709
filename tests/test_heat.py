import json

import numpy as np
import pytest

from antifourier import (
    FunctionSpec,
    HeatProblem,
    HeatSolution,
    IncompatibleData,
    Named,
    NegativeTime,
    NonConvergence,
    OrderExceedsTruncation,
    Polynomial,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    eigenpair,
    heat_eval,
    heat_eval_dx,
    solve_heat,
    verify_solution,
)
from antifourier.io import from_dict, to_dict
from conftest import two_level_values


def scaled_square_A(n):
    return -32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3)


@pytest.fixture
def scaled_square_problem():
    initial = FunctionSpec(np.pi, Named("scaled-square"))
    return HeatProblem(k=1.0, L=np.pi, boundary_mean=1.0, initial=initial)


@pytest.fixture
def scaled_square_solution(scaled_square_problem):
    return solve_heat(scaled_square_problem, 10)


def catalog_problems():
    return [
        HeatProblem(1.0, np.pi, 1.0, FunctionSpec(np.pi, Named("scaled-square"))),
        HeatProblem(0.5, np.pi, 1.0, FunctionSpec(np.pi, Polynomial((1.0, 1.0)))),
        HeatProblem(2.0, np.pi, 3.0, FunctionSpec(np.pi, Named("const", (3.0,)))),
        HeatProblem(1.0, 1.0, 2.0, FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))),
    ]


class TestEigenpair:
    def test_eigenvalues_at_pi(self):
        assert eigenpair(0, np.pi)[0] == -0.25
        assert eigenpair(1, np.pi)[0] == -2.25
        assert eigenpair(7, np.pi)[0] == -(7.5**2)

    def test_eigenvalue_rescaling(self):
        lam, _, _ = eigenpair(0, 1.0)
        assert lam == pytest.approx(-np.pi**2 / 4.0, rel=1e-15)

    def test_eigenfunctions(self):
        lam, X, Xt = eigenpair(0, np.pi)
        assert X(0.0) == 1.0 and Xt(0.0) == 0.0
        assert X(np.pi) == 0.0 and Xt(np.pi) == 1.0
        assert X(-np.pi) == 0.0 and Xt(-np.pi) == -1.0

    def test_eigenfunctions_solve_the_ode(self):
        lam, X, Xt = eigenpair(2, np.pi)
        xs = np.linspace(-np.pi, np.pi, 9)
        h = 1e-5
        for g in (X, Xt):
            second = (g(xs + h) - 2.0 * g(xs) + g(xs - h)) / h**2
            np.testing.assert_allclose(second, lam * g(xs), atol=1e-5)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            eigenpair(-1, 1.0)

    @pytest.mark.parametrize("n", [2.5, 0.5, True])
    def test_non_integer_index(self, n):
        with pytest.raises(ValueError, match="mode index must be an integer"):
            eigenpair(n, 1.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, -np.pi, np.nan, np.inf, -np.inf])
    def test_half_length_must_be_finite_and_positive(self, L):
        # not a ZeroDivisionError, sign-flipped sines or a nan eigenvalue
        with pytest.raises(ValueError, match=rf"^L must be finite and positive, got {L!r}$"):
            eigenpair(0, L)


class TestSolve:
    def test_scaled_square_modes(self, scaled_square_solution):
        sol = scaled_square_solution
        n = np.arange(11)
        assert np.all(sol.B == 0.0)  # even initial data: sine integrands fold to zero
        np.testing.assert_allclose(sol.A, scaled_square_A(n), atol=1e-8, rtol=0)

    def test_equilibrium(self):
        prob = HeatProblem(1.0, np.pi, 3.0, FunctionSpec(np.pi, Named("const", (3.0,))))
        sol = solve_heat(prob, 6)
        assert np.all(sol.A == 0.0) and np.all(sol.B == 0.0)
        for t in (0.0, 0.5, 7.0):
            assert heat_eval(sol, 0.3, t) == 3.0
            assert heat_eval_dx(sol, 0.3, t) == 0.0

    def test_linear_initial_reuses_identity_modes(self):
        # f(x) = x + 1 with c = 1: the shifted data is the identity, so B_n
        # must match its half-integer sine coefficients
        prob = HeatProblem(1.0, np.pi, 1.0, FunctionSpec(np.pi, Polynomial((1.0, 1.0))))
        sol = solve_heat(prob, 12)
        ident = antiperiodic_coefficients(FunctionSpec(np.pi, Named("identity")), 12)
        assert np.abs(sol.A).max() <= 1e-12
        np.testing.assert_allclose(sol.B, ident.beta, atol=2e-10, rtol=0)

    def test_incompatible_data_rejected(self):
        with pytest.raises(IncompatibleData):
            HeatProblem(1.0, np.pi, 1.0, FunctionSpec(np.pi, Named("identity")))

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_boundary_mean_rejected(self, c):
        # a NaN c passed the compatibility test, which is False for NaN
        with pytest.raises(ValueError, match=f"^boundary mean c must be finite, got {c!r}$"):
            HeatProblem(1.0, 1.0, c, FunctionSpec(1.0, Polynomial((1.0,))))

    def test_half_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HeatProblem(1.0, 2.0, 1.0, FunctionSpec(np.pi, Named("scaled-square")))

    def test_numpy_inputs_print_as_plain_floats(self):
        f = FunctionSpec(np.float64(1.0), Polynomial((1.0,)))
        with pytest.raises(ValueError, match="^boundary mean c must be finite, got nan$"):
            HeatProblem(1.0, 1.0, np.float64("nan"), f)
        with pytest.raises(ValueError, match="^problem half-length L=2.0 differs from the "
                                             "initial condition's L=1.0$"):
            HeatProblem(1.0, np.float64(2.0), 1.0, f)
        with pytest.raises(IncompatibleData, match=r"f\(L\) = 2.0 but 2c = 0.6$"):
            HeatProblem(1.0, 1.0, np.float64(0.3), f)


    def test_nonconvergence_is_tagged(self):
        # the modes are the half-integer coefficients of f - c: for the
        # identity every A_n folds to an exact zero and B_0 fails first
        problem = HeatProblem(1.0, np.pi, 0.0, FunctionSpec(np.pi, Named("identity")))
        with pytest.raises(NonConvergence) as info:
            solve_heat(problem, 2, 1e-18)
        assert (info.value.index, info.value.kind) == (0, "sin")
        assert str(info.value).startswith("half-sine coefficient n=0 did not converge: ")


class TestEval:
    def test_t0_matches_series_of_initial_data(self, scaled_square_problem, scaled_square_solution):
        coeffs = antiperiodic_coefficients(scaled_square_problem.initial, 10)
        xs = np.linspace(-np.pi, np.pi, 33)
        u0 = heat_eval(scaled_square_solution, xs, 0.0, 10)
        series0 = antiperiodic_partial_sum(coeffs, xs, 10)
        np.testing.assert_allclose(u0, series0, atol=1e-12, rtol=0)

    def test_long_time_settles_to_boundary_mean(self, scaled_square_solution):
        value = heat_eval(scaled_square_solution, 0.0, 50.0, 10)
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_negative_time(self, scaled_square_solution):
        with pytest.raises(NegativeTime):
            heat_eval(scaled_square_solution, 0.0, -0.1)
        with pytest.raises(NegativeTime):
            heat_eval_dx(scaled_square_solution, 0.0, -1e-9)
        # numpy times are named as plain floats
        for t in (np.float64(-1.0), np.array(-1.0)):
            with pytest.raises(NegativeTime, match=r"^heat solution is not defined for t=-1\.0 <"):
                heat_eval(scaled_square_solution, 0.0, t)

    @pytest.mark.parametrize("t", [np.nan, np.array([0.0, np.nan, 1.0])])
    def test_a_nan_time_is_refused_by_name(self, scaled_square_solution, t):
        for fn in (heat_eval, heat_eval_dx):
            with pytest.raises(ValueError, match=r"^heat solution is not defined for t=nan$"):
                fn(scaled_square_solution, 0.0, t)

    def test_order_exceeds(self, scaled_square_solution):
        with pytest.raises(OrderExceedsTruncation):
            heat_eval(scaled_square_solution, 0.0, 0.0, 11)

    @pytest.mark.parametrize("M", [2.5, 0.5, True])
    def test_non_integer_order(self, scaled_square_solution, M):
        for fn in (heat_eval, heat_eval_dx):
            with pytest.raises(ValueError, match="partial-sum order must be an integer"):
                fn(scaled_square_solution, 0.0, 0.0, M)

    def test_huge_time_decays_to_the_boundary_mean(self):
        # on L = 1, omega_10^2 k t overflows to inf at t = 1e306, so that
        # mode's decay is exactly 0.0, with no overflow warning (a warning
        # fails the test)
        sol = HeatSolution(1.0, 1.0, 0.75, np.ones(11), np.ones(11))
        assert heat_eval(sol, 0.25, 1e306) == 0.75
        assert heat_eval_dx(sol, 0.25, 1e306) == 0.0

    @pytest.mark.parametrize("fn", [heat_eval, heat_eval_dx])
    def test_the_basis_is_taken_once_for_every_time(self, basis_values, fn):
        # 40 modes on 101 points, 8 times: (3 + 16) x 101 values, not 8 x that
        sol = HeatSolution(1.0, 1.0, 0.75, np.ones(40), np.ones(40))
        fn(sol, np.linspace(-1.0, 1.0, 101), np.linspace(0.0, 1.0, 8))
        assert sum(basis_values) == two_level_values(40, 101) == 1919

    def test_modal_decay_envelope(self, scaled_square_solution):
        sol = scaled_square_solution
        bound = (np.abs(sol.A) + np.abs(sol.B)).sum()
        for t in (0.0, 0.1, 1.0, 5.0):
            dev = abs(heat_eval(sol, 0.5, t) - sol.boundary_mean)
            assert dev <= bound * np.exp(-sol.k * t / 4.0) + 1e-12

    def test_flux_at_origin_initially_zero(self, scaled_square_solution):
        # d/dx (x/pi)^2 vanishes at 0; the sine terms of the derivative series
        # vanish there termwise
        assert heat_eval_dx(scaled_square_solution, 0.0, 0.0, 10) == 0.0

    def test_flux_matches_initial_slope(self, scaled_square_solution):
        xs = np.linspace(-2.5, 2.5, 11)
        ux = heat_eval_dx(scaled_square_solution, xs, 0.0, 10)
        np.testing.assert_allclose(ux, 2.0 * xs / np.pi**2, atol=5e-3)


@pytest.mark.parametrize("prob", catalog_problems(), ids=lambda p: p.initial.body.__class__.__name__ + str(p.boundary_mean))
class TestBoundaryIdentities:
    def test_mean_and_flux_conditions(self, prob):
        sol = solve_heat(prob, 8)
        for t in (0.0, 0.1, 1.0, 10.0):
            for M in (0, 3, 8):
                u_sum = heat_eval(sol, -sol.L, t, M) + heat_eval(sol, sol.L, t, M)
                assert abs(u_sum - 2.0 * sol.boundary_mean) <= 1e-12
                ux_sum = heat_eval_dx(sol, -sol.L, t, M) + heat_eval_dx(sol, sol.L, t, M)
                assert abs(ux_sum) <= 1e-12


class TestVerifySolution:
    def test_scaled_square_residual(self, scaled_square_solution):
        xs = np.linspace(-0.9 * np.pi, 0.9 * np.pi, 21)
        report = verify_solution(scaled_square_solution, xs, [0.1, 0.5, 1.0, 2.0], 1e-4)
        assert report.max_residual <= 1e-5

    def test_equilibrium_residual_zero(self):
        prob = HeatProblem(1.0, np.pi, 2.0, FunctionSpec(np.pi, Named("const", (2.0,))))
        sol = solve_heat(prob, 4)
        xs = np.linspace(-2.0, 2.0, 9)
        report = verify_solution(sol, xs, [0.5, 1.0], 1e-4)
        assert report.max_residual == 0.0

    def test_second_order_in_h(self, scaled_square_solution):
        # in the truncation-dominated regime halving h divides the residual
        # by about four; with very small h rounding noise (eps / h^2) wins
        xs = np.linspace(-0.9 * np.pi, 0.9 * np.pi, 15)
        coarse = verify_solution(scaled_square_solution, xs, [0.25, 0.5, 1.0], 4e-3)
        fine = verify_solution(scaled_square_solution, xs, [0.25, 0.5, 1.0], 2e-3)
        assert coarse.max_residual / fine.max_residual == pytest.approx(4.0, abs=0.8)
        assert coarse.max_residual <= coarse.reference_scale

    @pytest.mark.parametrize("M", [None, 3])
    def test_residual_is_the_per_time_loop_bitwise(self, scaled_square_solution, M):
        sol, h = scaled_square_solution, 1e-3
        xs = np.linspace(-0.9 * np.pi, 0.9 * np.pi, 17)
        ts = [0.05, 0.25, 1.0, 3.0]
        worst = 0.0
        for t in ts:  # five scalar-time evaluations per time
            ut = (heat_eval(sol, xs, t + h, M) - heat_eval(sol, xs, t - h, M)) / (2.0 * h)
            uxx = (
                heat_eval(sol, xs + h, t, M)
                - 2.0 * heat_eval(sol, xs, t, M)
                + heat_eval(sol, xs - h, t, M)
            ) / (h * h)
            worst = max(worst, float(np.abs(ut - sol.k * uxx).max()))
        report = verify_solution(sol, xs, ts, h, M)
        assert report.max_residual.hex() == worst.hex()
        assert report.grid_shape == (17, 4)

    def test_grid_validation(self, scaled_square_solution):
        with pytest.raises(ValueError):
            verify_solution(scaled_square_solution, [np.pi], [0.5], 1e-4)
        with pytest.raises(ValueError):
            verify_solution(scaled_square_solution, [0.0], [1e-5], 1e-4)
        with pytest.raises(ValueError, match="interior"):
            verify_solution(scaled_square_solution, [0.0, np.nan], [0.5], 1e-4)
        with pytest.raises(ValueError, match="t - h > 0"):
            verify_solution(scaled_square_solution, [0.0], [0.5, np.nan], 1e-4)

    @pytest.mark.parametrize("xs, ts, counts", [([], [0.5, 1.0], "0 x and 2 t"),
                                                ([0.0, 1.0, 2.0], [], "3 x and 0 t")])
    def test_an_empty_grid_is_refused(self, scaled_square_solution, xs, ts, counts):
        # not numpy's "zero-size array to reduction operation maximum"
        with pytest.raises(ValueError, match=f"^residual grid is empty: {counts} values$"):
            verify_solution(scaled_square_solution, xs, ts, 1e-4)


def test_json_round_trip(scaled_square_solution):
    sol = scaled_square_solution
    d = to_dict(sol)
    assert d["kind"] == "heat" and d["N"] == 10 and d["c"] == 1.0
    back = from_dict(json.loads(json.dumps(d)))
    assert isinstance(back, HeatSolution)
    assert (back.k, back.L, back.boundary_mean) == (sol.k, sol.L, sol.boundary_mean)
    np.testing.assert_array_equal(back.A, sol.A)
    np.testing.assert_array_equal(back.B, sol.B)
