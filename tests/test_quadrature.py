import numpy as np
import pytest

from antifourier import (
    InvalidInterval,
    NonConvergence,
    QuadratureConfig,
    integrate,
    integrate_result,
)

ADAPTIVE = QuadratureConfig()
TOL = ADAPTIVE.abs_tol


def x_sin_x(x):
    return x * np.sin(x)


def cos_sq_half(x):
    return np.cos(x / 2.0) ** 2


class TestConfig:
    def test_defaults(self):
        assert ADAPTIVE.abs_tol == 1e-10
        assert ADAPTIVE.base_panels == 64
        assert ADAPTIVE.max_subdivisions == 30

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"base_panels": 3},
            {"base_panels": 0},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


@pytest.mark.parametrize("cfg", [ADAPTIVE], ids=["adaptive"])
class TestKnownIntegrals:
    def test_zero_integrand(self, cfg):
        assert integrate(lambda x: np.zeros_like(x), -np.pi, np.pi, cfg) == 0.0

    def test_x_sin_x(self, cfg):
        # antiderivative sin x - x cos x gives exactly 2 pi over [-pi, pi]
        assert integrate(x_sin_x, -np.pi, np.pi, cfg) == pytest.approx(2 * np.pi, abs=TOL)

    def test_cos_squared_half_angle(self, cfg):
        # (1 + cos x) / 2 integrates to pi over [-pi, pi]
        assert integrate(cos_sq_half, -np.pi, np.pi, cfg) == pytest.approx(np.pi, abs=TOL)

    @pytest.mark.parametrize("alpha,beta", [(2.5, -1.25), (0.0, 3.0), (1.0, 1.0)])
    def test_linearity(self, cfg, alpha, beta):
        combo = integrate(lambda x: alpha * x_sin_x(x) + beta * cos_sq_half(x), -np.pi, np.pi, cfg)
        parts = alpha * integrate(x_sin_x, -np.pi, np.pi, cfg) + beta * integrate(
            cos_sq_half, -np.pi, np.pi, cfg
        )
        assert abs(combo - parts) <= 3 * TOL

    @pytest.mark.parametrize(
        "odd",
        [lambda x: x**3, lambda x: x * np.cos(x), lambda x: np.sign(x) * x**2],
        ids=["cubic", "x-cos", "sign-xsq"],
    )
    def test_odd_annihilation(self, cfg, odd):
        assert abs(integrate(odd, -np.pi, np.pi, cfg)) <= TOL

    def test_cubic_within_tolerance(self, cfg):
        def f(x):
            return 3 * x**3 - 2 * x**2 + x - 5

        def antiderivative(x):
            return 0.75 * x**4 - 2 / 3 * x**3 + 0.5 * x**2 - 5 * x

        exact = antiderivative(2.0) - antiderivative(-1.0)
        assert integrate(f, -1.0, 2.0, cfg) == pytest.approx(exact, abs=TOL)


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        integrate(np.sin, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        integrate(np.sin, 2.0, -1.0)


def test_nonconvergence_adaptive_depth():
    cfg = QuadratureConfig(abs_tol=1e-14, max_subdivisions=2, base_panels=2)
    with pytest.raises(NonConvergence) as info:
        integrate(np.exp, 0.0, 1.0, cfg)
    assert info.value.target == 1e-14


def test_nonconvergence_below_machine_precision():
    # tolerance far below what doubles can deliver for an O(1) integral
    cfg = QuadratureConfig(abs_tol=1e-18)
    with pytest.raises(NonConvergence):
        integrate(np.exp, 0.0, 1.0, cfg)


def test_deterministic_evaluation_counts():
    first = integrate_result(x_sin_x, -np.pi, np.pi, ADAPTIVE)
    second = integrate_result(x_sin_x, -np.pi, np.pi, ADAPTIVE)
    assert first == second
    assert first.evaluations > 0
    assert first.error_estimate <= TOL


def test_evaluation_count_reuses_boundaries():
    # An identically zero integrand is accepted on the first adaptive pass:
    # 65 edges + 64 midpoints + 2 * 64 half midpoints, nothing re-evaluated.
    res = integrate_result(lambda x: np.zeros_like(x), 0.0, 1.0, ADAPTIVE)
    assert res.value == 0.0
    assert res.evaluations == 65 + 64 + 128

