import numpy as np
import pytest

from antifourier import (
    InvalidInterval,
    NonConvergence,
    QuadratureConfig,
    integrate,
    integrate_result,
)
from antifourier import quadrature

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



# Rows of one several-row run: smooth, oscillating, kinked, a steep step, zero.
ROWS = (
    x_sin_x,
    lambda x: np.sin(7.0 * x) * x**2,
    lambda x: np.abs(x - 0.3) ** 1.5,
    lambda x: np.tanh(40.0 * (x - 0.7)),
    np.zeros_like,
    np.exp,
)


def stacked(fs, calls=None):
    """Several-row integrand whose row i is ``fs[i]``; ``calls`` records the
    (rows, points) of every call."""

    def f(x, idx):
        if calls is not None:
            calls.append((len(idx), len(x)))
        return np.array([fs[i](x) for i in idx])

    return f


def assert_rows_are_one_row_runs(result, fs, a, b, cfg):
    for i, g in enumerate(fs):
        alone = integrate_result(g, a, b, cfg)
        assert result.value[i].tobytes() == np.float64(alone.value).tobytes()
        assert result.error_estimate[i].tobytes() == np.float64(alone.error_estimate).tobytes()
        assert (result.evaluations[i], result.refinements[i]) == (
            alone.evaluations, alone.refinements)


@pytest.mark.parametrize("cap", [quadrature._MAX_CELLS, 1 << 9], ids=["default-cap", "deferring"])
def test_rows_are_their_one_row_runs_bitwise(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    for cfg in (ADAPTIVE, QuadratureConfig(abs_tol=1e-12, base_panels=6)):
        result = integrate_result(stacked(ROWS), -1.0, 2.0, cfg, rows=len(ROWS))
        assert_rows_are_one_row_runs(result, ROWS, -1.0, 2.0, cfg)
        assert integrate(stacked(ROWS), -1.0, 2.0, cfg, rows=len(ROWS)).tobytes() == (
            result.value.tobytes())


def test_scalar_result_keeps_its_types():
    res = integrate_result(x_sin_x, -np.pi, np.pi)
    assert [type(v) for v in (res.value, res.error_estimate, res.evaluations, res.refinements)] == [
        float, float, int, int]


def test_each_row_counts_its_own_evaluations():
    res = integrate_result(stacked([np.zeros_like] * 3), 0.0, 1.0, ADAPTIVE, rows=3)
    assert res.evaluations.tolist() == [65 + 64 + 128] * 3


def test_row_count_must_be_positive():
    with pytest.raises(ValueError):
        integrate(stacked(ROWS), 0.0, 1.0, rows=0)


def test_lowest_failed_row_is_raised(monkeypatch):
    # row 2 oscillates everywhere and passes the interval budget at depth 0;
    # row 1 keeps only the interval at its jump and exhausts the depth later
    monkeypatch.setattr(quadrature, "_MAX_ACTIVE_INTERVALS", 8)
    cfg = QuadratureConfig(max_subdivisions=3, base_panels=8)
    fs = (np.zeros_like, lambda x: np.where(x < 0.3, 1.0, 0.0), lambda x: np.sin(50.0 * x))
    with pytest.raises(NonConvergence) as first:
        integrate(fs[2], 0.0, 1.0, cfg)
    assert "interval budget exceeded at depth 0" in str(first.value)
    with pytest.raises(NonConvergence) as alone:
        integrate(fs[1], 0.0, 1.0, cfg)
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs), 0.0, 1.0, cfg, rows=3)
    assert info.value.index == 1
    assert str(info.value) == str(alone.value)
    assert str(info.value).startswith("adaptive Simpson exhausted max_subdivisions=3 ")
    assert (info.value.achieved, info.value.target) == (alone.value.achieved, 1e-10)
    assert alone.value.index is None


def test_rows_failing_at_one_depth_raise_the_lowest(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_ACTIVE_INTERVALS", 8)
    fs = (np.zeros_like, lambda x: np.sin(50.0 * x), lambda x: np.sin(60.0 * x))
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs), 0.0, 1.0, QuadratureConfig(base_panels=8), rows=3)
    assert info.value.index == 1
    assert "interval budget exceeded at depth 0" in str(info.value)


def test_a_failure_stops_the_waiting_rows_above_it(monkeypatch):
    # the cap leaves row 3 waiting at depth 1; rows 1-3 all fail at depth 3
    monkeypatch.setattr(quadrature, "_MAX_CELLS", 64)
    cfg = QuadratureConfig(max_subdivisions=3, base_panels=8)
    step = lambda x: np.where(x < 0.3, 1.0, 0.0)  # noqa: E731
    fs = (np.zeros_like, step, lambda x: np.sin(40.0 * x), lambda x: np.sin(41.0 * x))
    calls = []
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs, calls), 0.0, 1.0, cfg, rows=4)
    assert info.value.index == 1
    assert (2, 32) in calls  # rows 1 and 2 went on without row 3


def test_one_row_runs_keep_their_bits():
    # each depth adds its accepted intervals with one numpy sum, in interval order
    res = integrate_result(x_sin_x, -np.pi, np.pi)
    assert (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.refinements) == (
        "0x1.921fb54442d1ap+2", "0x1.98132e565d555p-36", 1769, 3)
    res = integrate_result(lambda x: np.sin(40.0 * x) * x, 0.0, 3.0)
    assert (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.refinements) == (
        "-0x1.f142933a7dd44p-5", "0x1.62ae01be8f6abp-35", 17061, 7)


def test_values_that_overflow_the_rule_fail_at_once():
    # finite values whose Simpson sums overflow fail at depth 0, with no warning
    fs = (x_sin_x, lambda x: np.full_like(x, 1e308), np.exp)
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs), 0.0, 1.0, rows=3)
    assert (info.value.index, info.value.achieved) == (1, None)
    assert str(info.value) == "the integrand's values overflow the Simpson rule at depth 0"


def test_integrand_calls_stay_within_the_cap(monkeypatch):
    cap = 1 << 10
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    fs = [lambda x, k=k: np.sin(k * x) * x for k in range(12)]
    calls, splits = [], []
    part = quadrature._part
    monkeypatch.setattr(quadrature, "_part", lambda *args: splits.append(args[0]) or part(*args))
    result = integrate_result(stacked(fs, calls), 0.0, 3.0, ADAPTIVE, rows=len(fs))
    assert all(rows * points <= cap for rows, points in calls if rows > 1)
    assert splits  # the cap deferred rows
    assert_rows_are_one_row_runs(result, fs, 0.0, 3.0, ADAPTIVE)
