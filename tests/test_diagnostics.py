import numpy as np
import pytest

from antifourier import (
    AntiperiodicCoefficients,
    ClassicalCoefficients,
    FunctionSpec,
    InsufficientData,
    Named,
    antiperiodic_coefficients,
    classical_coefficients,
    compare_orders,
    decay_exponent,
    error_profile,
    gibbs_overshoot,
    partial_sum,
)
from antifourier.diagnostics import REPORT_COLUMNS


def identity_classical(N):
    n = np.arange(1, N + 1)
    return ClassicalCoefficients(np.pi, np.zeros(N + 1), 2.0 * (-1.0) ** (n + 1) / n)


def identity_anti(N):
    n = np.arange(N + 1)
    beta = 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)
    return AntiperiodicCoefficients(np.pi, 0.0, np.zeros(N + 1), beta)


def quadratic_classical(N):
    n = np.arange(1, N + 1)
    a = np.concatenate(([8.0 / 3.0], 4.0 * (-1.0) ** n / (np.pi**2 * n**2)))
    b = -4.0 * (-1.0) ** n / (np.pi * n)
    return ClassicalCoefficients(1.0, a, b)


def quadratic_anti(N):
    n = np.arange(N + 1)
    alpha = -32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3)
    beta = 16.0 * (-1.0) ** n / (np.pi**2 * (2 * n + 1) ** 2)
    return AntiperiodicCoefficients(1.0, 2.0, alpha, beta)


@pytest.fixture
def ident(identity_pi):
    return identity_pi


class TestErrorProfile:
    def test_classical_identity_endpoint_error_is_pi(self, ident):
        # the classical sum vanishes at +-pi termwise, so the error is pi exactly
        for M in (5, 50, 400):
            profile = error_profile(ident, identity_classical(400), M, 2001)
            assert profile.endpoint_error_right == np.pi
            assert profile.endpoint_error_left == np.pi

    def test_antiperiodic_identity_endpoint_error(self, ident):
        profile = error_profile(ident, identity_anti(400), 400, 2001)
        assert profile.endpoint_error_right <= 5e-3
        assert profile.endpoint_error_left <= 5e-3

    def test_const_sup_error_at_tolerance(self):
        spec = FunctionSpec(np.pi, Named("const", (2.0,)))
        series = antiperiodic_coefficients(spec, 16)
        profile = error_profile(spec, series, 16, 201)
        assert profile.sup_error <= 1e-10

    def test_sup_bounds_endpoints(self, ident):
        profile = error_profile(ident, identity_anti(100), 100, 1001)
        assert profile.sup_error >= max(
            profile.endpoint_error_left, profile.endpoint_error_right
        )

    def test_grid_must_be_odd(self, ident):
        with pytest.raises(ValueError):
            error_profile(ident, identity_anti(10), 10, 1000)
        with pytest.raises(ValueError):
            error_profile(ident, identity_anti(10), 10, 1)


class TestGibbsOvershoot:
    def test_classical_identity_near_limit(self, ident):
        # dense-grid maximum of S_1000 near pi: the overshoot above pi
        # approaches 2 Si(pi) - pi ~= 0.5622
        over = gibbs_overshoot(ident, identity_classical(1000), 1000, 0.1, 4001)
        assert 0.55 <= over <= 0.575

    def test_antiperiodic_identity_small_and_shrinking(self, ident):
        series = identity_anti(1000)
        over_200 = gibbs_overshoot(ident, series, 200, 0.1, 4001)
        over_1000 = gibbs_overshoot(ident, series, 1000, 0.1, 4001)
        assert abs(over_1000) <= 1e-2
        assert abs(over_1000) <= abs(over_200)

    def test_suppression_factor_at_400(self, ident):
        classical = gibbs_overshoot(ident, identity_classical(400), 400, 0.1, 4001)
        anti = gibbs_overshoot(ident, identity_anti(400), 400, 0.1, 4001)
        assert anti <= 0.1 * classical

    def test_const_overshoot_at_tolerance(self):
        spec = FunctionSpec(np.pi, Named("const", (1.0,)))
        series = antiperiodic_coefficients(spec, 8)
        assert abs(gibbs_overshoot(spec, series, 8, 0.1, 2001)) <= 1e-10

    def test_window_fraction_validated(self, ident):
        with pytest.raises(ValueError):
            gibbs_overshoot(ident, identity_anti(10), 10, 0.6)
        with pytest.raises(ValueError):
            gibbs_overshoot(ident, identity_anti(10), 10, 0.1, 100)


class TestDecayExponent:
    def test_identity_classical_first_order(self):
        assert decay_exponent(identity_classical(64)) == pytest.approx(1.0, abs=0.1)

    def test_identity_antiperiodic_second_order(self):
        assert decay_exponent(identity_anti(64)) == pytest.approx(2.0, abs=0.1)

    def test_quadratic_pair(self):
        # b_n ~ 1/n governs the classical fit; beta_n ~ 1/(2n+1)^2 the other
        assert decay_exponent(quadratic_classical(64)) == pytest.approx(1.0, abs=0.1)
        assert decay_exponent(quadratic_anti(64)) == pytest.approx(2.0, abs=0.1)

    def test_scale_invariance(self):
        c = identity_classical(64)
        scaled = ClassicalCoefficients(c.L, 7.5 * c.a, 7.5 * c.b)
        assert decay_exponent(scaled) == pytest.approx(decay_exponent(c), abs=1e-12)

    def test_insufficient_data(self):
        tiny = ClassicalCoefficients(1.0, np.zeros(9), np.zeros(8))
        with pytest.raises(InsufficientData):
            decay_exponent(tiny)

    def test_order_slices_the_fit(self):
        c = identity_classical(400)
        p_small = decay_exponent(c, order=40)
        p_large = decay_exponent(c, order=400)
        assert p_small == pytest.approx(1.0, abs=0.1)
        assert p_large == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("order", [None, 8, 17, 40, 64, 100])
    def test_equals_the_documented_fit_exactly(self, order):
        rng = np.random.default_rng(3)
        cos_w, sin_w = rng.standard_normal((2, 65)) / np.arange(1, 66) ** 1.5
        cos_w[::7] = sin_w[::7] = 1e-14  # numerical zeros, left out of the fit
        N = 64 if order is None else min(order, 64)

        def fit(n, c, s):
            mags = np.maximum(np.abs(c), np.abs(s))
            keep = (n >= max(2, N // 4)) & (n <= N) & (mags > 1e-13)
            return -np.polyfit(np.log(n[keep] + 1.0), np.log(mags[keep]), 1)[0]

        classical = ClassicalCoefficients(1.0, cos_w, sin_w[1:])
        anti = AntiperiodicCoefficients(1.0, 0.5, cos_w, sin_w)
        assert decay_exponent(classical, order) == fit(np.arange(1, 65), cos_w[1:], sin_w[1:])
        assert decay_exponent(anti, order) == fit(np.arange(65), cos_w, sin_w)

    def test_negative_order_is_insufficient_data(self):
        for series in (identity_classical(64), identity_anti(64)):
            with pytest.raises(InsufficientData):
                decay_exponent(series, order=-1)


class TestComparative:
    def test_antiperiodic_beats_classical_when_endpoints_disagree(self):
        # f(-L) != f(L): at M = 400 the half-integer series wins in sup norm
        ident = FunctionSpec(np.pi, Named("identity"))
        sup_c = error_profile(ident, identity_classical(400), 400, 2001).sup_error
        sup_a = error_profile(ident, identity_anti(400), 400, 2001).sup_error
        assert sup_a < sup_c

    def test_quadratic_sup_comparison(self, quadratic_unit):
        sup_c = error_profile(quadratic_unit, quadratic_classical(400), 400, 2001).sup_error
        sup_a = error_profile(quadratic_unit, quadratic_anti(400), 400, 2001).sup_error
        assert sup_a < sup_c


class TestCompareOrders:
    def test_report_rows(self, ident):
        classical = classical_coefficients(ident, 50)
        anti = antiperiodic_coefficients(ident, 50)
        rows = compare_orders(
            ident, classical, anti, orders=(10, 25, 50), grid_size=401,
            window_fraction=0.1, subgrid_points=2001,
        )
        assert len(rows) == 6
        kinds = [r.series_kind for r in rows]
        assert kinds == ["classical", "antiperiodic"] * 3
        for row in rows:
            for column in REPORT_COLUMNS:
                assert hasattr(row, column)
        by_kind = {(r.series_kind, r.order): r for r in rows}
        assert by_kind[("antiperiodic", 50)].sup_error < by_kind[("classical", 50)].sup_error


def test_partial_sum_dispatch(ident):
    assert partial_sum(identity_classical(8), np.pi, 8) == 0.0
    assert partial_sum(identity_anti(8), 0.0, 8) == 0.0
    with pytest.raises(TypeError):
        partial_sum(object(), 0.0)
