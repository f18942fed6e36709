import numpy as np
import pytest

from antifourier import (
    AntiperiodicCoefficients,
    ClassicalCoefficients,
    FunctionSpec,
    InsufficientData,
    Named,
    OrderExceedsTruncation,
    antiperiodic_coefficients,
    classical_coefficients,
    compare_orders,
    decay_exponent,
    error_profile,
    gibbs_overshoot,
    partial_sum,
)
from antifourier import diagnostics
from antifourier._kernels import trig_sum
from antifourier.catalog import Sampled
from antifourier.diagnostics import REPORT_COLUMNS, _ladder, _mirrored, _windows
from conftest import two_level_values


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


def on_unit_interval(series):
    """``series`` with its coefficients kept and L = 1."""
    if isinstance(series, ClassicalCoefficients):
        return ClassicalCoefficients(1.0, series.a, series.b)
    return AntiperiodicCoefficients(1.0, series.gamma, series.alpha, series.beta)


# both half-widths, the series' first
OTHER_HALF_WIDTH = r"series half-width L=1\.0 differs from the function's L=3\.141592653589793"


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

    @pytest.mark.parametrize("series", [identity_classical(8), identity_anti(8)])
    def test_a_series_of_another_half_width_is_refused(self, ident, series):
        with pytest.raises(ValueError, match=OTHER_HALF_WIDTH):
            error_profile(ident, on_unit_interval(series), 8, 101)

    def test_grid_must_be_odd(self, ident):
        with pytest.raises(ValueError):
            error_profile(ident, identity_anti(10), 10, 1000)
        with pytest.raises(ValueError):
            error_profile(ident, identity_anti(10), 10, 1)

    @pytest.mark.parametrize("grid_size", [301.0, True])
    def test_grid_size_must_be_an_integer(self, ident, grid_size):
        with pytest.raises(ValueError, match=f"^grid_size must be an integer, got {grid_size!r}$"):
            error_profile(ident, identity_anti(10), 10, grid_size)


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

    @pytest.mark.parametrize("series", [identity_classical(8), identity_anti(8)])
    def test_a_series_of_another_half_width_is_refused(self, ident, series):
        with pytest.raises(ValueError, match=OTHER_HALF_WIDTH):
            gibbs_overshoot(ident, on_unit_interval(series), 8, 0.1)

    def test_window_fraction_validated(self, ident):
        with pytest.raises(ValueError):
            gibbs_overshoot(ident, identity_anti(10), 10, 0.6)
        with pytest.raises(ValueError):
            gibbs_overshoot(ident, identity_anti(10), 10, 0.1, 100)

    @pytest.mark.parametrize("points", [2001.0, True])
    def test_subgrid_points_must_be_an_integer(self, ident, points):
        with pytest.raises(ValueError, match=f"^subgrid_points must be an integer, got {points!r}$"):
            gibbs_overshoot(ident, identity_anti(10), 10, 0.1, points)


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

    @pytest.mark.parametrize("order", [None, 8, 17, 40, 64])
    def test_equals_the_documented_fit_exactly(self, order):
        rng = np.random.default_rng(3)
        cos_w, sin_w = rng.standard_normal((2, 65)) / np.arange(1, 66) ** 1.5
        cos_w[::7] = sin_w[::7] = 1e-14  # numerical zeros, left out of the fit
        N = 64 if order is None else order

        def fit(n, c, s):
            mags = np.maximum(np.abs(c), np.abs(s))
            keep = (n >= max(2, N // 4)) & (n <= N) & (mags > 1e-13)
            return -np.polyfit(np.log(n[keep] + 1.0), np.log(mags[keep]), 1)[0]

        classical = ClassicalCoefficients(1.0, cos_w, sin_w[1:])
        anti = AntiperiodicCoefficients(1.0, 0.5, cos_w, sin_w)
        assert decay_exponent(classical, order) == fit(np.arange(1, 65), cos_w[1:], sin_w[1:])
        assert decay_exponent(anti, order) == fit(np.arange(65), cos_w, sin_w)

    @pytest.mark.parametrize("order, message", [
        (-1, "order must be nonnegative"),
        (-3, "order must be nonnegative"),
        (True, "order must be an integer, got True"),
        (2.5, "order must be an integer, got 2.5"),
        (np.int64(40), None),
    ], ids=["negative-one", "negative-three", "bool", "fraction", "numpy-integer"])
    def test_order_is_checked_as_a_partial_sum_order(self, order, message):
        # the rule of every order argument, named as the fit names it: not
        # InsufficientData for a negative order, not 1 for True, not a fit
        # sliced at 2.5
        for series in (identity_classical(64), identity_anti(64)):
            if message is None:
                assert decay_exponent(series, order) == decay_exponent(series, 40)
            else:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    decay_exponent(series, order)

    @pytest.mark.parametrize("order", [65, 100])
    def test_order_above_the_truncation_is_refused(self, order):
        # not silently the stored order N = 64
        for series in (identity_classical(64), identity_anti(64)):
            with pytest.raises(OrderExceedsTruncation,
                               match=f"^order={order} exceeds stored order N=64$"):
                decay_exponent(series, order)


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

    @pytest.mark.parametrize("moved", [(0,), (1,), (0, 1)])
    def test_series_of_another_half_width_are_refused(self, ident, moved):
        # a series on [-1, 1] would be read on the function's grid over
        # [-pi, pi] and compared there; one moved series is enough
        pair = [identity_classical(20), identity_anti(20)]
        for i in moved:
            pair[i] = on_unit_interval(pair[i])
        with pytest.raises(ValueError, match=OTHER_HALF_WIDTH):
            compare_orders(ident, *pair, (4, 10), 301, 0.1, 2001)

    def test_each_basis_value_is_taken_once(self, ident, basis_values):
        # the 400 and 401 modes of the two series, in one two-level sum call
        # on the grid and one on the right window, whose basis also gives the
        # left window's sums; each call takes one baby block:
        # (25 + 26 + 16) x (2,001 + 4,001) = 402,134
        compare_orders(ident, identity_classical(400), identity_anti(400))
        assert sum(basis_values) == two_level_values((400, 401), 2001 + 4001) == 402_134

    @pytest.mark.parametrize("M", [0, 1, 16, 17, 400])
    def test_a_partial_sum_takes_its_basis_once(self, basis_values, M):
        partial_sum(identity_classical(400), np.linspace(-np.pi, np.pi, 101), M)
        partial_sum(identity_anti(400), np.linspace(-np.pi, np.pi, 101), M)
        assert sum(basis_values) == two_level_values(M, 101) + two_level_values(M + 1, 101)


def random_series(rng, kind, N, L):
    weights = rng.standard_normal((2, N + 1)) * 10.0 ** rng.uniform(-3, 3, (2, N + 1))
    if kind == "classical":
        return ClassicalCoefficients(L, weights[0], weights[1][1:])
    return AntiperiodicCoefficients(L, float(rng.standard_normal()), *weights)


def sum_bound(series, M):
    """16 eps (|shift| + sum |weights|) of the order-M partial sum."""
    shift, _, cos_w, sin_w = series.terms(M)
    return 16.0 * np.finfo(float).eps * (abs(shift) + np.abs(cos_w).sum() + np.abs(sin_w).sum())


# unsorted, with a duplicate, order 0 and the top order 60; 15, 16, 31 and 32
# fill whole rows of 16 modes in one series or the other
LADDER = (25, 0, 60, 7, 25, 1, 40, 16, 31, 15, 32)


class TestLadder:
    @pytest.mark.parametrize("kind", ["classical", "antiperiodic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_order_is_the_partial_sum(self, kind, seed):
        rng = np.random.default_rng(seed)
        series = random_series(rng, kind, 60, float(10.0 ** rng.uniform(-2, 2)))
        for size in (1, 17, 301):
            grid, window = rng.uniform(-3 * series.L, 3 * series.L, (2, size))
            (ladder,) = _ladder([series], LADDER, grid, window)
            assert len(ladder) == len(LADDER)
            for M, sums in zip(LADDER, ladder):
                for x, value in zip((grid, window, -window[::-1]), sums):
                    assert np.abs(value - partial_sum(series, x, M)).max() <= sum_bound(series, M)

    @pytest.mark.parametrize("kind", ["classical", "antiperiodic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_the_left_window_sums_are_its_partial_sums(self, kind, seed):
        rng = np.random.default_rng(seed)
        series = random_series(rng, kind, 60, float(10.0 ** rng.uniform(-2, 2)))
        M = int(rng.integers(0, 61))
        right, left = _windows(series.L, float(rng.uniform(0.01, 0.49)), 2001)
        at_right, at_left = trig_sum(series.L, _mirrored([series.terms(M)]), right)
        assert np.array_equal(at_right, partial_sum(series, right, M))
        assert np.abs(at_left[::-1] - partial_sum(series, left, M)).max() <= sum_bound(series, M)

    @pytest.mark.parametrize("seed", range(3))
    def test_compare_rows_are_the_single_order_diagnostics(self, seed):
        rng = np.random.default_rng(seed)
        f = FunctionSpec(float(rng.uniform(0.5, 4.0)), Named("x-plus-sign"))
        classical = random_series(rng, "classical", 60, f.L)
        anti = random_series(rng, "antiperiodic", 60, f.L)
        rows = compare_orders(f, classical, anti, LADDER, 301, 0.2, 2001)
        assert [(row.series_kind, row.order) for row in rows] == [
            (kind, M) for M in LADDER for kind in ("classical", "antiperiodic")
        ]
        for row in rows:
            series = classical if row.series_kind == "classical" else anti
            bound = sum_bound(series, row.order)
            profile = error_profile(f, series, row.order, 301)
            assert abs(row.endpoint_error_left - profile.endpoint_error_left) <= bound
            assert abs(row.endpoint_error_right - profile.endpoint_error_right) <= bound
            assert abs(row.sup_error - profile.sup_error) <= bound
            assert abs(row.overshoot - gibbs_overshoot(f, series, row.order, 0.2, 2001)) <= bound
            decay = (decay_or_nan(classical, row.order), decay_or_nan(anti, row.order))
            assert np.array_equal(
                (row.decay_exponent_classical, row.decay_exponent_antiperiodic), decay,
                equal_nan=True,
            )
            assert (row.grid_size, row.window_fraction) == (301, 0.2)

    @pytest.mark.parametrize("body", ["table", "callable"])
    def test_one_ladder_call_serves_both_series_bitwise(self, monkeypatch, body):
        L = 1.5
        if body == "table":
            xs = np.linspace(-L, L, 500)
            ys = 0.5 * xs + 0.01 * np.random.default_rng(0).standard_normal(xs.size)
            f = FunctionSpec(L, Sampled(tuple(xs), tuple(ys)))
        else:
            f = FunctionSpec(L, Named("x-plus-sign"))
        classical, anti = classical_coefficients(f, 60), antiperiodic_coefficients(f, 60)
        ladder, calls = diagnostics._ladder, []

        def spy(series, orders, grid, window):
            calls.append((series, grid, window, ladder(series, orders, grid, window)))
            return calls[-1][-1]

        monkeypatch.setattr(diagnostics, "_ladder", spy)
        compare_orders(f, classical, anti, LADDER, 301, 0.2, 2001)
        assert len(calls) == 1
        [(series, grid, window, both)] = calls
        assert list(series) == [classical, anti]  # by identity
        assert len(both) == 2
        for one, shared in zip(series, both):
            (alone,) = ladder([one], LADDER, grid, window)  # a call of its own
            assert len(shared) == len(alone) == len(LADDER)
            for got, want in zip(shared, alone):
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_orders_are_checked_as_partial_sums_check_them(self, ident):
        classical, anti = identity_classical(50), identity_anti(50)
        with pytest.raises(ValueError):
            compare_orders(ident, classical, anti, (10, -1), 301, 0.1, 2001)
        with pytest.raises(OrderExceedsTruncation):
            compare_orders(ident, classical, anti, (10, 51), 301, 0.1, 2001)

    @pytest.mark.parametrize(
        "grid_size, window_fraction, subgrid_points",
        [(300, 0.1, 2001), (301, 0.6, 2001), (301, 0.1, 100)],
    )
    def test_grid_arguments_are_checked(self, ident, grid_size, window_fraction, subgrid_points):
        with pytest.raises(ValueError):
            compare_orders(
                ident, identity_classical(10), identity_anti(10), (4, 10),
                grid_size, window_fraction, subgrid_points,
            )

    @pytest.mark.parametrize("grid_size, subgrid_points, name", [
        (301.0, 2001, "grid_size"), (True, 2001, "grid_size"),
        (301, 2001.0, "subgrid_points"), (301, True, "subgrid_points"),
    ])
    def test_grid_sizes_must_be_integers(self, ident, grid_size, subgrid_points, name):
        bad = grid_size if name == "grid_size" else subgrid_points
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            compare_orders(ident, identity_classical(10), identity_anti(10), (4, 10),
                           grid_size, 0.1, subgrid_points)


def decay_or_nan(series, order):
    try:
        return decay_exponent(series, order)
    except InsufficientData:
        return np.nan


def test_partial_sum_dispatch(ident):
    assert partial_sum(identity_classical(8), np.pi, 8) == 0.0
    assert partial_sum(identity_anti(8), 0.0, 8) == 0.0
    with pytest.raises(TypeError):
        partial_sum(object(), 0.0)
