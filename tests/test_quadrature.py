import inspect

import numpy as np
import pytest

from antifourier import (
    DEFAULT_TOL,
    FunctionSpec,
    InvalidInterval,
    Named,
    NonConvergence,
    Sampled,
    classical_coefficients,
    integrate,
    integrate_result,
)
from antifourier import quadrature

TOL = DEFAULT_TOL


def x_sin_x(x):
    return x * np.sin(x)


def cos_sq_half(x):
    return np.cos(x / 2.0) ** 2


class TestConfig:
    """The settings of :func:`integrate`: the tolerance and the start panels."""

    def test_defaults(self):
        assert DEFAULT_TOL == 1e-10
        for fn in (integrate, integrate_result):
            parameters = inspect.signature(fn).parameters
            assert (parameters["abs_tol"].default, parameters["panels"].default) == (1e-10, 64)
        assert quadrature._MAX_ACTIVE_INTERVALS == 1 << 21

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"panels": 3},
            {"panels": 0},
            {"panels": 8.0},
            {"abs_tol": "1e-3"},
            {"abs_tol": None},
            {"abs_tol": True},
            {"abs_tol": float("nan")},
            {"abs_tol": float("inf")},
            {"panels": True},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            integrate(np.sin, 0.0, 1.0, **kwargs)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), "1e-3", None, True])
def test_a_bad_tolerance_is_refused_by_integrals_and_tables(bad):
    message = f"abs_tol must be positive and finite, got {bad!r}"
    table = FunctionSpec(1.0, Sampled((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)))
    for compute in (
        lambda: integrate(np.sin, 0.0, 1.0, bad),
        lambda: classical_coefficients(FunctionSpec(1.0, Named("identity")), 2, bad),
        lambda: classical_coefficients(table, 2, bad),
    ):
        with pytest.raises(ValueError) as info:
            compute()
        assert str(info.value) == message


@pytest.mark.parametrize("abs_tol", [DEFAULT_TOL], ids=["adaptive"])
class TestKnownIntegrals:
    def test_zero_integrand(self, abs_tol):
        assert integrate(lambda x: np.zeros_like(x), -np.pi, np.pi, abs_tol) == 0.0

    def test_x_sin_x(self, abs_tol):
        # antiderivative sin x - x cos x gives exactly 2 pi over [-pi, pi]
        assert integrate(x_sin_x, -np.pi, np.pi, abs_tol) == pytest.approx(2 * np.pi, abs=TOL)

    def test_cos_squared_half_angle(self, abs_tol):
        # (1 + cos x) / 2 integrates to pi over [-pi, pi]
        assert integrate(cos_sq_half, -np.pi, np.pi, abs_tol) == pytest.approx(np.pi, abs=TOL)

    @pytest.mark.parametrize("alpha,beta", [(2.5, -1.25), (0.0, 3.0), (1.0, 1.0)])
    def test_linearity(self, abs_tol, alpha, beta):
        combo = integrate(
            lambda x: alpha * x_sin_x(x) + beta * cos_sq_half(x), -np.pi, np.pi, abs_tol
        )
        parts = alpha * integrate(x_sin_x, -np.pi, np.pi, abs_tol) + beta * integrate(
            cos_sq_half, -np.pi, np.pi, abs_tol
        )
        assert abs(combo - parts) <= 3 * TOL

    @pytest.mark.parametrize(
        "odd",
        [lambda x: x**3, lambda x: x * np.cos(x), lambda x: np.sign(x) * x**2],
        ids=["cubic", "x-cos", "sign-xsq"],
    )
    def test_odd_annihilation(self, abs_tol, odd):
        assert abs(integrate(odd, -np.pi, np.pi, abs_tol)) <= TOL

    def test_cubic_within_tolerance(self, abs_tol):
        def f(x):
            return 3 * x**3 - 2 * x**2 + x - 5

        def antiderivative(x):
            return 0.75 * x**4 - 2 / 3 * x**3 + 0.5 * x**2 - 5 * x

        exact = antiderivative(2.0) - antiderivative(-1.0)
        assert integrate(f, -1.0, 2.0, abs_tol) == pytest.approx(exact, abs=TOL)


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        integrate(np.sin, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        integrate(np.sin, 2.0, -1.0)


def test_nonconvergence_adaptive_depth(monkeypatch):
    # a step runs from 4 panels to 32, where another level would pass 48 x 32
    # abscissae
    monkeypatch.setattr(quadrature, "_MAX_ACTIVE_INTERVALS", 48 * 32)
    with pytest.raises(NonConvergence) as info:
        integrate(step, 0.0, 1.0, 1e-14, panels=4)
    assert info.value.target == 1e-14
    assert str(info.value).startswith("Gauss-Legendre budget exhausted at 32 panels ")


def test_nonconvergence_below_machine_precision():
    # tolerance far below what doubles can deliver for an O(1) integral
    with pytest.raises(NonConvergence):
        integrate(np.exp, 0.0, 1.0, 1e-18)


def test_deterministic_evaluation_counts():
    first = integrate_result(x_sin_x, -np.pi, np.pi)
    second = integrate_result(x_sin_x, -np.pi, np.pi)
    assert first == second
    assert first.evaluations > 0
    assert first.error_estimate <= TOL


def test_evaluation_count_reuses_boundaries():
    # An identically zero integrand is accepted on the start panels: 16 + 32
    # nodes on each of 64 panels, the ends never evaluated.
    res = integrate_result(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.value == 0.0
    assert (res.evaluations, res.refinements) == (48 * 64, 0)


# One-integrand corpus with closed forms: kinks, a steep step, fast
# oscillation, Runge's function, a high power and a square-root end.
CORPUS = {
    "kink-1": (lambda x: np.abs(x - 0.3), -1.0, 2.0, (1.3**2 + 1.7**2) / 2),
    "kink-1.1": (lambda x: np.abs(x - 0.3) ** 1.1, -1.0, 2.0, (1.3**2.1 + 1.7**2.1) / 2.1),
    "kink-1.2": (lambda x: np.abs(x - 0.3) ** 1.2, -1.0, 2.0, (1.3**2.2 + 1.7**2.2) / 2.2),
    "kink-1.5": (lambda x: np.abs(x - 0.3) ** 1.5, -1.0, 2.0, (1.3**2.5 + 1.7**2.5) / 2.5),
    # log cosh(1000 (x - 0.3)) at 2 and -1 is 1700 - log 2 and 1300 - log 2
    "tanh-1000": (lambda x: np.tanh(1000.0 * (x - 0.3)), -1.0, 2.0, 0.4),
    "sin-1000": (lambda x: np.sin(1000.0 * x), 0.0, 1.0, (1.0 - np.cos(1000.0)) / 1000.0),
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x**2), -1.0, 1.0, 0.4 * np.arctan(5.0)),
    "x^20": (lambda x: x**20, -1.0, 1.0, 2.0 / 21.0),
    "sqrt": (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
}


@pytest.mark.parametrize("name", CORPUS)
def test_one_integrand_meets_its_tolerance(name):
    f, a, b, exact = CORPUS[name]
    assert abs(integrate(f, a, b) - exact) <= TOL


@pytest.mark.parametrize(
    "f,rows,expected",
    [
        (lambda x: 1.0, None, "(len(x),) = (3072,), got float64 values of shape ()"),
        (lambda x: x[:-1], None, "(len(x),) = (3072,), got float64 values of shape (3071,)"),
        (lambda x: np.exp(1j * x), None,
         "(len(x),) = (3072,), got complex128 values of shape (3072,)"),
        (lambda centres, half, idx: np.ones((3, 1, centres.size)), 2,
         "(3, len(idx), len(centres)) = (3, 2, 64), got float64 values of shape (3, 1, 64)"),
    ],
    ids=["scalar", "wrong-length", "complex", "wrong-row-count"],
)
def test_a_malformed_integrand_is_refused(f, rows, expected):
    with pytest.raises(ValueError) as info:
        integrate(f, 0.0, 1.0, rows=rows)
    assert str(info.value) == f"the integrand must return real values of shape {expected}"



# Rows of one several-row run: smooth, oscillating, kinked, a steep step, zero.
ROWS = (
    x_sin_x,
    lambda x: np.sin(7.0 * x) * x**2,
    lambda x: np.abs(x - 0.3) ** 1.5,
    lambda x: np.tanh(40.0 * (x - 0.7)),
    np.zeros_like,
    np.exp,
)


def _x2_sin_7x(x):
    # an antiderivative of x^2 sin 7x
    return -(x**2) * np.cos(7.0 * x) / 7.0 + 2.0 * x * np.sin(7.0 * x) / 49.0 + (
        2.0 * np.cos(7.0 * x) / 343.0)


# The integrals of ROWS over [-1, 2], in closed form.
EXACT = np.array([
    np.sin(2.0) - 2.0 * np.cos(2.0) + np.sin(1.0) - np.cos(1.0),
    _x2_sin_7x(2.0) - _x2_sin_7x(-1.0),
    (1.3**2.5 + 1.7**2.5) / 2.5,
    (np.log(np.cosh(52.0)) - np.log(np.cosh(68.0))) / 40.0,
    0.0,
    np.exp(2.0) - np.exp(-1.0),
])


def stacked(fs, calls=None):
    """Panel rule whose row i is the plain integrand ``fs[i]``; ``calls``
    records the (rows, abscissae) of every call."""

    def rule(centres, half, idx):
        if calls is not None:
            calls.append((tuple(idx.tolist()), 48 * len(centres)))
        return np.stack([quadrature._panel_sums(fs[i], centres, half) for i in idx], axis=1)

    return rule


def step(x):
    return np.where(x < 0.3, 1.0, 0.0)


def assert_rows_are_one_row_runs(result, fs, a, b, **settings):
    for i, g in enumerate(fs):
        alone = integrate_result(stacked([g]), a, b, rows=1, **settings)
        assert result.value[i].tobytes() == alone.value.tobytes()
        assert result.error_estimate[i].tobytes() == alone.error_estimate.tobytes()
        assert (result.evaluations[i], result.refinements[i]) == (
            alone.evaluations[0], alone.refinements[0])


@pytest.mark.parametrize("cap", [quadrature._MAX_CELLS, 1 << 9], ids=["default-cap", "deferring"])
def test_rows_are_their_one_row_runs_bitwise(monkeypatch, cap):
    # the small cap takes the rows in blocks of 512 // p, one call each
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    for settings in ({}, {"abs_tol": 1e-12, "panels": 6}):
        result = integrate_result(stacked(ROWS), -1.0, 2.0, rows=len(ROWS), **settings)
        assert_rows_are_one_row_runs(result, ROWS, -1.0, 2.0, **settings)
        assert integrate(stacked(ROWS), -1.0, 2.0, rows=len(ROWS), **settings).tobytes() == (
            result.value.tobytes())
        assert result.refinements.max() > 0  # some rows refine, some do not
        assert (np.abs(result.value - EXACT) <= 2.0 * settings.get("abs_tol", TOL)).all()


def test_scalar_result_keeps_its_types():
    res = integrate_result(x_sin_x, -np.pi, np.pi)
    assert [type(v) for v in (res.value, res.error_estimate, res.evaluations, res.refinements)] == [
        float, float, int, int]


@pytest.mark.parametrize("panels", [2, 6, 64])
def test_one_integrand_is_its_one_row_run(panels):
    res = integrate_result(ROWS[2], -1.0, 2.0, panels=panels)
    alone = integrate_result(stacked([ROWS[2]]), -1.0, 2.0, rows=1, panels=panels)
    fields = (res.value, res.error_estimate, res.evaluations, res.refinements)
    assert [type(v) for v in fields] == [float, float, int, int]
    assert fields == (alone.value[0], alone.error_estimate[0], alone.evaluations[0],
                      alone.refinements[0])
    assert res.value.hex() == alone.value[0].hex()
    assert res.refinements > 0


def test_each_row_counts_its_own_evaluations():
    # 16 + 32 nodes on each of 64 panels, and twice that for each doubling
    res = integrate_result(stacked([np.zeros_like, step, np.zeros_like]), 0.0, 1.0, rows=3,
                           abs_tol=1e-6)
    assert res.refinements.tolist() == [0, 5, 0]
    assert res.evaluations.tolist() == [48 * 64, 48 * 64 * (1 + 2 + 4 + 8 + 16 + 32), 48 * 64]


@pytest.mark.parametrize("panels", [2, 64, 102, 1000])
def test_a_constant_row_is_exact(panels):
    # each weight vector sums to exactly 2.0, and the panels are summed before
    # one division by 2p
    ones = stacked([np.ones_like, lambda x: np.full_like(x, 0.5)])
    assert integrate(ones, -1.0, 2.0, rows=2, panels=panels).tolist() == [3.0, 1.5]


def test_values_near_the_largest_double_integrate():
    # a power of two scales the panel sums before their sum, so 64 panel sums
    # of about 2e307 do not overflow it
    big = stacked([lambda x: np.full_like(x, 1e307)])
    assert integrate(big, 0.0, 1.0, 1e300, rows=1) == pytest.approx(1e307, rel=1e-15)


def test_row_count_must_be_positive():
    with pytest.raises(ValueError):
        integrate(stacked(ROWS), 0.0, 1.0, rows=0)
    with pytest.raises(ValueError, match="rows must be an integer, got 2.0"):
        integrate(stacked(ROWS), 0.0, 1.0, rows=2.0)


def test_lowest_failed_row_is_raised(monkeypatch):
    # row 2 overflows at once, on 8 panels; row 1 jumps and runs to the budget,
    # 32 panels, where another level would pass 4 x 48 x 8 abscissae
    monkeypatch.setattr(quadrature, "_MAX_ACTIVE_INTERVALS", 4 * 48 * 8)
    fs = (np.zeros_like, step, lambda x: np.full_like(x, 1e308))
    with pytest.raises(NonConvergence) as first:
        integrate(stacked(fs[2:]), 0.0, 1.0, rows=1, panels=8)
    assert str(first.value) == "the integrand's values overflow the Gauss-Legendre rule on 8 panels"
    with pytest.raises(NonConvergence) as alone:
        integrate(stacked(fs[1:2]), 0.0, 1.0, rows=1, panels=8)
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs), 0.0, 1.0, rows=3, panels=8)
    assert (info.value.index, alone.value.index) == (1, 0)
    assert str(info.value) == str(alone.value)
    assert str(info.value).startswith("Gauss-Legendre budget exhausted at 32 panels ")
    assert (info.value.achieved, info.value.target) == (alone.value.achieved, 1e-10)


def test_rows_failing_at_one_depth_raise_the_lowest():
    fs = (np.zeros_like, np.exp, np.exp)  # 1e-18 is unattainable for both
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs), 0.0, 1.0, 1e-18, rows=3, panels=8)
    assert info.value.index == 1
    assert str(info.value).startswith("abs_tol=1e-18 is below the error attainable")


def test_a_failure_stops_the_waiting_rows_above_it(monkeypatch):
    # row 2 overflows on the first 8 panels; row 3 has a kink and waits to
    # refine, but stops there, while row 1 goes on to the budget and is raised
    kink = ROWS[2]
    assert integrate_result(stacked([kink]), 0.0, 1.0, rows=1, panels=8).refinements[0] == 5
    monkeypatch.setattr(quadrature, "_MAX_ACTIVE_INTERVALS", 4 * 48 * 8)
    fs = (np.zeros_like, step, lambda x: np.full_like(x, 1e308), kink)
    calls = []
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs, calls), 0.0, 1.0, rows=4, panels=8)
    assert info.value.index == 1
    assert calls == [((0, 1, 2, 3), 48 * 8), ((1,), 48 * 16), ((1,), 48 * 32)]


def test_one_row_runs_keep_their_bits():
    # both are met on the 64 start panels
    for g, a, b, pinned in (
        (x_sin_x, -np.pi, np.pi, ("0x1.921fb54442d18p+2", "0x1.921fb54442d18p-50")),
        (lambda x: np.sin(40.0 * x) * x, 0.0, 3.0,
         ("-0x1.f142933a7dcc7p-5", "0x1.dd6c000000000p-49")),
    ):
        res = integrate_result(g, a, b)
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.refinements) == (
            *pinned, 48 * 64, 0)
        alone = integrate_result(stacked([g]), a, b, rows=1)
        assert (res.value.hex(), res.error_estimate.hex()) == (
            alone.value[0].hex(), alone.error_estimate[0].hex())


def test_values_that_overflow_the_rule_fail_at_once():
    # finite values whose sums overflow fail on the first panels, with no warning
    fs = (x_sin_x, lambda x: np.full_like(x, 1e308), np.exp)
    calls = []
    with pytest.raises(NonConvergence) as info:
        integrate(stacked(fs, calls), 0.0, 1.0, rows=3)
    assert (info.value.index, info.value.achieved) == (1, None)
    assert str(info.value) == "the integrand's values overflow the Gauss-Legendre rule on 64 panels"
    assert calls == [((0, 1, 2), 48 * 64)]


def test_a_row_with_a_jump_fails_within_the_budget():
    # the panels double from 64 while another level stays within 2^21
    # abscissae a row: 10 levels, the last on 32,768 panels
    calls = []
    with pytest.raises(NonConvergence) as info:
        integrate(stacked([step], calls), 0.0, 1.0, rows=1)
    assert str(info.value).startswith("Gauss-Legendre budget exhausted at 32768 panels ")
    assert sum(points for _, points in calls) == 48 * 64 * (2**10 - 1)
    assert 48 * 32768 <= quadrature._MAX_ACTIVE_INTERVALS < 2 * 48 * 32768


def test_integrand_calls_stay_within_the_cap(monkeypatch):
    cap = 1 << 10
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    # 29 smooth rows and one with a kink, which refines alone
    fs = [lambda x, k=k: np.sin(k * x) * x for k in range(29)] + [ROWS[2]]
    calls = []
    result = integrate_result(stacked(fs, calls), 0.0, 3.0, rows=len(fs))
    assert all(len(rows) * (points // 48) <= cap for rows, points in calls)
    # the panel sums of cap / 64 rows at a time on the 64 start panels; then
    # the kink row alone
    assert {len(rows) for rows, _ in calls} == {16, 14, 1}
    assert_rows_are_one_row_runs(result, fs, 0.0, 3.0)
    # a plain integrand receives up to cap / 48 = 21 panels a call
    sizes = []
    integrate(lambda x: sizes.append(x.size) or ROWS[2](x), 0.0, 3.0)
    assert max(sizes) == 21 * 48
