import json

import numpy as np
import pytest

from antifourier import (
    AntiperiodicCoefficients,
    FunctionSpec,
    Named,
    NonConvergence,
    OrderExceedsTruncation,
    Polynomial,
    QuadratureConfig,
    Sampled,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    coefficients_via_periodic_split,
    half_basis,
    integrate,
    jordan_midpoint,
    shift_gamma,
)
from antifourier.io import from_dict, to_dict
from conftest import catalog_specs


def identity_beta(n):
    return 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)


def identity_anti_coefficients(N):
    """Closed-form half-integer coefficients of f(x) = x on [-pi, pi]."""
    n = np.arange(N + 1)
    return AntiperiodicCoefficients(np.pi, 0.0, np.zeros(N + 1), identity_beta(n))


class TestShiftGamma:
    def test_identity(self, identity_pi):
        assert shift_gamma(identity_pi) == 0.0

    def test_quadratic(self, quadratic_unit):
        assert shift_gamma(quadratic_unit) == 2.0

    @pytest.mark.parametrize("c", [0.0, 1.0, -3.25])
    def test_const(self, c):
        assert shift_gamma(FunctionSpec(1.0, Named("const", (c,)))) == c


class TestHalfBasis:
    def test_endpoint_values_are_exact(self):
        assert half_basis(0, np.pi, np.pi) == (0.0, 1.0)
        assert half_basis(1, np.pi, np.pi) == (0.0, -1.0)
        assert half_basis(0, 1.0, 0.0) == (1.0, 0.0)

    def test_matches_naive_trig(self):
        xs = np.linspace(-2 * np.pi, 2 * np.pi, 101)
        for n in (0, 1, 5):
            c, s = half_basis(n, np.pi, xs)
            np.testing.assert_allclose(c, np.cos((2 * n + 1) * xs / 2), atol=1e-14)
            np.testing.assert_allclose(s, np.sin((2 * n + 1) * xs / 2), atol=1e-14)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            half_basis(-1, 1.0, 0.0)


class TestCoefficients:
    def test_identity_closed_form(self, identity_pi):
        c = antiperiodic_coefficients(identity_pi, 32)
        assert c.gamma == 0.0
        assert np.all(c.alpha == 0.0)
        n = np.arange(33)
        np.testing.assert_allclose(c.beta, identity_beta(n), atol=1e-8, rtol=0)

    def test_quadratic_closed_form(self, quadratic_unit):
        c = antiperiodic_coefficients(quadratic_unit, 32)
        assert c.gamma == 2.0
        n = np.arange(33)
        np.testing.assert_allclose(
            c.alpha, -32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3), atol=1e-8, rtol=0
        )
        np.testing.assert_allclose(
            c.beta, 16.0 * (-1.0) ** n / (np.pi**2 * (2 * n + 1) ** 2), atol=1e-8, rtol=0
        )

    def test_const_all_zero(self):
        c = antiperiodic_coefficients(FunctionSpec(1.0, Named("const", (4.0,))), 8)
        assert c.gamma == 4.0
        assert np.all(c.alpha == 0.0) and np.all(c.beta == 0.0)

    def test_two_point_table_matches_closed_form(self):
        table = FunctionSpec(np.pi, Sampled((-np.pi, np.pi), (-np.pi, np.pi)))
        c = antiperiodic_coefficients(table, 16)
        n = np.arange(17)
        assert np.all(c.alpha == 0.0)
        np.testing.assert_allclose(c.beta, identity_beta(n), atol=1e-12, rtol=0)

    def test_shift_consistency(self, identity_pi):
        shifted = FunctionSpec(np.pi, Polynomial((1.5, 1.0)))
        base = antiperiodic_coefficients(identity_pi, 8)
        up = antiperiodic_coefficients(shifted, 8)
        assert up.gamma == pytest.approx(base.gamma + 1.5, abs=1e-12)
        np.testing.assert_allclose(up.alpha, base.alpha, atol=2e-10, rtol=0)
        np.testing.assert_allclose(up.beta, base.beta, atol=2e-10, rtol=0)

    def test_nonconvergence_is_tagged(self, identity_pi):
        # every alpha_n of the odd identity folds to an exact zero, so beta_0
        # is the first integral that cannot reach the tolerance
        cfg = QuadratureConfig(abs_tol=1e-18)
        with pytest.raises(NonConvergence) as info:
            antiperiodic_coefficients(identity_pi, 2, cfg)
        assert (info.value.index, info.value.kind) == (0, "sin")
        assert str(info.value).startswith("half-sine coefficient n=0 did not converge: ")


class TestPartialSum:
    def test_x_zero_is_gamma_plus_alpha_sum(self, quadratic_unit):
        c = antiperiodic_coefficients(quadratic_unit, 8)
        expected = c.gamma + np.tensordot(c.alpha, np.ones(9), axes=1)
        assert antiperiodic_partial_sum(c, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_identity_endpoint_value(self):
        # the tail sum gives AS_400(pi) = pi - 1.5876e-3; the stated bound
        # (8/pi) sum_{n>400} (2n+1)^-2 is between 1.5e-3 and 1.6e-3
        c = identity_anti_coefficients(400)
        err = np.pi - antiperiodic_partial_sum(c, np.pi, 400)
        assert 1.5e-3 <= err <= 1.6e-3

    def test_identity_endpoint_rate(self):
        # |AS_M(pi) - pi| <= (4/pi) / M, monotone in M
        c = identity_anti_coefficients(400)
        errs = []
        for M in (25, 50, 100, 200, 400):
            err = abs(antiperiodic_partial_sum(c, np.pi, M) - np.pi)
            assert err <= (4.0 / np.pi) / M
            errs.append(err)
        assert errs == sorted(errs, reverse=True)

    def test_uniform_error_shrinks_tenfold(self, identity_pi):
        c = identity_anti_coefficients(400)
        xs = np.linspace(-np.pi, np.pi, 2001)
        f = identity_pi(xs)
        sup25 = np.abs(antiperiodic_partial_sum(c, xs, 25) - f).max()
        sup400 = np.abs(antiperiodic_partial_sum(c, xs, 400) - f).max()
        assert sup25 >= 10.0 * sup400

    def test_signum_zero_at_jump(self):
        c = antiperiodic_coefficients(FunctionSpec(np.pi, Named("signum")), 16)
        for M in range(17):
            assert antiperiodic_partial_sum(c, 0.0, M) == 0.0

    def test_endpoint_antisymmetry(self, quadratic_unit):
        c = antiperiodic_coefficients(quadratic_unit, 12)
        for M in (0, 3, 12):
            left = antiperiodic_partial_sum(c, -1.0, M) - c.gamma
            right = antiperiodic_partial_sum(c, 1.0, M) - c.gamma
            assert left + right == pytest.approx(0.0, abs=1e-13)

    def test_order_exceeds_truncation(self):
        c = identity_anti_coefficients(4)
        with pytest.raises(OrderExceedsTruncation):
            antiperiodic_partial_sum(c, 0.0, 5)


class TestTerms:
    C = AntiperiodicCoefficients(2.0, 0.75, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])

    @pytest.mark.parametrize(
        "M, mults, cos_w, sin_w",
        [(None, [0.5, 1.5, 2.5], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), (0, [0.5], [1.0], [4.0]),
         (2, [0.5, 1.5, 2.5], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])],
    )
    def test_shift_multipliers_and_weights(self, M, mults, cos_w, sin_w):
        terms = self.C.terms(M)
        assert terms[0] == 0.75  # gamma
        for got, want in zip(terms[1:], (mults, cos_w, sin_w)):
            np.testing.assert_array_equal(got, np.array(want, dtype=float), strict=True)

    def test_order_exceeds_truncation(self):
        with pytest.raises(OrderExceedsTruncation):
            self.C.terms(3)

    def test_weights_are_read_only(self):
        _, _, cos_w, sin_w = self.C.terms(1)
        for weights in (cos_w, sin_w):
            with pytest.raises(ValueError):
                weights[0] = 0.0


@pytest.mark.parametrize("alpha, beta", [([[1.0], [2.0]], [3.0, 4.0]), (1.0, 2.0)])
def test_coefficient_arrays_must_be_flat(alpha, beta):
    with pytest.raises(ValueError, match="one-dimensional"):
        AntiperiodicCoefficients(1.0, 0.0, alpha, beta)


class TestPeriodicSplit:
    def test_identity_matches_direct(self, identity_pi):
        direct = antiperiodic_coefficients(identity_pi, 8)
        split = coefficients_via_periodic_split(identity_pi, 8)
        np.testing.assert_allclose(split.alpha, direct.alpha, atol=1e-8, rtol=0)
        np.testing.assert_allclose(split.beta, direct.beta, atol=1e-8, rtol=0)

    def test_quadratic_matches_closed_form(self, quadratic_unit):
        split = coefficients_via_periodic_split(quadratic_unit, 8)
        n = np.arange(9)
        assert split.gamma == 2.0
        np.testing.assert_allclose(
            split.alpha, -32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3),
            atol=1e-8, rtol=0,
        )
        np.testing.assert_allclose(
            split.beta, 16.0 * (-1.0) ** n / (np.pi**2 * (2 * n + 1) ** 2),
            atol=1e-8, rtol=0,
        )

    def test_const_split_is_zero(self):
        split = coefficients_via_periodic_split(FunctionSpec(1.0, Named("const", (2.0,))), 6)
        assert np.all(split.alpha == 0.0) and np.all(split.beta == 0.0)

    @pytest.mark.parametrize("spec", catalog_specs(), ids=lambda s: s.body.name)
    def test_catalog_split_identity(self, spec):
        direct = antiperiodic_coefficients(spec, 8)
        split = coefficients_via_periodic_split(spec, 8)
        assert split.gamma == direct.gamma
        np.testing.assert_allclose(split.alpha, direct.alpha, atol=1e-8, rtol=0)
        np.testing.assert_allclose(split.beta, direct.beta, atol=1e-8, rtol=0)

    def test_nonconvergence_is_tagged(self, identity_pi):
        # the a_n family (cosine atoms) folds to exact zeros on the identity;
        # at_0, the classical cosine coefficient of f sin(pi x / 2L), fails first
        cfg = QuadratureConfig(abs_tol=1e-18)
        with pytest.raises(NonConvergence) as info:
            coefficients_via_periodic_split(identity_pi, 2, cfg)
        assert (info.value.index, info.value.kind) == (0, "cos")
        assert str(info.value).startswith("periodic-split cos coefficient n=0 did not converge: ")

    def test_sampled_split_identity(self):
        xs = np.linspace(-1.0, 1.0, 41)
        spec = FunctionSpec(1.0, Sampled(tuple(xs), tuple((xs + 1.0) ** 2)))
        direct = antiperiodic_coefficients(spec, 8)
        split = coefficients_via_periodic_split(spec, 8)
        np.testing.assert_allclose(split.alpha, direct.alpha, atol=1e-10, rtol=0)
        np.testing.assert_allclose(split.beta, direct.beta, atol=1e-10, rtol=0)


def test_orthogonality_small_range():
    L = np.pi
    for m in range(7):
        for n in range(7):
            cm = lambda x: half_basis(m, L, x)[0]
            cn = lambda x: half_basis(n, L, x)[0]
            sm = lambda x: half_basis(m, L, x)[1]
            sn = lambda x: half_basis(n, L, x)[1]
            expected = L if m == n else 0.0
            assert integrate(lambda x: cm(x) * cn(x), -L, L) == pytest.approx(
                expected, abs=1e-9
            )
            assert integrate(lambda x: sm(x) * sn(x), -L, L) == pytest.approx(
                expected, abs=1e-9
            )
            assert integrate(lambda x: cm(x) * sn(x), -L, L) == pytest.approx(0.0, abs=1e-9)


def test_jordan_midpoint():
    assert jordan_midpoint(-1.0, 1.0) == 0.0
    assert jordan_midpoint(np.pi, -np.pi) == 0.0
    assert jordan_midpoint(0.0, 2.0) == 1.0


def test_jump_value_is_exact_midpoint():
    # f(x) = x + sign(x): the cosine family vanishes by oddness, the sine
    # terms vanish at 0, so every partial sum hits the jump midpoint exactly
    c = antiperiodic_coefficients(FunctionSpec(np.pi, Named("x-plus-sign")), 64)
    assert c.gamma == 0.0
    assert np.all(c.alpha == 0.0)
    for M in range(65):
        assert antiperiodic_partial_sum(c, 0.0, M) == jordan_midpoint(-1.0, 1.0)


def test_json_round_trip_is_bit_exact(quadratic_unit):
    c = antiperiodic_coefficients(quadratic_unit, 10)
    back = from_dict(json.loads(json.dumps(to_dict(c))))
    assert isinstance(back, AntiperiodicCoefficients)
    assert back.gamma == c.gamma
    np.testing.assert_array_equal(back.alpha, c.alpha)
    np.testing.assert_array_equal(back.beta, c.beta)


def test_serialized_shape(identity_pi):
    d = to_dict(antiperiodic_coefficients(identity_pi, 3))
    assert d["kind"] == "antiperiodic"
    assert d["N"] == 3
    assert len(d["alpha"]) == 4 and len(d["beta"]) == 4
    assert d["gamma"] == 0.0
