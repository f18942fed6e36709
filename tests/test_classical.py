import json

import numpy as np
import pytest

from antifourier import (
    ClassicalCoefficients,
    FunctionSpec,
    Named,
    NonConvergence,
    OrderExceedsTruncation,
    Polynomial,
    QuadratureConfig,
    Sampled,
    ValidationError,
    classical_coefficients,
    classical_partial_sum,
)
from antifourier.io import from_dict, to_dict

TOL = 1e-10  # default quadrature tolerance


def identity_b(n):
    return 2.0 * (-1.0) ** (n + 1) / n


def identity_coefficients(N, L=np.pi):
    """Closed-form coefficients of f(x) = x on [-pi, pi]."""
    n = np.arange(1, N + 1)
    return ClassicalCoefficients(L, np.zeros(N + 1), identity_b(n))


class TestCoefficients:
    def test_identity(self, identity_pi):
        c = classical_coefficients(identity_pi, 16)
        assert np.all(c.a == 0.0)  # odd integrand annihilates exactly
        n = np.arange(1, 17)
        np.testing.assert_allclose(c.b, identity_b(n), atol=1e-8, rtol=0)

    def test_const(self):
        c = classical_coefficients(FunctionSpec(np.pi, Named("const", (2.5,))), 8)
        assert c.a[0] == pytest.approx(5.0, abs=1e-12)
        assert np.abs(c.a[1:]).max() <= 1e-12
        assert np.all(c.b == 0.0)  # even function, sine integrands fold to zero

    def test_quadratic_closed_forms(self, quadratic_unit):
        c = classical_coefficients(quadratic_unit, 16)
        n = np.arange(1, 17)
        assert c.a[0] == pytest.approx(8.0 / 3.0, abs=1e-8)
        np.testing.assert_allclose(
            c.a[1:], 4.0 * (-1.0) ** n / (np.pi**2 * n**2), atol=1e-8, rtol=0
        )
        np.testing.assert_allclose(
            c.b, -4.0 * (-1.0) ** n / (np.pi * n), atol=1e-8, rtol=0
        )

    def test_linearity(self):
        f = FunctionSpec(1.0, Polynomial((0.0, 1.0)))
        g = FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))
        alpha, beta = 2.0, -0.5
        combo = FunctionSpec(1.0, Polynomial((beta * 1.0, alpha + beta * 2.0, beta * 1.0)))
        cf = classical_coefficients(f, 8)
        cg = classical_coefficients(g, 8)
        cc = classical_coefficients(combo, 8)
        np.testing.assert_allclose(cc.a, alpha * cf.a + beta * cg.a, atol=3 * TOL, rtol=0)
        np.testing.assert_allclose(cc.b, alpha * cf.b + beta * cg.b, atol=3 * TOL, rtol=0)

    def test_two_point_table_matches_closed_form(self):
        # the interpolant of this table IS f(x) = x; the table path integrates
        # it exactly, so the match is at rounding level, not quadrature level
        table = FunctionSpec(np.pi, Sampled((-np.pi, np.pi), (-np.pi, np.pi)))
        c = classical_coefficients(table, 16)
        n = np.arange(1, 17)
        assert np.all(c.a == 0.0)
        np.testing.assert_allclose(c.b, identity_b(n), atol=1e-12, rtol=0)

    def test_negative_order_rejected(self, identity_pi):
        with pytest.raises(ValueError):
            classical_coefficients(identity_pi, -1)

    def test_nonconvergence_is_tagged(self, identity_pi):
        # every a_n of the odd identity folds to an exact zero, so b_1 is the
        # first integral that cannot reach the tolerance
        cfg = QuadratureConfig(abs_tol=1e-18)
        with pytest.raises(NonConvergence) as info:
            classical_coefficients(identity_pi, 3, cfg)
        assert (info.value.index, info.value.kind) == (1, "sin")
        assert str(info.value).startswith("sine coefficient n=1 did not converge: ")


class TestPartialSum:
    def test_order_zero_is_half_a0(self, quadratic_unit):
        c = classical_coefficients(quadratic_unit, 4)
        assert classical_partial_sum(c, 0.3, 0) == 0.5 * c.a[0]

    def test_identity_vanishes_at_endpoint(self):
        c = identity_coefficients(300)
        for M in (0, 1, 7, 150, 300):
            assert classical_partial_sum(c, np.pi, M) == 0.0

    def test_interior_convergence(self):
        # oracle is the function itself; the alternating tail at x = pi/2 is
        # below 1e-2 by M = 1000
        c = identity_coefficients(1000)
        assert classical_partial_sum(c, np.pi / 2, 1000) == pytest.approx(
            np.pi / 2, abs=1e-2
        )

    def test_periodicity(self):
        c = identity_coefficients(64)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-np.pi, np.pi, size=16)
        for M in (0, 3, 64):
            np.testing.assert_allclose(
                classical_partial_sum(c, xs, M),
                classical_partial_sum(c, xs + 2 * np.pi, M),
                atol=1e-11,
                rtol=0,
            )

    def test_endpoint_symmetry_exact(self, quadratic_unit):
        c = classical_coefficients(quadratic_unit, 12)
        for M in (0, 1, 5, 12):
            assert classical_partial_sum(c, -1.0, M) == classical_partial_sum(c, 1.0, M)

    def test_order_exceeds_truncation(self):
        c = identity_coefficients(8)
        with pytest.raises(OrderExceedsTruncation):
            classical_partial_sum(c, 0.5, 9)

    def test_truncated_copy(self):
        c = identity_coefficients(8)
        t = c.truncated(3)
        assert t.N == 3
        np.testing.assert_array_equal(t.b, c.b[:3])
        with pytest.raises(OrderExceedsTruncation):
            c.truncated(9)


class TestTerms:
    C = ClassicalCoefficients(2.0, [1.0, 2.0, 3.0], [4.0, 5.0])

    @pytest.mark.parametrize(
        "M, mults, cos_w, sin_w",
        [(None, [1.0, 2.0], [2.0, 3.0], [4.0, 5.0]), (0, [], [], []),
         (2, [1.0, 2.0], [2.0, 3.0], [4.0, 5.0])],
    )
    def test_shift_multipliers_and_weights(self, M, mults, cos_w, sin_w):
        terms = self.C.terms(M)
        assert terms[0] == 0.5  # a_0 / 2
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


@pytest.mark.parametrize("a, b", [([[0.0, 0.0]], [2.0]), (1.0, [])])
def test_coefficient_arrays_must_be_flat(a, b):
    with pytest.raises(ValueError, match="one-dimensional"):
        ClassicalCoefficients(1.0, a, b)


def test_coefficients_are_immutable():
    c = identity_coefficients(4)
    with pytest.raises(ValueError):
        c.a[0] = 1.0


def test_json_round_trip_is_bit_exact(identity_pi):
    c = classical_coefficients(identity_pi, 12)
    blob = json.dumps(to_dict(c))
    back = from_dict(json.loads(blob))
    assert isinstance(back, ClassicalCoefficients)
    assert back.L == c.L
    np.testing.assert_array_equal(back.a, c.a)
    np.testing.assert_array_equal(back.b, c.b)


@pytest.mark.parametrize("declared", ["x", 2.7, 3.0, None, 4])
def test_declared_order_must_be_the_integer_array_order(identity_pi, declared):
    d = to_dict(classical_coefficients(identity_pi, 3))
    d["N"] = declared
    with pytest.raises(ValidationError, match="declared order"):
        from_dict(d)


def test_serialized_shape(identity_pi):
    d = to_dict(classical_coefficients(identity_pi, 3))
    assert d["kind"] == "classical"
    assert d["N"] == 3
    assert len(d["a"]) == 4 and len(d["b"]) == 3
