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
    Sampled,
    ValidationError,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    classical_coefficients,
    coefficients_via_periodic_split,
    half_basis,
    integrate,
    jordan_midpoint,
    shift_gamma,
)
from antifourier import _kernels
from antifourier.io import from_dict, to_dict
from conftest import catalog_specs


def identity_beta(n):
    return 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)


def identity_anti_coefficients(N):
    """Closed-form half-integer coefficients of f(x) = x on [-pi, pi]."""
    n = np.arange(N + 1)
    return AntiperiodicCoefficients(np.pi, 0.0, np.zeros(N + 1), identity_beta(n))


R = float(np.finfo(float).eps) / 2.0  # unit roundoff


def gamma(k):
    """gamma_k = k R / (1 - k R): the relative error bound of k roundings."""
    return k * R / (1.0 - k * R)


def panel_integrals(us, ys, trig, mults):
    """Reference table integrals over u in [-1, 1], each panel on its own,
    and a bound on |project - reference|, one of each per multiplier mu.

    On a panel [u0, u1] with slope s, midpoint m and half-width h, the
    integral against T(w u), w = mu pi, T = cos or sin, is

        (y1 T~(w u1) - y0 T~(w u0)) / w + s step / w^2,  T~ = sin or -cos,

    with step = T(w u1) - T(w u0) taken as -2 sin(w m) sin(w h) or
    2 cos(w m) sin(w h): a product, so it does not cancel on narrow panels.

    The bound adds the two errors against the exact integral of the
    interpolant through the same computed (u, y) and slopes s (R = eps / 2,
    e = 2 eps, A = sum_k |d_k| with d_k = s_(k-1) - s_k, P panels):

    * project sums by parts over the nodes: [y T~] / w + sum_k d_k T(w u_k)
      / w^2.  Each d_k rounds by R |d_k|.  Each node term comes from four
      ``cossinpi`` values, each within e of its value at an angle that is
      off by at most R |mu u_k| half-turns per step, so pi eps |mu u_k| in
      all (see ``two_level_bound`` in test_properties), and their angle sum
      within 4 e + 2 e^2; the three products and the subtraction with the
      weight add gamma_4, so a node is within |d_k| (pi eps |mu u_k| + 4 e +
      2 e^2 + gamma_5).  Each term is at most 2 |d_k|, and a sum of P + 1
      terms in any order is within gamma_P of their magnitudes.  The ends
      are exact ``cossinpi`` values at u = +-1, so y_P T~ - y_0 T~ is within
      gamma_2 (|y_0| + |y_P|).  w = fl(mu pi) is within 2 R |w| of mu pi, so the
      divisions by w and w^2 and the last add are within gamma_8.
    * the reference: fl(w u) is within 3 R |w u| of mu pi u, and np.sin or
      np.cos within 2 R of the value there, so with the products, the
      subtraction and the division each value term is within (|y0| + |y1|)
      (3 R + gamma_8 / w) (|u| <= 1).  fl(w m) is within 4 R |w m| and fl(w
      h) within 4 R |w h|, so step is within 2 (4 R |w m| + 2 R) min(1, |w
      h|) + 2 (4 R |w h| + 2 R), and s step / w^2 takes gamma_6 of itself
      on top.  The 2P panel terms are summed within gamma_2P of their
      magnitudes.
    """
    u0, u1, y0, y1 = us[:-1], us[1:], ys[:-1], ys[1:]
    slope = (y1 - y0) / (u1 - u0)
    mid, half = (u0 + u1) / 2.0, (u1 - u0) / 2.0
    d = np.abs(np.diff(slope, prepend=0.0, append=0.0))
    weight, panels_count, ends = d.sum(), slope.size, abs(ys[0]) + abs(ys[-1])
    e = 4.0 * R  # 2 eps, the error of one cossinpi value
    reference, bound = [], []
    for mult in mults:
        w = mult * np.pi
        if trig == "cos":
            values = (y1 * np.sin(w * u1) - y0 * np.sin(w * u0)) / w
            steps = -2.0 * np.sin(w * mid) * np.sin(w * half)
        else:
            values = (y0 * np.cos(w * u0) - y1 * np.cos(w * u1)) / w
            steps = 2.0 * np.cos(w * mid) * np.sin(w * half)
        panels = np.stack((values, slope * steps / (w * w)))
        reference.append(panels.sum())
        nodes = np.pi * 2.0 * R * abs(mult) * np.abs(us) + 4.0 * e + 2.0 * e * e
        code = (((nodes + gamma(5)) * d).sum()
                + (gamma(panels_count) + gamma(8)) * 2.0 * weight) / (w * w)
        code += (gamma(2) + gamma(8)) * ends / abs(w)
        phase_m, phase_h = np.abs(w * mid), np.abs(w * half)
        step_error = (2.0 * (4.0 * R * phase_m + 2.0 * R) * np.minimum(1.0, phase_h)
                      + 2.0 * (4.0 * R * phase_h + 2.0 * R) + gamma(6) * np.abs(steps))
        own = (((np.abs(y0) + np.abs(y1)) * (3.0 * R + gamma(8) / abs(w))).sum()
               + (np.abs(slope) * step_error).sum() / (w * w)
               + gamma(2 * panels_count) * np.abs(panels).sum())
        bound.append(code + own)
    return np.array(reference), np.array(bound)


def noisy_table(rng, L, rows):
    """Ramp plus curvature plus a sine plus noise, as the benchmark's
    ``compare`` tables: 3000-4000 rows with |f(L) - f(-L)| > 0.6."""
    xs = np.linspace(-L, L, rows)
    slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.75, 1.5)
    freq = rng.uniform(0.5, 3.0)
    ys = (slope * xs / L + rng.uniform(-0.5, 0.5) * (xs / L) ** 2
          + rng.uniform(0.1, 0.4) * np.sin(freq * np.pi * xs / L)
          + 0.01 * rng.standard_normal(rows))
    return xs, ys


def check_random_table(seed):
    """The four families at N = 40 of a random 62-node table against
    :func:`panel_integrals`, within its bound."""
    rng = np.random.default_rng(seed)
    L = float(rng.uniform(0.5, 4.0))
    xs = np.sort(np.concatenate(([-L, L], rng.uniform(-L, L, 60))))
    ys = rng.standard_normal(xs.size)
    table = FunctionSpec(L, Sampled(tuple(xs), tuple(ys)))
    for values, trig, mults, shift in table_families(table, 40):
        reference, bound = panel_integrals(xs / L, ys - shift, trig, mults)
        assert (np.abs(values - reference) <= bound).all()


def table_families(table, N):
    """The four table families of ``compare`` at order N: (values, trig,
    multipliers, shift) for a_1..a_N, b_1..b_N, alpha and beta."""
    classical = classical_coefficients(table, N)
    anti = antiperiodic_coefficients(table, N)
    n = np.arange(N + 1.0)
    return [(classical.a[1:], "cos", n[1:], 0.0), (classical.b, "sin", n[1:], 0.0),
            (anti.alpha, "cos", n + 0.5, anti.gamma), (anti.beta, "sin", n + 0.5, anti.gamma)]


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

    @pytest.mark.parametrize("n", [2.5, 0.5, True])
    def test_non_integer_index_rejected(self, n):
        with pytest.raises(ValueError, match="basis index must be an integer"):
            half_basis(n, 1.0, 0.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_half_width_must_be_finite_and_positive(self, L):
        # not a divide-by-zero warning, sign-flipped sines, nan or a constant 1.0
        with pytest.raises(ValueError, match=rf"^L must be finite and positive, got {L!r}$"):
            half_basis(0, L, np.array([0.0, 0.5]))


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

    @pytest.mark.parametrize("L", [0.7, np.pi, 3.0])
    @pytest.mark.parametrize("rows", [2, 3001])
    def test_identity_table_matches_closed_forms_at_400(self, L, rows):
        # the interpolant of a table of f(x) = x is the identity itself
        xs = np.linspace(-L, L, rows)
        table = FunctionSpec(L, Sampled(tuple(xs), tuple(xs)))
        classical = classical_coefficients(table, 400)
        anti = antiperiodic_coefficients(table, 400)
        n = np.arange(401)
        np.testing.assert_allclose(classical.a, 0.0, atol=1e-14, rtol=0)
        np.testing.assert_allclose(
            classical.b, 2.0 * L * (-1.0) ** (n[1:] + 1) / (n[1:] * np.pi), atol=1e-14, rtol=0
        )
        assert anti.gamma == 0.0
        np.testing.assert_allclose(anti.alpha, 0.0, atol=1e-14, rtol=0)
        np.testing.assert_allclose(
            anti.beta, 8.0 * L * (-1.0) ** n / ((2 * n + 1) ** 2 * np.pi**2), atol=1e-14, rtol=0
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_table_coefficients_are_the_sum_of_panel_integrals(self, seed):
        # the per-panel closed form, each panel on its own, as the reference
        check_random_table(seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_node_blocks_of_a_long_table_are_added(self, seed, monkeypatch):
        # blocks of 8 nodes split the 62 nodes into 8; the bound holds for
        # the node sum taken in any order
        monkeypatch.setattr(_kernels, "_NODES", 8)
        check_random_table(seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_sized_tables_are_within_5e_13(self, seed):
        # 3000-4000 noisy rows at N = 400.  The node weights d_k are slope
        # changes, about 40 here, and each node term rounds by a few R |d_k|
        # independently, so the sum errs by about R sqrt(sum d_k^2) / omega^2:
        # 1e-13 at omega = pi / 2.  Over 30 such tables the worst was 3.1e-13.
        rng = np.random.default_rng(seed)
        L = round(float(rng.uniform(0.5, 4.0)), 4)
        xs, ys = noisy_table(rng, L, int(rng.integers(3000, 4001)))
        table = FunctionSpec(L, Sampled(tuple(xs), tuple(ys)))
        for values, trig, mults, shift in table_families(table, 400):
            reference, _ = panel_integrals(xs / L, ys - shift, trig, mults)
            assert np.abs(values - reference).max() <= 5e-13

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
        with pytest.raises(NonConvergence) as info:
            antiperiodic_coefficients(identity_pi, 2, 1e-18)
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

    @pytest.mark.parametrize("M", [2.5, 0.5, True])
    def test_non_integer_order_rejected(self, M):
        c = identity_anti_coefficients(4)
        with pytest.raises(ValueError, match="partial-sum order must be an integer"):
            antiperiodic_partial_sum(c, 0.0, M)


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

    @pytest.mark.parametrize("M", [2.5, 0.5, True])
    def test_non_integer_order_rejected(self, M):
        with pytest.raises(ValueError, match="partial-sum order must be an integer"):
            self.C.terms(M)

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
        with pytest.raises(NonConvergence) as info:
            coefficients_via_periodic_split(identity_pi, 2, 1e-18)
        assert (info.value.index, info.value.kind) == (0, "cos")
        assert str(info.value).startswith("periodic-split cos coefficient n=0 did not converge: ")

    def test_an_overflow_names_the_first_family_that_reads_it(self):
        # 1e308 x folds to exactly 0.0 for the cosine rows and overflows in
        # every sine row; the first, multiplier -1/2, is first read by at_0,
        # the classical cosine coefficient of f sin(pi x / 2L)
        with pytest.raises(ValidationError, match=(
                r"^periodic-split cos coefficient n=0 is not finite: "
                r"the function's values are too large$")):
            coefficients_via_periodic_split(FunctionSpec(1.0, Polynomial((0.0, 1e308))), 3)

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
