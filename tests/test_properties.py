"""Property tests: JSON round trips, the exact endpoint zeros of the series,
the heat eigenfunctions as the half-integer basis, the symmetries and exact
values of cospi/sinpi, cossinpi as the two of them bit for bit, the
coefficient families of random low-degree polynomials, and the round trips
of rendered function specs and of CSV cells over every finite double.

Coefficients are random finite doubles with |v| <= 1e6 on random
half-widths L; every claim below but the split agreement is an exact
(bitwise or ==) equality.  Where a sign flip could turn a zero into -0.0,
both sides are compared after adding +0.0, since every exact zero of
cospi/sinpi is +0.0.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from antifourier import (
    DEFAULT_CONFIG,
    AntiperiodicCoefficients,
    ClassicalCoefficients,
    FunctionSpec,
    HeatSolution,
    Named,
    Polynomial,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    classical_coefficients,
    classical_partial_sum,
    coefficients_via_periodic_split,
    eigenpair,
    half_basis,
    heat_eval,
    heat_eval_dx,
    parse_function_spec,
    render_function_spec,
)
from antifourier._trig import cospi, cossinpi, sinpi
from antifourier.catalog import NAMED_FUNCTIONS
from antifourier.io import fmt, from_dict, to_dict

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
HALF_WIDTHS = st.floats(min_value=1e-3, max_value=1e3)
TIMES = st.floats(min_value=0.0, max_value=10.0)
DIFFUSIVITIES = st.floats(min_value=1e-3, max_value=1e3)
ORDERS = st.integers(min_value=0, max_value=24)
# every finite double, with subnormals and |t| >= 2^52 drawn on purpose
ARGUMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.0**-1022, max_value=2.0**-1022),
    st.floats(min_value=2.0**52, allow_infinity=False),
    st.floats(max_value=-(2.0**52), allow_infinity=False),
)

SETTINGS = settings(max_examples=200, deadline=None)
# each example projects a few coefficient families by quadrature
FAMILY_SETTINGS = settings(max_examples=15, deadline=None)
POLY_COEFFICIENTS = st.floats(min_value=-4.0, max_value=4.0)
POLY_HALF_WIDTHS = st.floats(min_value=0.1, max_value=4.0)
FAMILY_ORDERS = st.integers(min_value=0, max_value=6)


def arrays(size):
    return st.lists(VALUES, min_size=size, max_size=size).map(np.array)


@st.composite
def classical(draw):
    N = draw(ORDERS)
    return ClassicalCoefficients(draw(HALF_WIDTHS), draw(arrays(N + 1)), draw(arrays(N)))


@st.composite
def classical_one_parity(draw, kind):
    """Cosine-only (a_0..a_N, b = 0) or sine-only (a = 0, b_1..b_N) coefficients."""
    N = draw(ORDERS)
    a = draw(arrays(N + 1)) if kind == "cos" else np.zeros(N + 1)
    b = draw(arrays(N)) if kind == "sin" else np.zeros(N)
    return ClassicalCoefficients(draw(HALF_WIDTHS), a, b)


@st.composite
def antiperiodic(draw, beta_zero=False):
    N = draw(ORDERS)
    beta = np.zeros(N + 1) if beta_zero else draw(arrays(N + 1))
    return AntiperiodicCoefficients(draw(HALF_WIDTHS), draw(VALUES), draw(arrays(N + 1)), beta)


@st.composite
def heat(draw, zero=None):
    N = draw(ORDERS)
    A, B = draw(arrays(N + 1)), draw(arrays(N + 1))
    if zero == "A":
        A = np.zeros(N + 1)
    elif zero == "B":
        B = np.zeros(N + 1)
    return HeatSolution(draw(DIFFUSIVITIES), draw(HALF_WIDTHS), draw(VALUES), A, B)


def same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def plus_zero(x):
    """``x`` with -0.0 turned into +0.0 and every other value kept bit for bit."""
    return np.asarray(x, dtype=float) + 0.0


@SETTINGS
@given(st.one_of(classical(), antiperiodic(), heat()))
def test_json_round_trip_is_bit_exact(obj):
    data = to_dict(obj)
    back = from_dict(json.loads(json.dumps(data)))
    assert type(back) is type(obj)
    # repr tells every two doubles apart, so equal text means equal scalars
    assert json.dumps(to_dict(back)) == json.dumps(data)
    for name in ("a", "b", "alpha", "beta", "A", "B"):
        if hasattr(obj, name):
            assert same_bits(getattr(back, name), getattr(obj, name)), name


@SETTINGS
@given(classical())
def test_classical_sum_is_equal_at_both_ends(c):
    assert same_bits(classical_partial_sum(c, -c.L), classical_partial_sum(c, c.L))


@SETTINGS
@given(antiperiodic(beta_zero=True))
def test_half_integer_sum_is_gamma_at_both_ends_without_sines(c):
    assert antiperiodic_partial_sum(c, -c.L) == c.gamma
    assert antiperiodic_partial_sum(c, c.L) == c.gamma


@SETTINGS
@given(heat(zero="B"), TIMES)
def test_heat_is_the_boundary_mean_at_both_ends_without_sines(sol, t):
    assert heat_eval(sol, -sol.L, t) == sol.boundary_mean
    assert heat_eval(sol, sol.L, t) == sol.boundary_mean


@SETTINGS
@given(heat(zero="A"), TIMES)
def test_heat_flux_is_zero_at_both_ends_without_cosines(sol, t):
    assert heat_eval_dx(sol, -sol.L, t) == 0.0
    assert heat_eval_dx(sol, sol.L, t) == 0.0


@SETTINGS
@given(st.integers(min_value=0, max_value=10**4), HALF_WIDTHS, st.data())
def test_heat_eigenfunctions_are_the_half_basis_bitwise(n, L, data):
    points = st.floats(min_value=-L, max_value=L)
    x = data.draw(st.one_of(points, st.lists(points, min_size=1, max_size=8).map(np.array)))
    _, X, Xt = eigenpair(n, L)
    cos, sin = half_basis(n, L, x)
    assert same_bits(X(x), cos) and same_bits(Xt(x), sin)


@SETTINGS
@given(st.lists(ARGUMENTS, min_size=1, max_size=16).map(np.array))
def test_cospi_is_even_and_sinpi_odd_bitwise(t):
    assert same_bits(cospi(-t), cospi(t))
    assert same_bits(sinpi(-t), plus_zero(-sinpi(t)))


@SETTINGS
@given(st.lists(st.floats(min_value=-0.25, max_value=0.25, exclude_min=True, exclude_max=True),
                min_size=1, max_size=16).map(np.array))
def test_small_arguments_take_one_plain_trig_call(t):
    assert same_bits(cospi(t), np.cos(np.pi * t))
    assert same_bits(sinpi(t), plus_zero(np.sin(np.pi * t)))


@SETTINGS
@given(st.integers(min_value=-(2**53), max_value=2**53))
def test_multiples_of_one_half_are_exact(m):
    # cos(m pi / 2) and sin(m pi / 2)
    cos_m, sin_m = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][m % 4]
    t = m / 2.0
    assert same_bits(cospi(t), cos_m) and same_bits(sinpi(t), sin_m)
    assert same_bits(cospi(np.array([t])), [cos_m]) and same_bits(sinpi(np.array([t])), [sin_m])


# every finite double as above, the multiples of one quarter, and nan
TRIG_ARGUMENTS = st.one_of(
    ARGUMENTS,
    st.integers(min_value=-(2**53), max_value=2**53).map(lambda m: m / 4.0),
    st.just(float("nan")),
)


@SETTINGS
@given(st.one_of(TRIG_ARGUMENTS, st.lists(TRIG_ARGUMENTS, min_size=1, max_size=16).map(np.array)))
def test_cossinpi_is_cospi_and_sinpi_bitwise(t):
    cos_t, sin_t = cossinpi(t)
    assert type(cos_t) is type(cospi(t)) and type(sin_t) is type(sinpi(t))
    assert same_bits(cos_t, cospi(t)) and same_bits(sin_t, sinpi(t))
    assert np.array_equal(np.isnan(cos_t), np.isnan(t))
    assert np.array_equal(np.isnan(sin_t), np.isnan(t))


@SETTINGS
@given(classical_one_parity("cos"), st.lists(VALUES, min_size=1, max_size=8).map(np.array))
def test_cosine_only_classical_sum_is_even_bitwise(c, x):
    assert same_bits(plus_zero(classical_partial_sum(c, -x)), plus_zero(classical_partial_sum(c, x)))


@SETTINGS
@given(classical_one_parity("sin"), st.lists(VALUES, min_size=1, max_size=8).map(np.array))
def test_sine_only_classical_sum_is_odd_bitwise(c, x):
    assert same_bits(plus_zero(classical_partial_sum(c, -x)), plus_zero(-classical_partial_sum(c, x)))


@st.composite
def polynomials(draw, parity=None):
    """A polynomial of degree <= 4 on a random [-L, L]; ``parity`` "odd" or
    "even" zeroes the other powers."""
    coefficients = draw(st.lists(POLY_COEFFICIENTS, min_size=1, max_size=5))
    if parity is not None:
        keep = 1 if parity == "odd" else 0
        coefficients = [c if k % 2 == keep else 0.0 for k, c in enumerate(coefficients)]
    return FunctionSpec(draw(POLY_HALF_WIDTHS), Polynomial(tuple(coefficients)))


@FAMILY_SETTINGS
@given(polynomials(), FAMILY_ORDERS)
def test_direct_and_split_half_integer_coefficients_agree(f, N):
    direct = antiperiodic_coefficients(f, N)
    split = coefficients_via_periodic_split(f, N)
    budget = 10.0 * DEFAULT_CONFIG.abs_tol / min(f.L, 1.0)
    assert split.gamma == direct.gamma
    assert np.abs(split.alpha - direct.alpha).max() <= budget
    assert np.abs(split.beta - direct.beta).max() <= budget


@FAMILY_SETTINGS
@given(polynomials("odd"), FAMILY_ORDERS)
def test_odd_polynomials_have_exactly_zero_cosine_coefficients(f, N):
    anti = antiperiodic_coefficients(f, N)
    assert anti.gamma == 0.0
    assert (classical_coefficients(f, N).a == 0.0).all()
    assert (anti.alpha == 0.0).all()
    assert (coefficients_via_periodic_split(f, N).alpha == 0.0).all()


@FAMILY_SETTINGS
@given(polynomials("even"), FAMILY_ORDERS)
def test_even_polynomials_have_exactly_zero_sine_coefficients(f, N):
    assert (classical_coefficients(f, N).b == 0.0).all()
    assert (antiperiodic_coefficients(f, N).beta == 0.0).all()
    assert (coefficients_via_periodic_split(f, N).beta == 0.0).all()


# every finite double, with -0.0, subnormals and the largest magnitudes drawn on purpose
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.floats(min_value=-(2.0**-1022), max_value=2.0**-1022),
    st.floats(min_value=1e300, allow_infinity=False),
    st.floats(max_value=-1e300, allow_infinity=False),
)


@st.composite
def rendered_specs(draw):
    """A poly: or named: spec on a random [-L, L]."""
    L = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    if draw(st.booleans()):
        return FunctionSpec(L, Polynomial(tuple(draw(st.lists(FINITE, min_size=1, max_size=6)))))
    name = draw(st.sampled_from(sorted(NAMED_FUNCTIONS)))
    params = tuple(draw(FINITE) for _ in range(NAMED_FUNCTIONS[name].arity))
    return FunctionSpec(L, Named(name, params))


def numbers(spec):
    body = spec.body
    return (spec.L, *(body.coefficients if isinstance(body, Polynomial) else body.params))


@SETTINGS
@given(rendered_specs())
def test_rendered_spec_parses_back_to_itself(spec):
    back = parse_function_spec(render_function_spec(spec), spec.L)
    assert back == spec
    assert same_bits(numbers(back), numbers(spec))  # == does not tell -0.0 from 0.0


@SETTINGS
@given(FINITE)
def test_csv_cells_round_trip_every_double(x):
    assert same_bits(float(fmt(x)), x)


@SETTINGS
@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_csv_cells_write_integers_as_str(n):
    assert fmt(n) == str(n)
