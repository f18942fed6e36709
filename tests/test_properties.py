"""Property tests: JSON round trips, the exact endpoint zeros of the series,
the heat eigenfunctions as the half-integer basis, the symmetries and exact
values of cospi/sinpi, cossinpi as the two of them bit for bit, the blocked
trig kernel as the masked one it replaced bit for bit, the coefficient
families of random low-degree polynomials, each family projected in one run
as the per-harmonic loop bit for bit and in a set as alone on the set's
panels, a set's table node sums as the per-offset sums bit for bit, the
two-level series sum against the one-level sum within its rounding bound,
and the round trips of rendered function specs and of CSV
cells over every finite double.

Coefficients are random finite doubles with |v| <= 1e6 on random
half-widths L; every claim below but the split agreement and the two-level
bound is an exact (bitwise or ==) equality.  Where a sign flip could turn a
zero into -0.0, both sides are compared after adding +0.0, since every exact
zero of cospi/sinpi is +0.0.
"""

import inspect
import json
import pathlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antifourier import (
    DEFAULT_TOL,
    AntiperiodicCoefficients,
    ClassicalCoefficients,
    FunctionSpec,
    HeatProblem,
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
    solve_heat,
)
from antifourier import _kernels, quadrature
from antifourier._kernels import BABY, project, trig_sum
from antifourier._trig import cospi, cossinpi, sinpi
from antifourier.catalog import NAMED_FUNCTIONS, Sampled, evaluate
from antifourier.diagnostics import MIN_SUBGRID_POINTS, _ladder, _windows
from antifourier.errors import NegativeTime
from antifourier.io import csv_text, fmt, from_dict, to_dict
from conftest import catalog_specs, two_level_values

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


def positions(L):
    """A scalar x or a short array of them, on and past [-L, L]."""
    points = st.floats(min_value=-2.0 * L, max_value=2.0 * L)
    return st.one_of(points, st.lists(points, min_size=1, max_size=8).map(np.array))


@SETTINGS
@given(heat(), st.lists(st.one_of(st.just(0.0), TIMES), min_size=1, max_size=6), st.data())
def test_heat_over_times_is_the_stacked_scalar_calls_bitwise(sol, times, data):
    M = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=sol.N)))
    x = data.draw(positions(sol.L))
    for fn in (heat_eval, heat_eval_dx):
        rows = fn(sol, x, np.array(times), M)
        assert rows.shape == (len(times), *np.shape(x))
        assert same_bits(rows, [fn(sol, x, t, M) for t in times])


@SETTINGS
@given(heat(), st.lists(TIMES, max_size=4), st.floats(max_value=0.0, exclude_max=True),
       st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=4))
def test_any_negative_time_is_refused_by_name(sol, before, negative, after):
    times = np.array([*before, negative, *after])
    for fn in (heat_eval, heat_eval_dx):
        with pytest.raises(NegativeTime, match=rf"t={re.escape(repr(negative))} < 0"):
            fn(sol, 0.0, times)


@SETTINGS
@given(HALF_WIDTHS, st.data())
def test_each_series_of_a_trig_sum_is_its_one_series_call_bitwise(L, data):
    # one or two series of each origin, of 0 to 25 modes (one giant row or
    # two), in any order
    terms = [(data.draw(VALUES), offset + np.arange(m, dtype=float), data.draw(arrays(m)),
              data.draw(arrays(m)))
             for offset in (0.0, 0.5, 1.0)
             for m in data.draw(st.lists(st.integers(min_value=0, max_value=25),
                                         min_size=1, max_size=2))]
    terms = data.draw(st.permutations(terms))
    x = data.draw(positions(L))
    sums = trig_sum(L, terms, x)
    assert len(sums) == len(terms)
    for got, series in zip(sums, terms):
        (want,) = trig_sum(L, [series], x)
        assert type(got) is type(want) and np.shape(got) == np.shape(x)
        assert same_bits(got, want)
    counts = [data.draw(st.lists(st.integers(min_value=0, max_value=mults.size),
                                 min_size=1, max_size=4)) for _, mults, _, _ in terms]
    sums = trig_sum(L, terms, x, counts)
    for got, series, ks in zip(sums, terms, counts):
        assert got.shape == (len(ks), *np.shape(x))
        assert same_bits(got, trig_sum(L, [series], x, [ks])[0])


def test_only_the_evaluator_names_its_baby_steps():
    # a caller hands trig_sum a list of series, and the baby block and its
    # width stay inside _kernels
    package = pathlib.Path(_kernels.__file__).parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if re.search(r"\bBABY\b", path.read_text(encoding="utf-8"))]
    assert naming == ["_kernels.py"]
    assert list(inspect.signature(trig_sum).parameters) == ["L", "terms", "x", "counts"]


@SETTINGS
@given(HALF_WIDTHS, st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
       st.integers(min_value=MIN_SUBGRID_POINTS, max_value=3 * MIN_SUBGRID_POINTS))
def test_the_left_window_is_the_right_one_mirrored(L, w, n):
    right, left = _windows(L, w, n)
    assert same_bits(left, -right[::-1])
    # within 2 ulps of the linspace over [-L, -L (1 - w)]
    spread = np.linspace(-L, -L * (1.0 - w), n)
    assert (np.abs(left - spread) <= 2.0 * np.spacing(np.abs(spread))).all()


EPS = float(np.finfo(float).eps)


def gamma_k(k):
    """gamma_k = k r / (1 - k r), r = eps / 2: the relative error bound of a
    sum of k rounded terms taken in any order."""
    return k * (EPS / 2.0) / (1.0 - k * (EPS / 2.0))


def direct_sum(L, shift, mults, cos_w, sin_w, x):
    """The one-level sum: ``cossinpi`` of every multiplier times u, then two
    dot products.  The oracle of :func:`trig_sum`, kept in the tests only."""
    cos_t, sin_t = cossinpi(np.multiply.outer(mults, np.asarray(x, dtype=float) / L))
    return shift + np.tensordot(cos_w, cos_t, axes=1) + np.tensordot(sin_w, sin_t, axes=1)


def two_level_bound(L, shift, mults, cos_w, sin_w, x):
    """Bound on |trig_sum - direct_sum| at each x, for multipliers o + n >= 0.

    Mode mu = g + j (giant step g = o + 16 a, baby step j < 16 = BABY) takes
    cossinpi of fl(g u) and fl(j u) in the two-level sum and of fl(mu u) in
    the direct one.  Each product rounds by at most r = eps / 2 of itself and
    |g u| + |j u| = |mu u|, so the two angles differ by at most
    2 r |mu u| = eps |mu u| half-turns, which moves a cos or sin by at most
    pi eps |mu u|.  Each cossinpi value is within d = 2 eps of its exact
    value: the split is exact, pi r rounds by at most pi eps / 4 at
    |r| <= 1/4, and cos or sin by at most one ulp of a value <= 1.  The angle
    sum cg cb - sg sb (or sg cb + cg sb) of four such values is then within
    4 d + 2 d^2, the direct value within d.  Per mode this gives
    (|C| + |S|) (pi eps |mu u| + 5 d + 2 d^2).

    On top comes the rounding of the sums.  The direct sum is shift plus two
    dot products of m terms: gamma_(m+2) (|shift| + sum (|C| + |S|)).  The
    two-level sum takes each term through a dot product of 2w terms (w =
    min(16, m)), a product with cg or sg, the add of the two, the add over
    the A = ceil(m / 16) giant rows and the add of shift: depth 2w + A + 3,
    with every term at most 2 (|C| + |S|), so gamma_(2w+A+3) (|shift| +
    2 sum (|C| + |S|)).  The rounding of u = x / L is common to both sums.
    """
    m, u = len(mults), np.asarray(x, dtype=float) / L
    weights = np.abs(cos_w) + np.abs(sin_w)
    d = 2.0 * EPS
    width, rows = min(BABY, m), -(-m // BABY)
    angles = np.tensordot(weights, np.abs(np.multiply.outer(mults, u)), axes=1)
    per_mode = np.pi * EPS * angles + (5.0 * d + 2.0 * d * d) * weights.sum()
    total = abs(shift) + weights.sum()
    sums = gamma_k(m + 2) * total + gamma_k(2 * width + rows + 3) * (total + weights.sum())
    return per_mode + sums


# points as multiples of L, on and past [-L, L]
FRACTIONS = st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=8).map(np.array)


@SETTINGS
@given(st.integers(min_value=0, max_value=200), st.sampled_from([0.0, 0.5, 1.0]), HALF_WIDTHS,
       VALUES, st.integers(min_value=0, max_value=2**32 - 1), FRACTIONS)
@example(401, 0.5, 1.0, 0.0, 4, np.linspace(-1.0, 1.0, 2001))  # the default ladder's top
def test_two_level_sum_is_the_direct_sum_within_its_rounding(m, offset, L, shift, seed, t):
    rng = np.random.default_rng(seed)
    mults = offset + np.arange(m)
    cos_w, sin_w = rng.standard_normal((2, m)) * 10.0 ** rng.uniform(-3, 3, (2, m))
    x = t * L
    (two_level,) = trig_sum(L, [(shift, mults, cos_w, sin_w)], x)
    error = np.abs(two_level - direct_sum(L, shift, mults, cos_w, sin_w, x))
    assert (error <= two_level_bound(L, shift, mults, cos_w, sin_w, x)).all()


@SETTINGS
@given(classical_one_parity("sin"), st.sampled_from([0.0, -0.0]), st.data())
def test_sine_only_classical_sum_is_plus_zero_at_both_ends(c, zero, data):
    # a_0 = -0.0 makes the shift -0.0 as well
    c = ClassicalCoefficients(c.L, np.full(c.N + 1, zero), c.b)
    ends = np.array([-c.L, c.L])
    orders = data.draw(st.lists(st.integers(min_value=0, max_value=c.N), min_size=1))
    (ladder,) = _ladder([c], orders, ends, ends)
    for M, sums in zip(orders, ladder):
        assert same_bits(sums, [[0.0, 0.0]] * 3)
        assert same_bits(classical_partial_sum(c, ends, M), [0.0, 0.0])
        assert same_bits(classical_partial_sum(c, c.L, M), 0.0)


@SETTINGS
@given(antiperiodic(beta_zero=True), st.sampled_from([0.0, -0.0]), st.data())
def test_cosine_only_half_integer_sum_is_plus_zero_at_both_ends(c, zero, data):
    c = AntiperiodicCoefficients(c.L, zero, c.alpha, c.beta)
    ends = np.array([-c.L, c.L])
    orders = data.draw(st.lists(st.integers(min_value=0, max_value=c.N), min_size=1))
    (ladder,) = _ladder([c], orders, ends, ends)
    for M, sums in zip(orders, ladder):
        assert same_bits(sums, [[0.0, 0.0]] * 3)
        assert same_bits(antiperiodic_partial_sum(c, ends, M), [0.0, 0.0])
        assert same_bits(antiperiodic_partial_sum(c, -c.L, M), 0.0)


@SETTINGS
@given(classical(), antiperiodic(), FRACTIONS)
def test_order_zero_is_the_shift_and_one_mode_its_angle_bitwise(c, anti, t):
    # classical order 0 has no mode; the half-integer one has the mode 1/2
    x = t * c.L
    assert same_bits(classical_partial_sum(c, x, 0), plus_zero(np.full(t.shape, 0.5 * c.a[0])))
    assert same_bits(classical_partial_sum(c, 0.5 * c.L, 0), plus_zero(0.5 * c.a[0]))
    x = t * anti.L
    cos_t, sin_t = cossinpi(0.5 * (x / anti.L))
    one = anti.gamma + (anti.alpha[0] * cos_t + anti.beta[0] * sin_t)
    assert same_bits(antiperiodic_partial_sum(anti, x, 0), plus_zero(one))


@pytest.mark.parametrize(
    "mults", [[0.0, 2.0], [1.0, 2.0, 4.0], [0.5, 1.5, 2.6], [2.0, 1.0], [[0.0, 1.0], [2.0, 3.0]]]
)
def test_trig_sum_refuses_multipliers_without_unit_steps(mults):
    # whichever series of the call has them
    m, good = np.size(mults), (0.0, np.arange(3.0), np.ones(3), np.ones(3))
    for at in range(3):
        terms = [good, good]
        terms.insert(at, (0.0, mults, np.ones(m), np.ones(m)))
        with pytest.raises(ValueError, match="unit-step multipliers"):
            trig_sum(1.0, terms, np.linspace(-1.0, 1.0, 5))


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


def _masked_split(t):
    # the masked kernel that the blocked one replaced, kept as an oracle
    t = np.asarray(t, dtype=float)
    r = np.abs(t, out=np.empty_like(t))
    r -= 2.0 * np.floor(0.5 * r)
    k = np.rint(r)
    r -= k
    up, down = r >= 0.25, r <= -0.25
    np.subtract(r, 0.5, out=r, where=up)
    np.add(r, 0.5, out=r, where=down)
    return np.multiply(np.pi, r, out=r), up, down, k == 1.0, t < 0.0


def _masked_signed(w, sine, negate):
    np.cos(w, where=~sine, out=w)
    np.sin(w, where=sine, out=w)
    np.subtract(0.0, w, out=w, where=negate)
    return w.item() if w.ndim == 0 else w


def masked_cospi(t):
    w, up, down, k_odd, _ = _masked_split(t)
    return _masked_signed(w, up | down, k_odd ^ up)


def masked_sinpi(t):
    w, up, down, k_odd, negative = _masked_split(t)
    return _masked_signed(w, ~(up | down), k_odd ^ down ^ negative)


# sizes on both sides of one and of three blocks of the kernel
BLOCK_EDGES = (2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5)


@st.composite
def kernel_inputs(draw):
    """A float, a numpy scalar, a 0-d array, a small 2-D array, or a 1-D or
    2-D array of a size about the block size, of the values drawn."""
    values = draw(st.lists(st.one_of(TRIG_ARGUMENTS, st.just(-0.0)), min_size=1, max_size=16))
    form = draw(st.sampled_from(["float", "numpy", "0-d", "2-D", "blocks"]))
    if form == "float":
        return values[0]
    if form == "numpy":
        return np.float64(values[0])
    if form == "0-d":
        return np.array(values[0])
    if form == "2-D":
        return np.resize(values, draw(st.sampled_from([(1, 1), (2, 3), (5, 7), (16, 3)])))
    size = draw(st.sampled_from(BLOCK_EDGES))
    shape = draw(st.sampled_from([(size,), (1, size), (size, 1)]))
    # the values at random places, so that each block sees several of them
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(values, shape)


@SETTINGS
@given(kernel_inputs())
@example(0.25)
@example(np.resize(np.arange(-12, 13) / 8.0, (1, 3 * 2**14 + 5)))
def test_the_blocked_kernel_is_the_masked_one_bitwise(t):
    want_cos, want_sin = masked_cospi(t), masked_sinpi(t)
    for got, want in ((cospi(t), want_cos), (sinpi(t), want_sin),
                      *zip(cossinpi(t), (want_cos, want_sin))):
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) and same_bits(got, want)


def test_the_kernel_holds_its_outputs_and_a_few_blocks():
    # a basis of 42 steps on 6,002 points: the two outputs take twice the
    # input's bytes, and every temporary is one block's
    steps = np.concatenate((BABY * np.arange(26.0), np.arange(16.0)))
    t = np.multiply.outer(steps, np.linspace(-1.0, 1.0, 6002))
    tracemalloc.start()
    try:
        cossinpi(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * t.nbytes


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
    budget = 10.0 * DEFAULT_TOL / min(f.L, 1.0)
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


def window_panels(ns, atoms):
    """The start panels of a family over ``ns``: the first even count above
    its largest multiplier, so a panel spans at most a half-turn."""
    max_mult = max(abs(n + offset) for n in ns for _, offset in atoms)
    panels = 2
    while panels <= max_mult:
        panels += 2
    return panels


def per_harmonic(spec, shift, trig, atoms, ns):
    """The projection one harmonic at a time, each its one-harmonic
    :func:`project` run on the panels of the whole window: the oracle of
    :func:`project`."""
    panels = window_panels(ns, atoms)
    with mock.patch.object(_kernels, "_panels", lambda *_: panels):
        return np.array([project(spec, shift, [(trig, atoms, [n], "c", trig)])[0][0] for n in ns])


def folded(spec, shift, trig):
    """The parity-folded (f(L u) - shift) on [0, 1] of a ``trig`` family."""
    parity = 1.0 if trig == "cos" else -1.0
    return lambda u: ((evaluate(spec, spec.L * u) - shift)
                      + parity * (evaluate(spec, -spec.L * u) - shift))


def direct_kernels(spec, shift, trig, atoms, ns):
    """Each harmonic as a one-row integration of the fold times its kernel,
    taken by ``cospi`` or ``sinpi`` of (n + offset) u at every abscissa, on
    the panels of the whole window."""
    basis = cospi if trig == "cos" else sinpi
    fold, panels = folded(spec, shift, trig), window_panels(ns, atoms)
    return np.array([quadrature.integrate(
        lambda u, n=n: fold(u) * sum(a * basis((n + offset) * u) for a, offset in atoms),
        0.0, 1.0, panels=panels) for n in ns])


# (trig, atoms) of the classical, half-integer and four periodic-split families
FAMILY_KERNELS = [
    ("cos", ((1.0, 0.0),)), ("sin", ((1.0, 0.0),)), ("cos", ((1.0, 0.5),)), ("sin", ((1.0, 0.5),)),
    ("cos", ((0.5, -0.5), (0.5, 0.5))), ("sin", ((0.5, 0.5), (-0.5, -0.5))),
    ("sin", ((0.5, 0.5), (0.5, -0.5))), ("cos", ((0.5, -0.5), (-0.5, 0.5))),
]
FAMILIES = st.sampled_from(FAMILY_KERNELS)
BODIES = st.one_of(
    polynomials(),
    st.builds(FunctionSpec, POLY_HALF_WIDTHS, st.sampled_from(
        [Named("identity"), Named("signum"), Named("x-plus-sign"), Named("scaled-square")])),
)
# a window of up to 8 harmonics below 72, so the windows start on every even
# panel count from 2 to 72
HARMONICS = st.tuples(st.integers(min_value=0, max_value=64), st.integers(1, 8)).map(
    lambda window: range(window[0], window[0] + window[1]))


# the small cap takes the rows in blocks of 512 // p, one panel-rule call each
@pytest.mark.parametrize("cap", [quadrature._MAX_CELLS, 1 << 9], ids=["default-cap", "deferring"])
@FAMILY_SETTINGS
@given(BODIES, st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), FAMILIES, HARMONICS)
@example(FunctionSpec(np.pi, Named("identity")), 0.0, ("sin", ((1.0, 0.5),)), range(58, 66))
def test_project_is_the_per_harmonic_loop_bitwise(cap, f, shift, family, ns):
    # each harmonic of a family is its one-harmonic run on the same panels
    trig, atoms = family
    with mock.patch.object(quadrature, "_MAX_CELLS", cap):
        (values,) = project(f, shift, [(trig, atoms, ns, "coefficient", trig)])
    assert same_bits(values, per_harmonic(f, shift, trig, atoms, ns))


@FAMILY_SETTINGS
@given(BODIES, st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), FAMILIES, HARMONICS)
@example(FunctionSpec(np.pi, Named("x-plus-sign")), 0.5, ("cos", ((1.0, 0.5),)), range(392, 401))
@example(FunctionSpec(np.pi, Named("scaled-square")), 0.0, ("sin", ((0.5, 0.5), (-0.5, -0.5))),
         range(395, 401))
def test_project_is_the_direct_kernel_run_within_its_rounding(f, shift, family, ns):
    # An abscissa c + s takes its kernel as an angle sum of cospi and sinpi
    # at the panel centre c and the node step s, where the direct run takes
    # them at the rounded c + s.  The angles differ by the rounding of
    # (n + offset) times c, s and c + s, at most 1.5 pi |n + offset| eps,
    # and the angle sum adds a few eps, so each coefficient moves by at most
    # 5 (|n + offset| + 1) eps times sum |amplitude| times sum w |fold|.
    trig, atoms = family
    (values,) = project(f, shift, [(trig, atoms, ns, "c", trig)])
    fold = folded(f, shift, trig)
    panels = window_panels(ns, atoms)
    size = quadrature.integrate(lambda u: np.abs(fold(u)), 0.0, 1.0, panels=panels)
    mults = np.array([max(abs(n + offset) for _, offset in atoms) for n in ns])
    bound = 5.0 * (mults + 1.0) * np.finfo(float).eps * sum(abs(a) for a, _ in atoms) * size
    assert (np.abs(values - direct_kernels(f, shift, trig, atoms, ns)) <= bound).all()


@FAMILY_SETTINGS
@given(BODIES, st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), HARMONICS)
def test_a_callable_family_is_its_atoms_one_atom_runs_bitwise(f, shift, ns):
    # a set integrates each distinct multiplier once, and a family is the sum
    # of amplitude times its atoms' integrals, each the bits of the atom's
    # one-atom run on the set's panels
    for trig, atoms in FAMILY_KERNELS:
        (values,) = project(f, shift, [(trig, atoms, ns, "c", trig)])
        panels = window_panels(ns, atoms)
        with mock.patch.object(_kernels, "_panels", lambda *_: panels):
            runs = [project(f, shift, [(trig, ((1.0, offset),), ns, "c", trig)])[0]
                    for _, offset in atoms]
        assert same_bits(values, sum(a * run for (a, _), run in zip(atoms, runs)))


def test_the_rule_and_its_panels_read_no_families_or_atoms():
    # a quadrature row is a multiplier of one kind: the callable rule and
    # its start panels see multipliers only, never an amplitude
    for helper in (_kernels._folded_rule, _kernels._panels):
        assert not {"families", "atoms", "starts"} & set(inspect.signature(helper).parameters)


def test_the_periodic_split_takes_each_multiplier_basis_once(monkeypatch):
    # at N = 400 the split's rows are the multipliers n -+ 1/2 for n = 0..401,
    # -1/2 to 401.5, once for each kind: 2 x 403 rows on the 402 start
    # panels, one level, each row taking (402 + 48) cospi and sinpi values.
    # Taken once per family and atom, the four two-atom families took 2,890,800
    taken = []
    for name, fn in (("cospi", cospi), ("sinpi", sinpi)):
        monkeypatch.setattr(_kernels, name, lambda t, fn=fn: taken.append(np.size(t)) or fn(t))
    coefficients_via_periodic_split(FunctionSpec(np.pi, Named("x-plus-sign")), 400)
    assert sum(taken) == 2 * (2 * 403) * (402 + 48) == 725_400


def heat_coefficients(f, N):
    return solve_heat(HeatProblem(1.0, f.L, 0.0, f), N)


# x^400 on [-1, 1]: the five rows of its half-cosine family on range(5)
# start on 6 panels (top multiplier 4.5) and each refines once, to 12
REFINING = FunctionSpec(1.0, Polynomial((0.0,) * 400 + (1.0,)))
HALF_COSINE = [("cos", ((1.0, 0.5),), range(5), "c", "cos")]
# the periodic split of order 3, whose four families start on 6 panels too
SPLIT = [("cos", ((0.5, -0.5), (0.5, 0.5)), range(5), "a", "cos"),
         ("sin", ((0.5, 0.5), (-0.5, -0.5)), range(5), "at", "cos"),
         ("sin", ((0.5, 0.5), (0.5, -0.5)), range(1, 5), "b", "sin"),
         ("cos", ((0.5, -0.5), (-0.5, 0.5)), range(1, 5), "bt", "sin")]


def refining_family(monkeypatch, cap, families=HALF_COSINE):
    """Spies on the projection of REFINING onto ``families`` with its rows
    taken in blocks of at most ``cap`` row x panel sums: returns the sizes of
    each basis call by kind, the (rows, panels) of each panel-rule call and
    the levels reached."""
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    basis, calls, levels = {"cospi": [], "sinpi": []}, [], []

    def spy_integrate(rule, a, b, abs_tol, rows=None, panels=64):
        def spy_rule(centres, half, idx):
            calls.append((idx.size, centres.size))
            return rule(centres, half, idx)

        result = quadrature.integrate_result(spy_rule, a, b, abs_tol, rows, panels)
        levels.append(int(result.refinements.max()) + 1)
        return result.value

    monkeypatch.setattr(_kernels, "integrate", spy_integrate)
    for name, fn in (("cospi", cospi), ("sinpi", sinpi)):
        monkeypatch.setattr(_kernels, name,
                            lambda t, name=name, fn=fn: basis[name].append(np.size(t)) or fn(t))
    project(REFINING, 0.0, families)
    return basis, calls, levels[0]


@pytest.mark.parametrize("cap", [quadrature._MAX_CELLS, 24], ids=["default-cap", "row-blocks"])
def test_a_family_folds_f_once_a_level(monkeypatch, sample_sizes, cap):
    basis, _, levels = refining_family(monkeypatch, cap)
    assert levels == 2
    # one evaluate at x and one at -x on the 48 p abscissae of each level
    assert sample_sizes == [48 * 6] * 2 + [48 * 12] * 2
    # rows x (p + 48) basis values of each kind a level, whatever the blocks
    for name in ("cospi", "sinpi"):
        assert sum(basis[name]) == 5 * (6 + 48) + 5 * (12 + 48)


@pytest.mark.parametrize("cap", [quadrature._MAX_CELLS, 24], ids=["default-cap", "row-blocks"])
@pytest.mark.parametrize("families", [
    HALF_COSINE + [("sin", ((1.0, 0.5),), range(5), "s", "sin")], SPLIT,
], ids=["two-families", "periodic-split"])
def test_a_set_folds_f_once_a_level_for_all_its_families(monkeypatch, sample_sizes, cap,
                                                          families):
    # the even and odd folds of every family come from one sample at x and -x
    _, _, levels = refining_family(monkeypatch, cap, families)
    assert levels == 2
    assert sample_sizes == [48 * 6] * 2 + [48 * 12] * 2


def test_a_family_call_holds_at_most_the_cap_of_row_x_panel_sums(monkeypatch):
    calls = []
    rule_of = _kernels._folded_rule

    def spy_rule(*args):
        rule, overflowed = rule_of(*args)
        return (lambda centres, half, idx: calls.append(idx.size * centres.size) or rule(
            centres, half, idx)), overflowed

    monkeypatch.setattr(_kernels, "_folded_rule", spy_rule)
    antiperiodic_coefficients(FunctionSpec(np.pi, Named("identity")), 400)
    assert max(calls) == 40 * 402 <= quadrature._MAX_CELLS  # 40 rows on 402 panels
    # 24 // 6 = 4 rows a call on the 6 start panels, 2 on 12
    _, calls, _ = refining_family(monkeypatch, 24)
    assert calls == [(4, 6), (1, 6), (2, 12), (2, 12), (1, 12)]


def test_project_makes_one_integrate_call_per_callable_set(monkeypatch):
    calls = []

    def spy(f, a, b, abs_tol, rows=None, panels=64):
        calls.append((rows, panels))
        return np.zeros(rows)

    monkeypatch.setattr(_kernels, "integrate", spy)
    family = ("sin", ((1.0, 0.5),))
    project(FunctionSpec(np.pi, Named("identity")), 0.0, [(*family, range(101), "beta", "sin")])
    assert calls == [(101, 102)]  # top multiplier 100.5 starts every row on 102 panels
    table = FunctionSpec(1.0, Sampled((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)))
    project(table, 0.0, [(*family, range(101), "beta", "sin")])
    assert calls == [(101, 102)]
    # a set is one call over the rows of all its families, on the start
    # panels of its largest family: top multipliers 0 and 6.5 start on 8
    calls.clear()
    identity = FunctionSpec(np.pi, Named("identity"))
    project(identity, 0.0, [("cos", ((1.0, 0.0),), range(1), "a", "cos"),
                            (*family, range(7), "beta", "sin")])
    assert calls == [(1 + 7, 8)]
    calls.clear()
    solve_heat(HeatProblem(1.0, np.pi, 0.0, identity), 30)
    assert calls == [(31 + 31, 32)]  # heat modes n + 1/2 up to 30.5
    calls.clear()
    coefficients_via_periodic_split(identity, 30)
    # one row per distinct multiplier of each kind: n -+ 1/2 for n = 0..31
    # is -1/2, 1/2, ..., 31.5, for the cosine and for the sine families
    assert calls == [(33 + 33, 32)]
    calls.clear()
    project(identity, 0.0, [(*family, range(0), "beta", "sin")])
    assert calls == []  # a set without rows makes no call


def test_every_public_set_starts_its_families_on_one_panel_count(monkeypatch):
    # so a public coefficient keeps the bits of its family's one-family run:
    # the set's start panels, those of its distinct multipliers, are each
    # family's own
    checked = []

    def spy(f, a, b, abs_tol, rows=None, panels=64):
        for _, atoms, ns, *_ in families:
            own = np.concatenate([np.asarray(ns) + offset for _, offset in atoms])
            assert not own.size or _kernels._panels(own) == panels  # N = 0 has no b_n
        checked.append(panels)
        return np.zeros(rows)

    def spy_project(spec, shift, sets, abs_tol=DEFAULT_TOL):
        families[:] = sets
        return project(spec, shift, sets, abs_tol)

    families = []
    monkeypatch.setattr(_kernels, "integrate", spy)
    for module in ("classical", "antiperiodic"):
        monkeypatch.setattr(f"antifourier.{module}.project", spy_project)
    identity = FunctionSpec(np.pi, Named("identity"))
    for N in range(3001):
        for compute in (classical_coefficients, antiperiodic_coefficients,
                        coefficients_via_periodic_split, heat_coefficients):
            compute(identity, N)
    assert len(checked) == 4 * 3001


# at order 6 every set starts on 8 panels and takes its rows in blocks of
# 40 // 8 = 5, so a block spans its first family boundary (at row 7 or 8)
@pytest.mark.parametrize("compute", [classical_coefficients, antiperiodic_coefficients,
                                     coefficients_via_periodic_split])
@pytest.mark.parametrize("spec", [*catalog_specs(1.3),
                                  FunctionSpec(1.3, Polynomial((1.0, -2.0, 0.5, 3.0)))])
def test_row_blocks_across_a_family_boundary_keep_every_row_bitwise(compute, spec):
    def weights(cap):
        with mock.patch.object(quadrature, "_MAX_CELLS", cap):
            shift, _, cos_w, sin_w = compute(spec, 6).terms()
        return np.concatenate([[shift], cos_w, sin_w])

    assert same_bits(weights(40), weights(quadrature._MAX_CELLS))


@pytest.mark.parametrize("L", [1e-300, 1e-150, 1e-3, np.pi, 3e306])
def test_table_coefficients_do_not_depend_on_the_half_width_bitwise(L):
    # the table (-L, 0), (0, 1), (L, 0) is (-1, 0), (0, 1), (1, 0) in u = x / L,
    # and each coefficient is an integral over u, so L leaves no trace
    def weights(L, compute):
        shift, _, cos_w, sin_w = compute(FunctionSpec(L, Sampled((-L, 0.0, L), (0.0, 1.0, 0.0))))
        return np.concatenate([[shift], cos_w, sin_w])

    for compute in (classical_coefficients, antiperiodic_coefficients,
                    coefficients_via_periodic_split):
        assert same_bits(weights(L, lambda f: compute(f, 8).terms()),
                         weights(1.0, lambda f: compute(f, 8).terms()))

    def heat(f):
        sol = solve_heat(HeatProblem(1.0, f.L, 0.0, f), 8)
        return sol.boundary_mean, None, sol.A, sol.B

    assert same_bits(weights(L, heat), weights(1.0, heat))


def test_table_family_is_each_harmonic_alone_bitwise():
    # a table family is taken in harmonics x nodes blocks; each coefficient
    # keeps the bits of its harmonic projected alone
    rng = np.random.default_rng(7)
    xs = np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 2.0, 3000)), [2.0]])
    table = FunctionSpec(2.0, Sampled(tuple(xs), tuple(rng.standard_normal(xs.size))))
    for trig, atoms in [("cos", ((1.0, 0.0),)), ("sin", ((1.0, 0.5),)),
                        ("cos", ((0.5, -0.5), (0.5, 0.5)))]:
        (whole,) = project(table, 0.25, [(trig, atoms, range(40), "c", trig)])
        alone = [project(table, 0.25, [(trig, atoms, [n], "c", trig)])[0][0] for n in range(40)]
        assert same_bits(whole, alone)


def test_table_abscissae_that_divide_to_one_u_are_integrated():
    # 0.7508 and the next double divide by 3 to one u, so in u the table is a
    # unit step at x / 3, whose coefficients are -sin(n pi x / 3) / (n pi) and
    # (cos(n pi x / 3) - (-1)^n) / (n pi)
    x, x_next = 0.7508, float(np.nextafter(0.7508, 1.0))
    assert x / 3.0 == x_next / 3.0
    step = FunctionSpec(3.0, Sampled((-3.0, x, x_next, 3.0), (0.0, 0.0, 1.0, 1.0)))
    c = classical_coefficients(step, 16)
    n = np.arange(1, 17)
    np.testing.assert_allclose(c.a[1:], -np.sin(n * np.pi * x / 3.0) / (n * np.pi), atol=1e-14)
    np.testing.assert_allclose(c.b, (np.cos(n * np.pi * x / 3.0) - (-1.0) ** n) / (n * np.pi),
                               atol=1e-14)
    assert c.a[0] == pytest.approx((3.0 - x) / 3.0, abs=1e-15)


def test_table_family_takes_its_basis_once(basis_values):
    # N + 1 harmonics on R rows: the two-level basis at every node, as a
    # two-level sum of N + 1 modes takes it, and cos and sin at the two ends
    # for each harmonic
    rows = 3001
    xs = np.linspace(-2.0, 2.0, rows)
    table = FunctionSpec(2.0, Sampled(tuple(xs), tuple(np.sin(xs))))
    project(table, 0.0, [("sin", ((1.0, 0.5),), range(401), "c", "sin")])
    assert sorted(basis_values) == [2 * 401, two_level_values(401, rows)]
    assert two_level_values(401, rows) == (26 + 16) * rows


@pytest.mark.parametrize("compute, offsets, harmonics", [
    (classical_coefficients, 1, 401),
    (antiperiodic_coefficients, 1, 401),
    (heat_coefficients, 1, 401),
    (coefficients_via_periodic_split, 2, 402),  # offsets -1/2 and +1/2, to order N + 1
])
def test_a_coefficient_set_takes_one_basis_an_offset(basis_values, compute, offsets, harmonics):
    # every family of a set shares one end basis and one node basis, those of
    # the distinct multipliers n + offset.  The split's offsets -1/2 and +1/2
    # are the same angles one harmonic apart, so its second offset adds one
    # multiplier and one baby step, -1/2: 2 x 403 end values and (26 + 17)
    # node steps, where one offset takes 2 x 401 and 26 + 16
    rows = 3001
    xs = np.linspace(-2.0, 2.0, rows)
    table = FunctionSpec(2.0, Sampled(tuple(xs), tuple(np.sin(xs))))
    compute(table, 400)
    extra = offsets - 1
    assert sorted(basis_values) == [2 * (harmonics + extra),
                                    two_level_values(harmonics, rows) + extra * rows]
    assert two_level_values(harmonics, rows) + extra * rows == (26 + 16 + extra) * rows


@pytest.mark.parametrize("compute, mults", [
    (classical_coefficients, np.arange(21.0)),
    (antiperiodic_coefficients, np.arange(0.5, 21.0)),
    (heat_coefficients, np.arange(0.5, 21.0)),
    (coefficients_via_periodic_split, np.arange(-0.5, 22.0)),
])
def test_a_table_set_is_one_table_integrals_call(monkeypatch, compute, mults):
    # the table kernels take the set's multipliers, not an offset and its
    # harmonics, and a set takes them in one call
    for kernel in (_kernels._table_integrals, _kernels._node_sums):
        assert not {"offset", "ns"} & set(inspect.signature(kernel).parameters)
    calls, table_integrals = [], _kernels._table_integrals
    monkeypatch.setattr(_kernels, "_table_integrals",
                        lambda us, ys, mults: calls.append(mults) or table_integrals(us, ys, mults))
    xs = np.linspace(-2.0, 2.0, 41)
    compute(FunctionSpec(2.0, Sampled(tuple(xs), tuple(np.sin(xs)))), 20)
    assert len(calls) == 1
    assert same_bits(calls[0], mults)


def test_an_empty_family_takes_no_basis(basis_values):
    table = FunctionSpec(2.0, Sampled((-2.0, 0.0, 2.0), (0.0, 1.0, 0.5)))
    (values,) = project(table, 0.0, [("sin", ((1.0, 0.0),), range(1, 1), "b", "sin")])
    assert values.shape == (0,)
    assert basis_values == []


def test_a_sine_family_at_the_zero_frequency_is_zero():
    # a set's union of harmonics takes the sine at omega = 0 along with the
    # classical a_0; on a table it is 0.0, as on a callable body
    for body in [Sampled((-2.0, 0.5, 2.0), (0.0, 1.0, 0.5)), Polynomial((1.0, 2.0))]:
        (values,) = project(FunctionSpec(2.0, body), 0.0, [("sin", ((1.0, 0.0),), [0], "b", "sin")])
        assert same_bits(values, [0.0])


def each_family_alone(f, shift, families):
    """Whether each family of the set ``families`` has the bits of the same
    family projected as a one-family set on the set's start panels, those of
    its largest family (a table takes no panels)."""
    whole = project(f, shift, families)
    panels = max((window_panels(ns, atoms) for _, atoms, ns, *_ in families if len(ns)), default=2)
    with mock.patch.object(_kernels, "_panels", lambda *_: panels):
        return all(same_bits(values, project(f, shift, [family])[0])
                   for family, values in zip(families, whole))


@pytest.mark.parametrize("table", ["noisy", "one-ulp-step"])
def test_each_family_of_a_table_set_is_the_family_alone_bitwise(table):
    x, x_next = 0.7508, float(np.nextafter(0.7508, 1.0))
    rng = np.random.default_rng(7)
    xs = np.concatenate([[-3.0], np.sort(rng.uniform(-3.0, 3.0, 3000)), [3.0]])
    f = {
        "noisy": FunctionSpec(3.0, Sampled(tuple(xs), tuple(rng.standard_normal(xs.size)))),
        "one-ulp-step": FunctionSpec(3.0, Sampled((-3.0, x, x_next, 3.0), (0.0, 0.0, 1.0, 1.0))),
    }[table]
    # families that take different harmonics at shared offsets, a gap in
    # their union, and an empty family, the classical b at N = 0
    families = [
        ("cos", ((1.0, 0.0),), range(41), "a", "cos"),
        ("sin", ((1.0, 0.0),), range(1, 1), "b", "sin"),
        ("sin", ((1.0, 0.0),), range(1, 41), "b", "sin"),
        ("cos", ((1.0, 0.5),), range(20, 60), "alpha", "cos"),
        ("sin", ((1.0, 0.5),), range(100, 104), "beta", "sin"),
        ("cos", ((0.5, -0.5), (0.5, 0.5)), range(42), "a", "cos"),
        ("sin", ((0.5, 0.5), (-0.5, -0.5)), range(42), "at", "cos"),
        ("sin", ((0.5, 0.5), (0.5, -0.5)), range(1, 42), "b", "sin"),
        ("cos", ((0.5, -0.5), (-0.5, 0.5)), range(1, 42), "bt", "sin"),
    ]
    assert each_family_alone(f, 0.25, families)


# a window of up to 8 harmonics below 72, or none
WINDOWS = st.tuples(st.integers(min_value=0, max_value=64), st.integers(0, 8)).map(
    lambda window: range(window[0], window[0] + window[1]))


@FAMILY_SETTINGS
@given(BODIES, st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       st.lists(st.tuples(FAMILIES, WINDOWS), min_size=1, max_size=4))
def test_each_family_of_a_callable_set_is_the_family_alone_bitwise(f, shift, drawn):
    families = [(trig, atoms, ns, "c", trig) for (trig, atoms), ns in drawn]
    assert each_family_alone(f, shift, families)


@pytest.mark.parametrize("jump", ["first", "last"])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_a_jump_in_an_end_panel_is_its_limit(jump, offset):
    # u = +-1 cannot repeat in a FunctionSpec (no abscissa next to +-L divides
    # to +-1), so the end columns of the node weights are checked on the
    # kernel: a unit jump at u = -1 then (1 - u) / 2, or (1 + u) / 2 then a
    # unit drop at u = 1.  Both integrate against cos(w u) to sin(w) / w (1
    # at w = 0), and against sin(w u) to -+(sin(w) - w cos(w)) / w^2
    us, ys, sign = {
        "first": ((-1.0, -1.0, 1.0), (0.0, 1.0, 0.0), -1.0),
        "last": ((-1.0, 1.0, 1.0), (0.0, 1.0, 0.0), 1.0),
    }[jump]
    ns = np.arange(40)
    w = (ns + offset) * np.pi
    with np.errstate(divide="ignore", invalid="ignore"):  # w = 0, as in project
        cos, sin = _kernels._table_integrals(np.array(us), np.array(ys), ns + offset)
        expect_cos = np.where(w == 0.0, 1.0, sinpi(ns + offset) / w)
        expect_sin = sign * (sinpi(ns + offset) - w * cospi(ns + offset)) / (w * w)
    np.testing.assert_allclose(cos, expect_cos, rtol=0, atol=1e-16)
    live = w != 0.0  # no sine family takes w = 0
    np.testing.assert_allclose(sin[live], expect_sin[live], rtol=0, atol=1e-16)


def node_sums_an_offset(weights, us, offset, ns):
    """``_node_sums`` as it was when it took one offset and its harmonics:
    harmonic n = BABY a + j (j < BABY) takes the giant step BABY a and the
    baby step offset + j, the baby steps offset + 0..max j."""
    giant_rows, babies = np.divmod(ns, BABY)
    giants, row = np.unique(giant_rows, return_inverse=True)
    g, width = giants.size, int(babies.max()) + 1
    steps = np.concatenate((BABY * giants, offset + np.arange(width, dtype=float)))
    sums = np.zeros((2, g, width))
    for start in range(0, us.size, _kernels._NODES):
        u, w = us[start : start + _kernels._NODES], weights[start : start + _kernels._NODES]
        cos_t, sin_t = cossinpi(np.multiply.outer(steps, u))
        cb, sb = cos_t[g:], sin_t[g:]
        wc, ws = w * cos_t[:g], w * sin_t[:g]
        group = max(1, BABY * _kernels._NODES // (width * u.size))
        for a in range(0, g, group):
            rows = slice(a, a + group)
            c, s = wc[rows, None], ws[rows, None]
            sums[0, rows] += (c * cb - s * sb).sum(axis=-1)
            sums[1, rows] += (s * cb + c * sb).sum(axis=-1)
    return sums[:, row, babies]


@st.composite
def node_tables(draw):
    """Weights and sorted abscissae drawn from [-1, 1], some with a twin one ulp above."""
    base = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12))
    twins = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    us = sorted(base + [float(np.nextafter(u, 2.0)) for u, twin in zip(base, twins) if twin])
    weights = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(us), max_size=len(us)))
    return np.array(weights), np.array(us)


HARMONIC_SETS = st.lists(st.integers(0, 70), min_size=1, max_size=10, unique=True).map(
    lambda ns: np.array(sorted(ns)))


@SETTINGS
@given(node_tables(), st.sampled_from([(0.0,), (0.5,), (0.0, 0.5)]),
       st.lists(HARMONIC_SETS, min_size=2, max_size=2), st.sampled_from([2, _kernels._NODES]))
@example((np.array([1.0, -2.0]), np.array([0.5, float(np.nextafter(0.5, 1.0))])),
         (0.0, 0.5), [np.array([0, 15, 16, 17]), np.array([15, 16, 32])], 2)
def test_node_sums_of_a_set_are_its_per_offset_sums_bitwise(table, offsets, harmonic_sets, nodes):
    # one call over the multipliers of both offsets gives each column the
    # bits of the per-offset call, whatever else is in the call
    weights, us = table
    mults = np.unique(np.concatenate([ns + o for o, ns in zip(offsets, harmonic_sets)]))
    with mock.patch.object(_kernels, "_NODES", nodes):
        sums = _kernels._node_sums(weights, us, mults)
        for offset, ns in zip(offsets, harmonic_sets):
            columns = sums[:, np.searchsorted(mults, ns + offset)]
            assert same_bits(columns, node_sums_an_offset(weights, us, offset, ns))


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


# every double a CSV cell may hold, the specials drawn on purpose
CELLS = st.one_of(
    FINITE,
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.0**-1074 * 3,
                     2.0**-1030, 1e308, -1e308]),
)
# scalar cells of a block: a float, an int or a str (with a '%' now and then)
SCALAR_CELLS = st.one_of(CELLS, st.integers(min_value=-(2**70), max_value=2**70),
                         st.sampled_from(["classical", "a%sb", "100%", ""]))


def is_column(cell):
    return isinstance(cell, (list, np.ndarray))


@st.composite
def csv_blocks(draw):
    """Up to four rows of four cells: blocks of 1-5 rows with one to three
    float columns, each a list or a float64 array (the first block's grid
    shared by the next when drawn so: as the same object, a copy with the
    same bits or a list), and now and then a plain row of scalars."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            rows.append([draw(SCALAR_CELLS) for _ in range(4)])
            continue
        n = draw(st.integers(min_value=1, max_value=5))
        columns = set(draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1)))
        row = [draw(st.lists(CELLS, min_size=n, max_size=n)) if j in columns else draw(SCALAR_CELLS)
               for j in range(4)]
        row = [np.array(cell) if is_column(cell) and draw(st.booleans()) else cell for cell in row]
        if rows and is_column(rows[-1][0]) and len(rows[-1][0]) == n and draw(st.booleans()):
            grid = rows[-1][0]  # the last block's grid
            row[0] = draw(st.sampled_from([grid, np.array(grid, dtype=float), list(grid)]))
        rows.append(row)
    return rows


def per_row(rows):
    """Each block spelled out as its rows, the oracle of csv_text's blocks."""
    for row in rows:
        columns = [cell for cell in row if is_column(cell)]
        if not columns:
            yield row
            continue
        for i in range(len(columns[0])):
            yield [cell[i] if is_column(cell) else cell for cell in row]


@SETTINGS
@given(csv_blocks())
@example([[[0.5], 3, "a%sb", [float("nan")]], [[0.5], -0.0, [5e-324], [-float("inf")]]])
@example([[[], "a", [], 1], [[1.0], "b", [2.0], 2]])  # an empty block is not a cached one
@example([["100%", 1.5, 2, "a%sb"]])  # a row of scalars is a one-line block
def test_csv_blocks_are_their_rows_bytewise(rows):
    header = ("a", "b", "c", "d")
    text = csv_text(header, rows)
    assert text == csv_text(header, per_row(rows))
    assert text == "a,b,c,d\n" + "".join(",".join(map(fmt, row)) + "\n" for row in per_row(rows))


def test_csv_block_grid_changed_in_place_is_formatted_again():
    grid = [0.0, 1.0]

    def blocks():
        yield [grid, 1, [2.0, 3.0]]
        grid[:] = [-0.0, 5e-324]  # the same list object with new values
        yield [grid, 2, [4.0, 5.0]]

    assert csv_text(("x", "n", "v"), blocks()) == "x,n,v\n0,1,2\n1,1,3\n-0,2,4\n4.9406564584124654e-324,2,5\n"


def test_csv_block_grid_array_changed_in_place_is_formatted_again():
    grid = np.array([0.0, 1.0])

    def blocks():
        yield [grid, 1, np.array([2.0, 3.0])]
        grid[:] = [-0.0, 5e-324]  # the same array with new values
        yield [grid, 2, [4.0, 5.0]]

    assert csv_text(("x", "n", "v"), blocks()) == "x,n,v\n0,1,2\n1,1,3\n-0,2,4\n4.9406564584124654e-324,2,5\n"


@pytest.mark.parametrize("cell", [np.array(2.0), np.zeros((2, 1)), [[0.0], [1.0]]],
                         ids=["0-d array", "2-D array", "list of lists"])
def test_csv_block_columns_not_1d_are_refused(cell):
    with pytest.raises(ValueError, match="not 1-D"):
        csv_text(("x", "v"), [[[0.0, 1.0], cell]])


def test_csv_block_columns_of_two_lengths_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        csv_text(("x", "v"), [[[0.0, 1.0], [2.0]]])
