"""Property tests: JSON round trips and the exact endpoint zeros of the series.

Coefficients are random finite doubles with |v| <= 1e6 on random
half-widths L; every claim below is an exact (bitwise or ==) equality.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from antifourier import (
    AntiperiodicCoefficients,
    ClassicalCoefficients,
    HeatSolution,
    antiperiodic_partial_sum,
    classical_partial_sum,
    heat_eval,
    heat_eval_dx,
)
from antifourier.io import from_dict, to_dict

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
HALF_WIDTHS = st.floats(min_value=1e-3, max_value=1e3)
TIMES = st.floats(min_value=0.0, max_value=10.0)
DIFFUSIVITIES = st.floats(min_value=1e-3, max_value=1e3)
ORDERS = st.integers(min_value=0, max_value=24)

SETTINGS = settings(max_examples=200, deadline=None)


def arrays(size):
    return st.lists(VALUES, min_size=size, max_size=size).map(np.array)


@st.composite
def classical(draw):
    N = draw(ORDERS)
    return ClassicalCoefficients(draw(HALF_WIDTHS), draw(arrays(N + 1)), draw(arrays(N)))


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
