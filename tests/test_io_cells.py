"""The CSV cell kernel `io._cells` against `io.fmt` ("%.17g"), byte for byte."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antifourier.io import _PASS, _WIDTH, _cells, csv_text, fmt


def assert_cells_are_fmt(values):
    values = np.asarray(values, dtype=float)
    cells = _cells(values)
    assert cells.shape == (values.size, _WIDTH) and cells.dtype == np.uint8
    got = [row.tobytes().rstrip(b"\0").decode() for row in cells]
    want = [fmt(v) for v in values.tolist()]
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_any_floats(values):
    assert_cells_are_fmt(values)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0**k for k in range(-5, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_cells_are_fmt(np.concatenate([near, -near]))


def test_half_even_ties():
    # 1 + k 2^-17 has 18 significant digits, so its 17th is often a tie
    assert_cells_are_fmt(1.0 + np.arange(2**17) * 2.0**-17)


def test_edges_of_the_fast_range():
    edges = [1e-3, 9.999999999999999e-4, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 99999999999999999.0]
    assert_cells_are_fmt(edges + [-v for v in edges])


def test_integers():
    assert_cells_are_fmt(np.arange(-(10**5), 10**5 + 1))


def test_zeros_subnormals_extremes_and_non_finite():
    assert_cells_are_fmt([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])


def test_random_bit_patterns_across_passes():
    bits = np.random.default_rng(30).integers(0, 2**64, 3 * _PASS + 5, dtype=np.uint64)
    assert_cells_are_fmt(bits.view(np.float64))


def test_a_scalar_text_cell_keeps_every_byte():
    blocks = [[[1.0, 2.5], "a\0b", [1e-300, 0.125]], ["\0", 1.5, ""]]
    assert csv_text(("x", "s", "y"), blocks) == "x,s,y\n1,a\0b,1e-300\n2.5,a\0b,0.125\n\0,1.5,\n"


def test_the_peak_memory_of_one_large_block_is_a_bounded_multiple_of_its_text():
    # Beside the text (its parts, then the joined result) the peak holds only
    # the block's cells, 24 bytes a cell, and the items of its columns: the
    # kernel works _PASS cells a pass and the rows are assembled _PASS at a time.
    rng = np.random.default_rng(4)
    columns = [np.linspace(-1.0, 1.0, 100_001).tolist()]
    columns += [rng.standard_normal(100_001).tolist() for _ in range(3)]
    tracemalloc.start()
    try:
        text = csv_text(("x", "u", "v", "w"), [columns])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 7_000_000
    assert peak <= 3.0 * len(text), peak / len(text)


@pytest.mark.parametrize("n", [0, 1, _PASS - 1, _PASS, _PASS + 1])
def test_pass_boundaries(n):
    assert_cells_are_fmt(np.linspace(-3.0, 3.0, n) ** 3)
