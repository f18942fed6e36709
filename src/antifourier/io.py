"""JSON/CSV serialization and atomic file output.

JSON schemas (floats serialize via repr, so a dump/load round-trip is
bit-exact):

    {"kind": "classical",    "L": .., "N": .., "a": [..], "b": [..]}
    {"kind": "antiperiodic", "L": .., "N": .., "gamma": .., "alpha": [..], "beta": [..]}
    {"kind": "heat",         "k": .., "L": .., "c": .., "N": .., "A": [..], "B": [..]}

CSV cells are written with 17 significant digits, enough to round-trip a
double: every cell is exactly the text of ``"%.17g" % value``.  A float
column is formatted by one numpy kernel (:func:`_cells`) that computes the
17 digits exactly in 128-bit integer arithmetic for 1e-3 <= |value| < 1e17,
where ``%g`` writes fixed notation; every other value (zeros, subnormals,
exponent notation, infinities and nan) goes through one ``"%.17g"`` template
call for the column.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from itertools import chain
from operator import is_

import numpy as np

from .antiperiodic import AntiperiodicCoefficients
from .classical import ClassicalCoefficients
from .diagnostics import REPORT_COLUMNS, report_rows
from .errors import ValidationError
from .heat import HeatSolution


def fmt(value) -> str:
    """Format one CSV cell: floats with 17 significant digits."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# A cell is the text of "%.17g" % value in _WIDTH bytes, then NUL pad bytes.
_WIDTH = 24  # len("-2.2250738585072014e-308"), the longest "%.17g" text
_TEMPLATE = f"%-{_WIDTH}.17g"
_PASS = 1 << 12  # cells a kernel pass, and rows a chunk of a block: bounds the temporaries
# Every integer operand is a uint64: NumPy 1.x casts uint64 with int64 to float64.
_U64 = np.uint64
_LOW, _ONE = _U64(0xFFFFFFFF), _U64(1)
_8, _32, _56, _64 = _U64(8), _U64(32), _U64(56), _U64(64)
_E4, _E8, _E16, _E17 = _U64(10**4), _U64(10**8), _U64(10**16), _U64(10**17)
_POW10 = _U64(10) ** np.arange(20, dtype=_U64)


# The kernel's tables are built on its first pass, so that a process that
# writes no float cell spends neither their time nor the memory of the numpy
# loops they run.
@functools.cache
def _digit_tables():
    """Each n < 10^4 as its four digits in the ASCII bytes of a little-endian
    word, and the count of its trailing zero digits (4 for 0000)."""
    tens, ones = np.divmod(np.arange(100, dtype=_U64), _U64(10))
    ascii2 = (tens + _U64(ord("0"))) | ((ones + _U64(ord("0"))) << _8)
    zeros2 = (ones == 0) * (1 + (tens == 0))
    ascii4 = ascii2[:, None] | (ascii2 << _U64(16))  # row: the first two digits
    return ascii4.ravel(), np.where(zeros2 == 2, 2 + zeros2[:, None], zeros2).ravel()


@functools.cache
def _layouts():
    """The byte layout of a fast cell for each key (sign, exponent X in
    -3..16, significant digits t in 1..17), as ten rows of 680 words.

    The 17 digits sit at bytes 7..23 of three little-endian words.  Shifted
    down so that the first digit lands after the sign (and after "0.00" up
    to X = -3), they give every digit of a cell with X < 0 and the digits
    before the point; shifted one byte up from there, the digits after it.
    Rows 0-2 and 3-5 mask the two, rows 6-8 hold the sign, point and zeros,
    and row 9 the first shift in bits.
    """
    neg = np.arange(2)[:, None, None, None]
    X = np.arange(-3, 17)[:, None, None]
    t = np.arange(1, 18)[:, None]
    at = np.arange(_WIDTH) - neg  # the position after the sign
    # %g strips the fraction's trailing zeros, and the point with them
    size = np.where(X < 0, 1 - X + t, np.where(t <= X + 1, X + 1, t + 1))
    inside = (at >= 0) & (at < size)
    point = inside & (at == np.where(X < 0, 1, X + 1))
    zero = (X < 0) & inside & (at <= -X) & ~point
    digit = inside & ~point & ~zero
    before = digit & ((X < 0) | (at <= X))
    minus, dot, nought = (np.uint8(ord(char)) for char in "-.0")
    const = (at == -1) * minus | point * dot | zero * nought
    first = neg + np.where(X < 0, 1 - X, 0)  # the byte of the first digit

    def words(cell_bytes):
        cells = np.broadcast_to(cell_bytes, (2, 20, 17, _WIDTH)).astype(np.uint8)
        return cells.reshape(-1, _WIDTH).view("<u8").astype(_U64).T

    shift = np.broadcast_to(8 * (7 - first[..., 0]), (2, 20, 17)).reshape(1, -1).astype(_U64)
    full = np.uint8(255)
    masks = (*words(before * full), *words((digit & ~before) * full))
    return np.vstack([*masks, *words(const), shift])


def _cells(values) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each float ``v`` of a 1-D sequence,
    as an (n, _WIDTH) uint8 array, NUL-padded; one kernel pass per _PASS values."""
    out = np.empty((len(values), _WIDTH), np.uint8)
    for start in range(0, len(values), _PASS):
        chunk = np.asarray(values[start : start + _PASS], dtype=float)
        out[start : start + _PASS] = _cell_pass(chunk)
    return out


def _cell_pass(v: np.ndarray) -> np.ndarray:
    """:func:`_cells` of one float array: the exact 17 digits in integer
    arithmetic where 1e-3 <= |v| < 1e17 (fixed notation), one template call
    for the rest."""
    a = np.abs(v)
    fast = (a >= 1e-3) & (a < 1e17)
    q, d = _digits(np.where(fast, a, 1.0))
    fast &= (q >= _E16) & (q < _E17)  # else log10 was one off
    first = q // _E16
    q -= first * _E16
    upper = q // _E8
    lower = q - upper * _E8
    g0, g2 = upper // _E4, lower // _E4
    g1, g3 = upper - g0 * _E4, lower - g2 * _E4
    g0, g1, g2, g3 = (group.view(np.int64) for group in (g0, g1, g2, g3))  # four digits each
    ascii4, zeros4 = _digit_tables()
    zeros = zeros4[g1] + (g1 == 0) * zeros4[g0]  # trailing zeros of upper, then of all 16
    zeros = zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros)
    # the column of the layout: (sign, X + 3, t - 1) with t = 17 - zeros significant digits
    key = np.where(fast, np.signbit(v) * 340 + (d + 3) * 17 + 16 - zeros, 0)
    out = _laid_out(key, (first + _U64(ord("0"))) << _56, ascii4[g0] | (ascii4[g1] << _32),
                    ascii4[g2] | (ascii4[g3] << _32))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (_TEMPLATE * slow.size % tuple(v[slow].tolist())).encode()
        padded = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
        out[slow] = np.where(padded == ord(" "), 0, padded)
    return out


def _digits(a: np.ndarray):
    """(q, d): the 17 significant digits q = round(a 10^(16 - d)), rounded
    half to even, and the decimal exponent d of each 1e-3 <= a < 1e17.

    q is outside [10^16, 10^17) where log10 was one off.  It never rounds up
    to 10^17 where d is right: no double in this range lies within half a
    unit of the 17th digit (5e-18 of it) below a power of ten.
    """
    d = np.clip(np.floor(np.log10(a)), -3, 16).astype(np.int64)
    # a = m 2^-s exactly, m < 2^58, 1 <= s <= 62
    s = np.maximum(53 - np.frexp(a)[1], 1)
    m = np.ldexp(a, s).astype(_U64)
    s = s.astype(_U64)
    # m 10^(16 - d) as hi 2^64 + lo, from 32-bit halves
    p = _POW10[16 - d]
    m_lo, m_hi, p_lo, p_hi = m & _LOW, m >> _32, p & _LOW, p >> _32
    low, cross, other = m_lo * p_lo, m_lo * p_hi, m_hi * p_lo
    mid = (low >> _32) + (cross & _LOW) + (other & _LOW)
    lo = (low & _LOW) | (mid << _32)
    hi = m_hi * p_hi + (cross >> _32) + (other >> _32) + (mid >> _32)
    q = (hi << (_64 - s)) | (lo >> s)
    rest, half = lo & ((_ONE << s) - _ONE), _ONE << (s - _ONE)
    q += (rest > half) | ((rest == half) & (q & _ONE).astype(bool))
    return q, d


def _laid_out(key, w0, w1, w2) -> np.ndarray:
    """The (n, _WIDTH) cells of the digits in words w0..w2 (see :func:`_layouts`)."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2, k = _layouts().take(key, axis=1)
    r0, r1, r2 = (w0 >> k) | (w1 << (_64 - k)), (w1 >> k) | (w2 << (_64 - k)), w2 >> k
    cells = np.empty((key.size, 3), _U64)
    cells[:, 0] = (r0 & a0) | ((r0 << _8) & b0) | c0
    cells[:, 1] = (r1 & a1) | (((r1 << _8) | (r0 >> _56)) & b1) | c1
    cells[:, 2] = (r2 & a2) | (((r2 << _8) | (r1 >> _56)) & b2) | c2
    return cells.astype("<u8", copy=False).view(np.uint8)


# JSON keys of each kind in written order.  All keys but "N" are the
# container's constructor arguments in order, the last two being its arrays;
# "c" is stored as the attribute boundary_mean.
_SCHEMAS = {
    "classical": (ClassicalCoefficients, ("L", "N", "a", "b")),
    "antiperiodic": (AntiperiodicCoefficients, ("L", "N", "gamma", "alpha", "beta")),
    "heat": (HeatSolution, ("k", "L", "c", "N", "A", "B")),
}


def to_dict(obj) -> dict:
    """Serialize a coefficient or solution object to its JSON schema."""
    for kind, (cls, keys) in _SCHEMAS.items():
        if isinstance(obj, cls):
            out = {"kind": kind}
            for key in keys:
                value = getattr(obj, "boundary_mean" if key == "c" else key)
                out[key] = value.tolist() if isinstance(value, np.ndarray) else value
            return out
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _is_number(value) -> bool:
    """A JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def from_dict(data: dict):
    """Inverse of :func:`to_dict`; every scalar and array entry must be a JSON number."""
    try:
        if data["kind"] not in _SCHEMAS:
            raise ValidationError(f"unknown coefficient kind {data['kind']!r}")
        cls, keys = _SCHEMAS[data["kind"]]
        *scalars, first, second = (key for key in keys if key != "N")
        for key in scalars:
            if not _is_number(data[key]):
                raise TypeError(f"{key} must be a number, got {data[key]!r}")
        for key in (first, second):
            if not (isinstance(data[key], list) and all(map(_is_number, data[key]))):
                raise TypeError(f"{key} must be a flat list of numbers")
        obj = cls(*(float(data[key]) for key in scalars), data[first], data[second])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed coefficient object: {exc}") from exc
    declared = data.get("N", obj.N)
    if type(declared) is not int or declared != obj.N:
        raise ValidationError(
            f"declared order N={declared!r} is not the array order {obj.N}"
        )
    return obj


def dumps(obj) -> str:
    """JSON text for one object (or a dict of them)."""
    if isinstance(obj, dict):
        payload = {key: to_dict(value) for key, value in obj.items()}
        return json.dumps(payload)
    return json.dumps(to_dict(obj))


def load_coefficients(path: str) -> dict:
    """Load a coefficients JSON file.

    Accepts either a single serialized object or an object keyed by kind
    label (as written by ``coeffs --kind both``).  Returns a dict mapping
    "classical"/"antiperiodic"/"heat" to deserialized objects.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ValidationError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if "kind" in data:
        obj = from_dict(data)
        return {data["kind"]: obj}
    out = {}
    for key, value in data.items():
        if not isinstance(value, dict):
            raise ValidationError(f"{path}: entry {key!r} is not an object")
        out[key] = from_dict(value)
    if not out:
        raise ValidationError(f"{path}: no coefficient objects found")
    return out


def _block_cells(columns, n, previous):
    """Each list column of a block -> (its items, their cells): the cells of
    the previous block's column where it holds the very same items, else
    from one :func:`_cells` call on the block's new columns end to end."""
    kept = {
        j: previous[j]
        for j, column in columns.items()
        if j in previous and len(previous[j][0]) == n and all(map(is_, previous[j][0], column))
    }
    new = [j for j in columns if j not in kept]
    cells = _cells(list(chain.from_iterable(columns[j] for j in new)))
    kept.update((j, (tuple(columns[j]), cells[i * n : (i + 1) * n])) for i, j in enumerate(new))
    return kept


def csv_text(header, blocks) -> str:
    """Assemble CSV text (comma separated, trailing newline) from any iterable
    of blocks, without holding a list of lines.

    A block is a row whose list cells are columns of one length (floats, or
    ints below 2**53) and whose other cells repeat down the block; a row
    with no list cells is one line.  A block gives the bytes of its rows
    written one by one.  A column that holds the very objects of the
    previous block's column (a shared grid) is formatted once for both.
    """
    parts = [(",".join(header) + "\n").encode()]  # bytes, or arrays of them
    previous = {}  # column -> (its items, their cells) in the last block
    for row in blocks:
        columns = {j: cell for j, cell in enumerate(row) if type(cell) is list}
        lengths = {len(column) for column in columns.values()} or {1}
        if len(lengths) > 1:
            raise ValueError(f"block columns differ in length: {sorted(lengths)}")
        n = lengths.pop()
        previous = _block_cells(columns, n, previous)
        # the row's bytes, with _WIDTH pad bytes in each list cell's place
        line, gaps = bytearray(), {}
        for j, cell in enumerate(row):
            if j in columns:
                gaps[j] = len(line)
                line += bytes(_WIDTH)
            else:
                line += fmt(cell).encode()
            line += b","
        line[-1:] = b"\n"
        if not gaps:
            parts.append(line)
            continue
        line = np.frombuffer(line, np.uint8)
        fixed = np.ones(line.size, bool)  # every byte but the cells' pad bytes stays
        for at in gaps.values():
            fixed[at : at + _WIDTH] = False
        for start in range(0, n, _PASS):
            rows = np.tile(line, (min(_PASS, n - start), 1))
            for j, at in gaps.items():
                rows[:, at : at + _WIDTH] = previous[j][1][start : start + _PASS]
            parts.append(rows[np.logical_or(rows, fixed)])
    del previous  # free the cells, and then the parts, before the text is made
    data = b"".join(parts)
    del parts
    return data.decode()


def report_csv(reports) -> str:
    """CSV text for diagnostics rows in the fixed REPORT_COLUMNS order."""
    return csv_text(REPORT_COLUMNS, report_rows(reports))


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename; never leaves a
    partial file behind.  A failed step raises OSError "cannot write <path>:
    <reason>", which names ``path`` and not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".antifourier-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
