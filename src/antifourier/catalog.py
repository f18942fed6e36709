"""Function specifications on a symmetric interval [-L, L].

A :class:`FunctionSpec` couples a half-width ``L`` with one of three bodies:
a polynomial (ascending coefficients), a named catalog entry, or a sampled
table interpolated piecewise-linearly.  Specs are immutable and can be
parsed from / rendered to a compact string grammar::

    poly:<c0>,<c1>,...        polynomial c0 + c1*x + ...
    named:<id>[:<p1>,<p2>]    catalog entry, optional parameters
    csv:<path>                sampled table loaded from a CSV file

The CSV format is two columns ``x,y``, comma separated, UTF-8, decimal
point '.', with an optional header row (detected by a non-numeric first
row).  Abscissae must be strictly increasing and span exactly [-L, L].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import OutOfDomain, ParseError, ValidationError

# Most rows, header included, that load_samples reads from one CSV table.
MAX_TABLE_ROWS = 1 << 18


@dataclass(frozen=True)
class Polynomial:
    """Polynomial body; ``coefficients`` are ascending powers c0..cd."""

    coefficients: tuple


@dataclass(frozen=True)
class Named:
    """Catalog entry body with optional numeric parameters."""

    name: str
    params: tuple = ()


@dataclass(frozen=True)
class Sampled:
    """Strictly increasing samples spanning [-L, L], interpolated linearly."""

    xs: tuple
    ys: tuple
    source: Optional[str] = None


Body = Union[Polynomial, Named, Sampled]


@dataclass(frozen=True)
class NamedFunction:
    """Registry entry: name, parameter count and vectorized ``evaluate(x, params)``."""

    name: str
    arity: int
    evaluate: Callable


NAMED_FUNCTIONS = {
    "identity": NamedFunction("identity", 0, lambda x, p: np.asarray(x, dtype=float)),
    "const": NamedFunction("const", 1, lambda x, p: np.full(np.shape(x), p[0], dtype=float)),
    # sign(0) = 0 keeps signum odd: all cosine coefficients vanish and the
    # midpoint value at the jump is exactly representable.
    "signum": NamedFunction("signum", 0, lambda x, p: np.sign(np.asarray(x, dtype=float))),
    "x-plus-sign": NamedFunction(
        "x-plus-sign", 0,
        lambda x, p: np.asarray(x, dtype=float) + np.sign(np.asarray(x, dtype=float)),
    ),
    "scaled-square": NamedFunction(
        "scaled-square", 0, lambda x, p: (np.asarray(x, dtype=float) / np.pi) ** 2
    ),
}


@dataclass(frozen=True)
class FunctionSpec:
    """A real function on [-L, L]."""

    L: float
    body: Body

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0.0):
            raise ValidationError(f"interval half-width must be positive, got {self.L!r}")
        body = self.body
        if isinstance(body, Polynomial) and not isinstance(body.coefficients, tuple):
            body = Polynomial(tuple(body.coefficients))
            object.__setattr__(self, "body", body)
        elif isinstance(body, Named) and not isinstance(body.params, tuple):
            body = Named(body.name, tuple(body.params))
            object.__setattr__(self, "body", body)
        elif isinstance(body, Sampled) and not (
            isinstance(body.xs, tuple) and isinstance(body.ys, tuple)
        ):
            body = Sampled(tuple(body.xs), tuple(body.ys), body.source)
            object.__setattr__(self, "body", body)
        if isinstance(body, Polynomial):
            if len(body.coefficients) == 0:
                raise ValidationError("polynomial needs at least one coefficient")
            if not all(np.isfinite(c) for c in body.coefficients):
                raise ValidationError("polynomial coefficients must be finite")
        elif isinstance(body, Named):
            entry = NAMED_FUNCTIONS.get(body.name)
            if entry is None:
                raise ValidationError(f"unknown named function {body.name!r}")
            if len(body.params) != entry.arity:
                raise ValidationError(
                    f"{body.name!r} takes {entry.arity} parameter(s), got {len(body.params)}"
                )
        elif isinstance(body, Sampled):
            xs = np.asarray(body.xs, dtype=float)
            ys = np.asarray(body.ys, dtype=float)
            if xs.size != ys.size:
                raise ValidationError("sample abscissae and values differ in length")
            if xs.size < 2:
                raise ValidationError("need at least two samples")
            if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
                raise ValidationError("samples must be finite")
            if np.any(np.diff(xs) == 0.0):
                raise ValidationError("duplicate abscissae in samples")
            if np.any(np.diff(xs) < 0.0):
                raise ValidationError("sample abscissae must be strictly increasing")
            if xs[0] != -self.L or xs[-1] != self.L:
                raise ValidationError(
                    f"samples must span [-L, L] exactly; got [{xs[0]!r}, {xs[-1]!r}] "
                    f"for L={self.L!r}"
                )
        else:
            raise ValidationError(f"unsupported body type {type(body).__name__}")

    def __call__(self, x):
        return evaluate(self, x)


def evaluate(spec: FunctionSpec, x):
    """Evaluate ``spec`` at scalar or array ``x``; raises OutOfDomain if |x| > L."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > spec.L):
        raise OutOfDomain(f"argument outside [-{spec.L!r}, {spec.L!r}]")
    body = spec.body
    if isinstance(body, Polynomial):
        out = np.polynomial.polynomial.polyval(arr, np.asarray(body.coefficients))
    elif isinstance(body, Named):
        out = NAMED_FUNCTIONS[body.name].evaluate(arr, body.params)
    else:
        out = np.interp(arr, np.asarray(body.xs), np.asarray(body.ys))
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def antiperiodic_defect(spec: FunctionSpec) -> float:
    """Return f(-L) + f(L); zero iff the function is antiperiodic."""
    return evaluate(spec, -spec.L) + evaluate(spec, spec.L)


def _parse_float(token: str, position: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", position=position) from None


def _parse_float_list(text: str, base: int):
    values = []
    offset = 0
    for token in text.split(","):
        values.append(_parse_float(token.strip(), base + offset))
        offset += len(token) + 1
    return tuple(values)


def parse_function_spec(text: str, L: float) -> FunctionSpec:
    """Parse a spec string (see module docstring for the grammar).

    Raises ParseError for grammar violations (with character position) and
    ValidationError for invariant breaches.
    """
    if text.startswith("poly:"):
        coeffs = _parse_float_list(text[5:], 5)
        return FunctionSpec(L, Polynomial(coeffs))
    if text.startswith("named:"):
        rest = text[6:]
        name, sep, param_text = rest.partition(":")
        if not name:
            raise ParseError("missing function name", position=6)
        if name not in NAMED_FUNCTIONS:
            raise ParseError(f"unknown named function {name!r}", position=6)
        params = _parse_float_list(param_text, 6 + len(name) + 1) if sep else ()
        return FunctionSpec(L, Named(name, params))
    if text.startswith("csv:"):
        path = text[4:]
        if not path:
            raise ParseError("missing CSV path", position=4)
        return load_samples(path, L)
    raise ParseError("expected 'poly:', 'named:' or 'csv:' prefix", position=0)


def render_function_spec(spec: FunctionSpec) -> str:
    """Inverse of :func:`parse_function_spec`; round-trips exactly."""
    body = spec.body
    if isinstance(body, Polynomial):
        return "poly:" + ",".join(repr(c) for c in body.coefficients)
    if isinstance(body, Named):
        if body.params:
            return f"named:{body.name}:" + ",".join(repr(p) for p in body.params)
        return f"named:{body.name}"
    if body.source is None:
        raise ValidationError("sampled spec without a source path cannot be rendered")
    return f"csv:{body.source}"


def load_samples(path: str, L: float) -> FunctionSpec:
    """Load a two-column x,y CSV file into a Sampled spec on [-L, L].

    Reading stops, with a ValidationError, at the first row past MAX_TABLE_ROWS.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row:
                continue  # skip blank lines
            if len(rows) == MAX_TABLE_ROWS:
                raise ValidationError(f"{path}: more than {MAX_TABLE_ROWS} rows, the limit")
            rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    def _as_pair(row, index):
        if len(row) != 2:
            raise ValidationError(f"{path}: row {index} has {len(row)} columns, expected 2")
        try:
            return float(row[0]), float(row[1])
        except ValueError:
            raise ValidationError(f"{path}: row {index} is not numeric: {row!r}") from None

    start = 0
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        start = 1  # header row
    if start == len(rows):
        raise ValidationError(f"{path}: no data rows after header")
    pairs = [_as_pair(row, i) for i, row in enumerate(rows[start:], start=start)]
    xs = tuple(p[0] for p in pairs)
    ys = tuple(p[1] for p in pairs)
    return FunctionSpec(L, Sampled(xs, ys, source=path))
