"""JSON/CSV serialization and atomic file output.

JSON schemas (floats serialize via repr, so a dump/load round-trip is
bit-exact):

    {"kind": "classical",    "L": .., "N": .., "a": [..], "b": [..]}
    {"kind": "antiperiodic", "L": .., "N": .., "gamma": .., "alpha": [..], "beta": [..]}
    {"kind": "heat",         "k": .., "L": .., "c": .., "N": .., "A": [..], "B": [..]}

CSV cells are written with 17 significant digits, enough to round-trip a
double.
"""

from __future__ import annotations

import json
import os
import tempfile
from io import StringIO

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
        except ValueError as exc:
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


def csv_text(header, rows) -> str:
    """Assemble CSV text (comma separated, trailing newline) from any iterable
    of rows, without holding a list of lines."""
    out = StringIO()
    out.write(",".join(header) + "\n")
    out.writelines(",".join(map(fmt, row)) + "\n" for row in rows)
    return out.getvalue()


def report_csv(reports) -> str:
    """CSV text for diagnostics rows in the fixed REPORT_COLUMNS order."""
    return csv_text(REPORT_COLUMNS, report_rows(reports))


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename; never leaves a
    partial file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".antifourier-", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc
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
