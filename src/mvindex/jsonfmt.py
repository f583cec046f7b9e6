"""JSON text of a report, equal to ``json.dumps(value, indent=2, sort_keys=True)``.

``json`` uses its C encoder only when ``indent`` is None; with an indent it
falls back to a pure-Python encoder that costs several times the C one on a
large report.  This writer produces the same bytes with less work per item.
When every item of a list is an exact int in 0..9, as in a usage-matrix
row, its text comes from one ``bytes`` and ``translate`` pass instead of
one ``repr`` per item.
"""

from __future__ import annotations

import json
import math
from operator import countOf

_json_str = json.encoder.encode_basestring_ascii
_DIGITS = b"0123456789".ljust(256, b"?")  # byte value -> its digit, or "?" above 9


def format_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    values whose dict keys are all strings."""
    chunks: list[str] = []
    _write_json(value, "\n", chunks)
    return "".join(chunks)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s text; ``newline`` is a line break plus the current indent."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        items = digit_string(value)
        if items is not None:
            out.append("[" + inner + ("," + inner).join(items) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _json_str(key) + ": ")
            separator = "," + inner
            _write_json(value[key], inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def digit_string(values) -> str | None:
    """The items of a list or tuple of exact ints, all in 0..9, as one digit
    each, or None for any other sequence.  Each pass over the items runs in C."""
    # exact ints only: a bool passes bytes() as 0 or 1, but prints as true or false
    if countOf(map(type, values), int) != len(values):
        return None
    try:
        digits = bytes(values).translate(_DIGITS)
    except ValueError:  # an int outside 0..255
        return None
    return digits.decode("ascii") if digits.isdigit() else None


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)
