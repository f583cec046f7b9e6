"""JSON text of a report, equal to ``json.dumps(value, indent=2, sort_keys=True)``.

``json`` uses its C encoder only when ``indent`` is None; with an indent it
falls back to a pure-Python encoder that costs several times the C one on a
large report.  This writer produces the same bytes with less work per item.
``write_json`` hands the text to a ``write`` callable in bounded pieces as it
is formatted, so a caller writing to a file never holds the whole text;
``format_json`` joins those pieces into one string.
A ``bytes`` value, such as a usage-matrix row, is written as the list of
its byte values.  When all of them are in 0..9, as the 0/1 cells of a
matrix row are, the text comes from one ``translate`` pass and one
``replace`` instead of one ``repr`` per value; the type alone guarantees
each value is an int in 0..255, so no cell is checked.
A dict's heads, the ``"{"`` or ``","`` plus indent plus ``"key": `` text
before each of its values, in sorted key order, are derived once per shape
and call: a shape is the dict's key tuple, in insertion order, and its
indent.  Every other dict of that shape, such as each candidate or
iteration record of a report, reuses them, so it neither sorts its keys nor
checks or encodes one.
"""

from __future__ import annotations

import json
import math

_json_str = json.encoder.encode_basestring_ascii
_DIGITS = b"0123456789".ljust(256, b"?")  # byte value -> its digit, or "?" above 9
_PIECE_CHUNKS = 64  # chunks buffered before they go to ``write`` as one piece


def format_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    values whose dict keys are all strings; ``bytes`` is written as the list
    of its byte values."""
    pieces: list[str] = []
    write_json(value, pieces.append)
    return "".join(pieces)


def write_json(value, write) -> None:
    """Write ``format_json(value)`` through ``write``, in pieces of a bounded
    number of chunks (one ``bytes`` row may make a chunk long)."""
    out: list[str] = []
    _write_json(value, "\n", out, write, {})
    if out:
        write("".join(out))


def _write_json(value, newline: str, out: list[str], write, shapes: dict) -> None:
    """Append ``value``'s text; ``newline`` is a line break plus the current indent.

    Containers and ``bytes`` are tested first: no value is both one of them
    and a scalar, so the order of the tests does not change what a value is
    written as.
    A container writes a child whose type is exactly ``str`` or ``int``
    itself, with no call; every other child, ``bool`` and subclasses
    included, takes the branches below.  A dict reads its heads from
    ``shapes``, which maps each shape met so far in this call to its inner
    indent and heads (``_heads``).  At the end of a container or a ``bytes``
    row, a buffer of more than ``_PIECE_CHUNKS`` chunks goes to ``write``
    and is emptied.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        shape = (tuple(value), newline)
        heads = shapes.get(shape)
        if heads is None:
            heads = shapes[shape] = _heads(*shape)
        inner, keyed = heads
        for key, head in keyed:
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(head + _json_str(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write_json(item, inner, out, write, shapes)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(separator + _json_str(item))
            elif kind is int:
                out.append(separator + int.__repr__(item))
            else:
                out.append(separator)
                _write_json(item, inner, out, write, shapes)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, bytes):
        inner = newline + "  "
        out.append("[" + inner + join_values("," + inner, value) + newline + "]" if value else "[]")
    else:
        out.append(_scalar(value))
        return
    if len(out) > _PIECE_CHUNKS:
        write("".join(out))
        out.clear()


def _heads(keys: tuple, newline: str) -> tuple[str, tuple[tuple[object, str], ...]]:
    """The inner indent of a dict with ``keys`` at ``newline``, and each key in
    sorted order with the text written before its value; a TypeError for a
    key that is not a ``str``."""
    inner = newline + "  "
    separator = "{" + inner
    keyed = []
    for key in sorted(keys):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        keyed.append((key, separator + _json_str(key) + ": "))
        separator = "," + inner
    return inner, tuple(keyed)


def join_values(separator: str, row: bytes) -> str:
    """``separator.join`` of the decimal text of each of ``row``'s byte values."""
    digits = row.translate(_DIGITS)
    if digits.isdigit():  # one digit per value, spread out in one C-level pass
        return digits.decode("ascii").replace("", separator)[len(separator):-len(separator)]
    return separator.join(map(int.__repr__, row))  # a value above 9, or no value


def _scalar(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)
