"""Exception types shared across the package, the one reader and writer of
JSON files (``read_json``, ``write_json``), the one rule each for integers,
strings, booleans and lists read from JSON (``json_int``, ``json_str``,
``json_bool``, ``json_list``) and the one reader by a table (``read_fields``).

Outside input is read once, at load, by the field tables of the types that
own it (``casefile.CASE`` and the tables it nests, ``PROFILE`` for a
profile file).  As with JSON Schema's ``additionalProperties: false``, a
key outside the table is an error, like a missing required key or a value
its parser rejects: a SchemaError naming the key's dotted path.  The CLI
maps the errors onto its exit-code contract: schema/parse problems exit 2,
mathematical inconsistencies exit 3.  Exit 1 (a golden-value mismatch) is
not an exception: ``verify-case`` reads it off the report.
"""

import json
import re
from json.encoder import encode_basestring_ascii


class PadicSerreError(Exception):
    """Base class for all package errors."""


class SchemaError(PadicSerreError):
    """Malformed input file or JSON payload; path is the dotted path of the
    offending value within it ("" for the value itself)."""

    def __init__(self, message: str, path: str = ""):
        self.message, self.path = message, path
        super().__init__(f"{path}: {message}" if path else message)


class InconsistencyError(PadicSerreError):
    """Input data that is syntactically fine but mathematically impossible."""


class EvidenceError(InconsistencyError):
    """An irreducibility evidence claim failed to validate.

    ``which`` identifies the offending input ("f" or "g").
    """

    def __init__(self, which: str, message: str):
        self.which = which
        super().__init__(f"{which}: {message}")


def json_int(c) -> int:
    """The one rule for integers read from JSON: an int or a decimal
    string, never a bool or a float; ValueError otherwise."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str) and re.fullmatch(r"[+-]?[0-9]+", c):
        return int(c)
    raise ValueError(f"{c!r} is not an integer or a decimal string")


def json_str(c) -> str:
    """A string; ValueError otherwise."""
    if isinstance(c, str):
        return c
    raise ValueError(f"{c!r} is not a string")


def json_bool(c) -> bool:
    """true or false, never 0, 1 or a string; ValueError otherwise."""
    if isinstance(c, bool):
        return c
    raise ValueError(f"{c!r} is not true or false")


def json_list(c) -> list:
    """The one rule for lists read from JSON: a list, never an object or a
    string; ValueError otherwise."""
    if isinstance(c, list):
        return c
    raise ValueError(f"{c!r} is not a list")


REQUIRED, NULLABLE = object(), object()  # must be present; absent or null reads as None


def read_fields(payload, table):
    """payload read by table: a parser (a function of the value), a tuple of
    the values allowed, a list [t] or [t, n] (a JSON list, of n items, each
    read by t, read as a tuple) or a field table, a dict mapping each key
    the object may hold to (t, mark), mark being REQUIRED, NULLABLE or the
    value of an absent key (read as a dict with every key of the table).
    An unknown key, a missing required key or a value a parser rejects:
    SchemaError naming its path, e.g. ``frobenius_inputs[3].cycle_typ``."""
    try:
        if isinstance(table, dict):
            if not isinstance(payload, dict):
                raise ValueError(f"{payload!r} is not an object")
            for key in payload:
                if key not in table:
                    raise SchemaError("unknown key", key)
            return {key: _read_field(payload, key, t, mark) for key, (t, mark) in table.items()}
        if isinstance(table, list):
            items = json_list(payload)
            if len(table) == 2 and len(items) != table[1]:
                raise ValueError(f"{payload!r} does not have {table[1]} items")
            return tuple(_read_at(f"[{i}]", item, table[0]) for i, item in enumerate(items))
        if isinstance(table, tuple):
            if payload not in table:
                raise ValueError(f"{payload!r} is not one of {table}")
            return payload
        return table(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def _read_field(payload: dict, key: str, table, mark):
    if key in payload and not (mark is NULLABLE and payload[key] is None):
        return _read_at(key, payload[key], table)
    if mark is REQUIRED:
        raise SchemaError("required key missing", key)
    return None if mark is NULLABLE else mark


def _read_at(step: str, value, table):
    """value read by table, a SchemaError's path led by step."""
    try:
        return read_fields(value, table)
    except SchemaError as exc:
        dot = "." if exc.path and not exc.path.startswith("[") else ""
        raise SchemaError(exc.message, step + dot + exc.path) from exc


def write_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for
    byte, without the pure-Python encoder that indent selects: str, int,
    bool, None, list, tuple and dict with str keys, and their subclasses;
    TypeError on any other value or key (a float included), in one buffer."""
    out = []
    _write(obj, "\n", out.append)
    return "".join(out) + "\n"


_KINDS = frozenset((str, int, bool, type(None), list, tuple, dict))


def _write(obj, newline: str, put) -> None:
    kind = type(obj)
    if kind not in _KINDS:  # a subclass is written as its base
        kind = next((t for t in (str, int, list, tuple, dict) if isinstance(obj, t)), None)
    if kind is str or kind is int:
        put(encode_basestring_ascii(obj) if kind is str else int.__repr__(obj))
    elif obj is None or kind is bool:
        put("null" if obj is None else "true" if obj else "false")
    elif kind is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    else:
        brackets, inner = "{}" if kind is dict else "[]", newline + "  "  # an item's line
        sep, comma = brackets[0] + inner, "," + inner
        for item in sorted(obj.items()) if kind is dict else obj:
            if kind is dict:
                put(sep + encode_basestring_ascii(item[0]) + ": ")
                _write(item[1], inner, put)
            elif type(item) is int:  # a list's ints skip the call
                put(sep + int.__repr__(item))
            else:
                put(sep)
                _write(item, inner, put)
            sep = comma
        put(newline + brackets[1] if obj else brackets)


def read_json(path):
    """The JSON document at path; SchemaError if unreadable or not JSON (an
    integer literal past the interpreter's digit limit and nesting past its
    recursion limit included)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot parse {path}: {exc}") from exc
