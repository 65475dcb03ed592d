"""Exception types shared across the package, the one reader of JSON
files (``read_json``) and the one rule for integers read from JSON
(``json_int``).

Outside input is parsed once, at load, by the type that owns it (a case
file by ``CaseFile.from_dict``, an evidence claim by
``krasner.parse_evidence``, anything else by its class's ``from_json``).
The CLI maps the errors onto its exit-code contract: schema/parse problems
exit 2, mathematical inconsistencies exit 3.  Exit 1 (a golden-value
mismatch) is not an exception: ``verify-case`` reads it off the report.
"""

import json
import re


class PadicSerreError(Exception):
    """Base class for all package errors."""


class SchemaError(PadicSerreError):
    """Malformed input file or JSON payload."""


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


def read_json(path):
    """The JSON document at path; SchemaError if unreadable or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse {path}: {exc}") from exc
