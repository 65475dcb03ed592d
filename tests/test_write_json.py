"""The canonical writer against json.dumps(indent=2, sort_keys=True)."""

import enum
import json
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from padic_serre.errors import write_json

SEED = 30

#: characters a string or key is drawn from: quotes, backslashes, control
#: characters, DEL, Latin-1, the BMP's edge and astral code points
ALPHABET = ("a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\r", "\b", "\f", "\x00",
            "\x1f", "\x7f", "\u00e9", "\u00df", "\u03bb", "\u20ac", "\u2028", "\ufeff",
            "\uffff", "\U0001d53d", "\U0001f600", "\U0010ffff")


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 8)))


def _scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:
        return rng.choice((0, 1, -1, True, False))  # bool next to int
    if kind == 2:
        return rng.randrange(-10**6, 10**6)
    if kind == 3:
        return rng.choice((-1, 1)) * rng.randrange(10**999, 10**1000)  # 1,000 digits
    return _text(rng)


def _payload(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randrange(0, 5)  # empty containers included
    kind = rng.randrange(3)
    if kind == 0:
        return {_text(rng): _payload(rng, depth - 1) for _ in range(size)}
    items = [_payload(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_seeded_payloads_are_written_byte_for_byte_as_json_dumps():
    rng = random.Random(SEED)
    payloads = [_payload(rng, 5) for _ in range(400)]
    assert {type(p) for p in payloads} >= {dict, list, tuple, str, int, bool}
    for obj in payloads:
        assert write_json(obj) == _dumps(obj)


def test_edge_values():
    big = 7 * 10**999
    cases = [
        {}, [], (), "", 0, -0, True, False, None, big, -big,
        {"": [], "a": {}, "b": ()}, [[[]]], {"x": [{}]},
        [True, 1, False, 0, None], {"1": True, "10": 1, "2": False},
        {'k"ey': 1, "back\\slash": 2, "new\nline": 3, "\x00": 4, "\u00e9": 5,
         "\U0001f600": 6},
        ["\"quoted\"", "\\", " ", "\U0001d53d", "\x7f"],
    ]
    for obj in cases:
        assert write_json(obj) == _dumps(obj)


class _Pair(NamedTuple):
    c0: int
    c1: int


class _Label(str):
    pass


class _Kind(enum.IntEnum):
    ONE = 1


def test_subclasses_are_written_as_their_base():
    obj = {_Label("k"): [_Pair(1, 2), _Label("v"), _Kind.ONE], "d": type("D", (dict,), {})(z=1)}
    assert write_json(obj) == _dumps(obj)


@pytest.mark.parametrize("obj", [
    1.5, float("nan"), Fraction(1, 2), {1, 2}, object(), b"bytes", [1, [2.0]],
    {"a": {"b": Fraction(1, 3)}},
    {1: "int key"}, {None: "null key"}, {True: "bool key"}, {(1, 2): "tuple key"},
], ids=["float", "nan", "fraction", "set", "object", "bytes", "nested-float",
        "nested-fraction", "int-key", "none-key", "bool-key", "tuple-key"])
def test_unsupported_value_or_key_raises_type_error(obj):
    with pytest.raises(TypeError):
        write_json(obj)
