"""Ramification filtrations and the level exponent formula.

A filtration is the data (order_i, fixed_dim_i) for i = 0..r of the image
groups acting on an ambient space of dimension dim (3 throughout): order_i
the group order at index i, fixed_dim_i the dimension of its fixed
subspace.  Indices past r are implicitly (1, dim) and contribute nothing.
The conductor exponent at q is

    n_q = sum_i (order_i / order_0) * (dim - fixed_dim_i),

an integer for genuine Galois data; a fractional total means the input
filtration is inconsistent.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import prod

from .arith import Record, _require_prime
from .errors import REQUIRED, InconsistencyError, SchemaError, json_int, json_str, read_fields

#: One step (order_i, fixed_dim_i) of a filtration.
STEP = {"order": (json_int, REQUIRED), "fixed_dim": (json_int, REQUIRED)}


class RamFiltration(Record):
    __slots__ = ("entries", "dim")  # entries: (order_i, fixed_dim_i) pairs

    def __init__(self, entries: tuple[tuple[int, int], ...], dim: int = 3):
        if not entries:
            raise InconsistencyError("filtration needs at least the inertia entry")
        prev = None
        prev_fix = None
        for order, fix in entries:
            if order < 1:
                raise InconsistencyError("group orders must be positive")
            if not 0 <= fix <= dim:
                raise InconsistencyError("fixed dimension out of range")
            if prev is not None:
                if order > prev or prev % order != 0:
                    raise InconsistencyError(
                        "orders must be non-increasing and divide their predecessors"
                    )
                if fix < prev_fix:
                    raise InconsistencyError("fixed dimensions must be non-decreasing")
            prev, prev_fix = order, fix
        self._set(entries, dim)

    @classmethod
    def from_json(cls, payload, dim: int = 3) -> "RamFiltration":
        """The filtration read as a list of STEP objects."""
        steps = read_fields(payload, [STEP])
        return cls(tuple((step["order"], step["fixed_dim"]) for step in steps), dim)


#: A level datum; the provenance is an annotation, checked and not used.
LEVEL_DATUM = {"q": (json_int, REQUIRED), "filtration": (RamFiltration.from_json, REQUIRED),
               "provenance": (json_str, "")}


class LevelDatum(Record):
    __slots__ = ("q", "filtration")

    def __init__(self, q: int, filtration: RamFiltration):
        _require_prime(q)
        self._set(q, filtration)

    @classmethod
    def from_json(cls, payload) -> "LevelDatum":
        """The datum read by LEVEL_DATUM."""
        fields = read_fields(payload, LEVEL_DATUM)
        return cls(fields["q"], fields["filtration"])


def level_exponent(filt: RamFiltration) -> int:
    """The conductor exponent n_q; raises when the sum is not integral."""
    order0 = filt.entries[0][0]
    total = sum(order * (filt.dim - fix) for order, fix in filt.entries)
    if total % order0:
        raise InconsistencyError(
            f"inconsistent filtration data: exponent {Fraction(total, order0)}")
    return total // order0


def level(data: list[LevelDatum], p: int | None = None) -> tuple[dict[int, int], int]:
    """Exponent map q -> n_q and the level N as an integer; SchemaError for
    an N with more digits than the interpreter writes in decimal."""
    exponents: dict[int, int] = {}
    for datum in data:
        if datum.q in exponents:
            raise InconsistencyError(f"duplicate prime {datum.q} in level data")
        if p is not None and datum.q == p:
            raise InconsistencyError(f"level prime {datum.q} equals the residue characteristic")
        exponents[datum.q] = level_exponent(datum.filtration)
    limit = sys.get_int_max_str_digits()  # 2^(3 limit) < 10^limit < 2^(4 limit)
    bound = sum(e * (q.bit_length() - 1) for q, e in exponents.items())  # N >= 2^bound
    n = None if limit and bound >= 4 * limit else prod(q**e for q, e in exponents.items())
    if n is None or limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise SchemaError(f"N has more than {limit} digits, the limit for writing an integer")
    return exponents, n
