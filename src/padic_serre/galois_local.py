"""Ramification filtrations, the level exponent formula, break helpers, and
the local lifting criterion.

A filtration is the data (order_i, fixed_dim_i) for i = 0..r of the image
groups acting on an ambient space of dimension dim (3 throughout): order_i
the group order at index i, fixed_dim_i the dimension of its fixed
subspace.  Indices past r are implicitly (1, dim) and contribute nothing.
The conductor exponent at q is

    n_q = sum_i (order_i / order_0) * (dim - fixed_dim_i),

an integer for genuine Galois data; a fractional total means the input
filtration is inconsistent.

Filtrations are first-class input data: the break-finding helpers here
(distances, the break equation) cover the totally ramified cases where a
generator is a uniformizer, while composite towers arrive as hand-built
tables with provenance strings.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Record, is_prime
from .errors import InconsistencyError, json_int

#: Fixed-subspace dimensions of the standard 3-dimensional actions that
#: recur in the bundled scenarios.
FIXED_DIM_TABLE = {
    "V4-diagonal": 0,          # diag(+-1,+-1,+-1), det 1, acting with no invariants
    "order-3-permutation": 1,  # 3-cycle permutation matrix
    "diag(1,-1,-1)": 1,
    "diag(-1,1,1)": 2,
}


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
        entries = tuple((json_int(e["order"]), json_int(e["fixed_dim"])) for e in payload)
        return cls(entries, dim)


class LevelDatum(Record):
    __slots__ = ("q", "filtration")

    def __init__(self, q: int, filtration: RamFiltration):
        if not is_prime(q):
            raise InconsistencyError(f"{q} is not prime")
        self._set(q, filtration)

    @classmethod
    def from_json(cls, payload) -> "LevelDatum":
        return cls(json_int(payload["q"]), RamFiltration.from_json(payload["filtration"]))


def level_exponent(filt: RamFiltration) -> int:
    """The conductor exponent n_q; raises when the sum is not integral."""
    order0 = filt.entries[0][0]
    total = Fraction(0)
    for order, fix in filt.entries:
        total += Fraction(order, order0) * (filt.dim - fix)
    if total.denominator != 1:
        raise InconsistencyError(f"inconsistent filtration data: exponent {total}")
    return int(total)


def level(data: list[LevelDatum], p: int | None = None) -> tuple[dict[int, int], int]:
    """Exponent map q -> n_q and the level N as an integer."""
    exponents: dict[int, int] = {}
    for datum in data:
        if datum.q in exponents:
            raise InconsistencyError(f"duplicate prime {datum.q} in level data")
        if p is not None and datum.q == p:
            raise InconsistencyError(f"level prime {datum.q} equals the residue characteristic")
        exponents[datum.q] = level_exponent(datum.filtration)
    n = 1
    for q, e in exponents.items():
        n *= q**e
    return exponents, n


def filtration_from_distances(distances, e: int, n: int) -> list[int]:
    """Group orders at indices 0, 1, ... from uniformizer displacements.

    For a totally ramified Galois extension of degree n = e generated by a
    uniformizer, distances are ord_L(s(pi) - pi) over the n-1 nontrivial
    automorphisms s (ord_L normalized so the uniformizer has valuation 1;
    polygon slopes scale by e).  An automorphism sits in the index-i group
    exactly when its distance is >= i+1, so

        order_i = 1 + #{s : distance(s) >= i+1},

    and the list stops at the first trivial index.
    """
    ds = sorted(int(d) for d in distances)
    if len(ds) != n - 1:
        raise InconsistencyError(f"expected {n - 1} distances, got {len(ds)}")
    if n != e:
        raise InconsistencyError("helper requires a totally ramified extension (n = e)")
    if any(d < 1 for d in ds):
        raise InconsistencyError("distances must be positive integers")
    orders = []
    i = 0
    while True:
        order = 1 + sum(1 for d in ds if d >= i + 1)
        if order == 1:
            break
        orders.append(order)
        i += 1
    return orders


def solve_break_equation(
    embeddings: int, factors: int, offset: int, disc_mult: int, d: int, e: int
) -> int:
    """Solve embeddings * factors * (nu + offset) = disc_mult * d * e for nu."""
    for name, v in (("embeddings", embeddings), ("factors", factors),
                    ("disc_mult", disc_mult), ("d", d), ("e", e)):
        if v <= 0:
            raise InconsistencyError(f"{name} must be positive")
    nu = Fraction(disc_mult * d * e, embeddings * factors) - offset
    if nu.denominator != 1:
        raise InconsistencyError(f"inconsistent ramification data: nu = {nu}")
    return int(nu)


def lifting_obstruction_vanishes(local_group_orders) -> bool:
    """Sufficient local criterion for lifting a projective representation:
    no local image has order divisible by 9.  False means "inconclusive",
    not "obstructed"."""
    return all(order % 9 != 0 for order in local_group_orders)
