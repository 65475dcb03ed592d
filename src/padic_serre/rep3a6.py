"""Coarse conjugacy-class calculus for the alternating group on six letters
and its triple cover, one rule from a Frobenius row to its class at either
prime (frobenius_class), the characteristic polynomials of the
3-dimensional mod-p representations, and the mod-3 symmetric-square
construction.

Classes are plain label strings.  Classes of the base group are collapsed
by character value into 1a, 2a, 3ab, 4a, 5ab; the cover's thirteen coarse
classes are

    1a 3a 3b 2a 6a 6b 3cd 4a 12a 12b 5ab 15ac 15bd

with 3a/3b the central scalars z, z^2.  Class labels with order prime to 3
lift uniquely, and one table, _TWISTS, walks each lift through its central
twists (1a->3a->3b, ...).  At both primes one rule gives
the charpolys, det(1 - g*t) = 1 - tr(g)*t + tr(g^-1)*t^2 - t^3 for det g = 1,
from the traces frozen below; the tests check them against the cover in
SL_3(F_25) that matrix_oracle.py builds and the Sym^2 image in SL_3(F_9).
Every F_{p^2} value here is a reduced pair (c0, c1), a charpoly a tuple of
four of them, and a matrix of the mod-3 construction a tuple of codes
c0 + p*c1 (see matrices).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .arith import frobenius_pairs
from .errors import InconsistencyError
from .matrices import Code, _classes, _group, charpoly, sym_square

#: trace of each class as the F_{p^2} pair (c0, c1): the cover's classes at
#: p = 5, where z = (2, 1), and the Sym^2 image's at p = 3
TRACES = {
    5: {"1a": (3, 0), "3a": (1, 3), "3b": (1, 2), "2a": (4, 0), "6a": (3, 4), "6b": (3, 1),
        "3cd": (0, 0), "4a": (1, 0), "12a": (2, 1), "12b": (2, 4),
        "5ab": (3, 0), "15ac": (1, 3), "15bd": (1, 2)},
    3: {"1a": (0, 0), "2a": (2, 0), "3ab": (0, 0), "4a": (1, 0), "5a": (2, 1), "5b": (2, 2)},
}

COVER_COARSE = tuple(TRACES[5])

_CYCLE_TYPE_TO_COARSE = {
    (1, 1, 1, 1, 1, 1): "1a",
    (2, 2, 1, 1): "2a",
    (3, 1, 1, 1): "3ab",
    (3, 3): "3ab",
    (4, 2): "4a",
    (5, 1): "5ab",
}

#: central twist: base class -> its unique same-order lift times z^0, z^1, z^2
_TWISTS = {"1a": ("1a", "3a", "3b"), "2a": ("2a", "6a", "6b"), "4a": ("4a", "12a", "12b"),
           "5ab": ("5ab", "15ac", "15bd")}

#: the classes that are not their own inverse: the two scalar twists swap
_SWAPPED = {a: b for _, x, y in _TWISTS.values() for a, b in ((x, y), (y, x))}


def coarse_from_cycle_type(partition) -> str:
    """Coarse class label (1a, 2a, 3ab, 4a or 5ab) of a permutation with the
    given cycle type (a partition of 6); odd permutations are rejected."""
    key = tuple(sorted((int(x) for x in partition), reverse=True))
    if sum(key) != 6 or min(key) < 1:
        raise InconsistencyError(f"{key} is not a partition of 6")
    if sum(part - 1 for part in key) % 2:
        raise InconsistencyError(f"cycle type {key} is odd: not an even permutation")
    return _CYCLE_TYPE_TO_COARSE[key]


def frobenius_class(p: int, cycle_type, artin_power=None, residue_degree=None,
                    fine="unknown") -> str:
    """Class of a Frobenius row at p = 3 or 5.  A residue degree must equal the
    element order, fine (5a or 5b) splits an order-5 class at p = 3 only, and
    an Artin power is read at p = 5 only.  At p = 5 order 3 lands in 3cd,
    any other order in the same-order lift twisted by the central scalar to
    the power artin_power * order, an absent Artin power reading 0."""
    if p not in TRACES:
        raise InconsistencyError(f"no frozen class data for p = {p};"
                                 f" only p in {tuple(sorted(TRACES))} is bundled")
    base, order = coarse_from_cycle_type(cycle_type), lcm(*cycle_type)
    if fine != "unknown" and base != "5ab":
        raise InconsistencyError(f"fine_order5 {fine} contradicts the cycle type's class {base}")
    if fine != "unknown" and p != 3:
        raise InconsistencyError(f"fine_order5 {fine} splits 5ab only at p = 3, not at p = {p}")
    if residue_degree not in (None, order):
        raise InconsistencyError(f"residue degree {residue_degree} does not match element"
                                 f" order {order}")
    if p == 3:
        if artin_power is not None:
            raise InconsistencyError(f"artin_power {artin_power} twists the class only at"
                                     " p = 5, not at p = 3")
        return base if fine == "unknown" else fine
    return "3cd" if order == 3 else _TWISTS[base][(artin_power or 0) * order % 3]


@lru_cache(maxsize=None)
def class_charpolys(p: int, label: str, eps_sign: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """det(1 - eps*rho(g)*t) for each class g the label names, p in (3, 5),
    as reduced coefficient pairs (c0, c1): (1, 0), -eps*tr(g), tr(g^-1) and
    -eps.  At p = 3, "5ab" (order 5, not resolved to 5a or 5b) names both,
    and downstream checks can only conclude "equal or conjugate"."""
    trace = TRACES[p]
    labels = ("5a", "5b") if p == 3 and label == "5ab" else (label,)
    return tuple(((1, 0), tuple([-eps_sign * c % p for c in trace[name]]),
                  trace[_SWAPPED.get(name, name)], (-eps_sign % p, 0)) for name in labels)


def _cover_class(cls: str) -> str:
    if cls not in TRACES[5]:
        raise InconsistencyError(f"unknown cover class {cls}")
    return cls


def char_value(cls: str) -> tuple[int, int]:
    """Trace character of the cover's 3-dimensional representation over
    F_25, as a pair, for the model where the central scalar has trace 3z."""
    return TRACES[5][_cover_class(cls)]


def inverse_class(cls: str) -> str:
    return _SWAPPED.get(_cover_class(cls), cls)


def frob_charpoly(cls: str, eps_val: int) -> tuple[tuple[int, int], ...]:
    """det(1 - eps * rho(Frob) * t) over F_25 for a cover class, as pairs."""
    if eps_val not in (1, -1):
        raise InconsistencyError("eps_val must be +1 or -1")
    return class_charpolys(5, _cover_class(cls), eps_val)[0]


# ---------------------------------------------------------------------------
# mod 3: the symmetric-square construction


def sl2_generators(entries) -> list[Code]:
    """The transvections [[1, t], [0, 1]] and [[1, 0], [t, 1]] as 2x2 code
    tuples, for each code t in entries (w is code p in F_{p^2}).  With
    entries spanning F_q over F_p they generate SL_2(F_q)."""
    return [(1, t, 0, 1) for t in entries] + [(1, 0, t, 1) for t in entries]


@lru_cache(maxsize=None)
def a6_mod3_class_polys() -> tuple[dict, dict]:
    """The two Galois-conjugate tables class -> charpoly (reduced pairs) over
    F_9 for the 3-dimensional mod-3 representations.

    Built as the group in SL_3(F_9) generated by the symmetric squares of
    the four transvection generators of SL_2(F_9): the image of SL_2(F_9),
    where the central sign dies, leaving the simple group of order 360.  Its
    sorted codes are bucketed by (order, trace); each order is one class
    except 5, whose two classes are separated by their distinct conjugate
    traces, labelled so that "5a" takes the lexicographically smaller one.  Keys: 1a, 2a, 3ab
    (both fine types share a unipotent charpoly), 4a, 5a, 5b.
    """
    images = _group([sym_square(g, 3) for g in sl2_generators((1, 3))], 3, 360)
    classes = _classes(images, 3)
    keys = sorted(classes)
    if [order for order, _ in keys] != [1, 2, 3, 4, 5, 5]:
        raise AssertionError(f"expected one class per order 1-4 and two of order 5: {keys}")
    labels = ("1a", "2a", "3ab", "4a", "5a", "5b")
    table = {label: charpoly(classes[key][0], 3) for label, key in zip(labels, keys)}
    # the Galois twin: same classes, coefficientwise conjugate polynomials
    # (concretely this exchanges the golden traces of 5a and 5b)
    conjugate = {k: frobenius_pairs(3, v) for k, v in table.items()}
    return table, conjugate
