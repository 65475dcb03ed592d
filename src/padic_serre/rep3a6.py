"""Coarse conjugacy-class calculus for the alternating group on six letters
and its triple cover, with the mod-5 character data, Frobenius class
resolution, characteristic polynomials, and the mod-3 symmetric-square
construction.

Classes are plain label strings.  Classes of the base group are collapsed
by character value into 1a, 2a, 3ab, 4a, 5ab; the cover's thirteen coarse
classes are

    1a 3a 3b 2a 6a 6b 3cd 4a 12a 12b 5ab 15ac 15bd

with 3a/3b the central scalars z, z^2.  The trace character X over F_25
(z the deterministic cube root of unity) and the inverse-class involution
are frozen below; the tests check both against the explicit cover that
matrix_oracle.py builds.  The first mod-3 table is frozen too
(``MOD3_CLASS_POLYS``); ``a6_mod3_class_polys`` still builds both tables
from the group, as the oracle the frozen one is checked against.  Class
labels with order prime to 3 lift uniquely; multiplying by the central
scalar walks 1a->3a->3b, 2a->6a->6b, 4a->12a->12b, 5ab->15ac->15bd.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .arith import Fp2Elem, cube_root_of_unity
from .errors import InconsistencyError
from .matrices import Matrix, _classes, _decode, _group, charpoly3_reversed, mat

COVER_COARSE = ("1a", "3a", "3b", "2a", "6a", "6b", "3cd", "4a", "12a", "12b", "5ab", "15ac", "15bd")

_CYCLE_TYPE_TO_COARSE = {
    (1, 1, 1, 1, 1, 1): "1a",
    (2, 2, 1, 1): "2a",
    (3, 1, 1, 1): "3ab",
    (3, 3): "3ab",
    (4, 2): "4a",
    (5, 1): "5ab",
}

#: central twist: base class and scalar power i -> cover class
_CENTRAL_TWIST = {
    ("1a", 0): "1a", ("1a", 1): "3a", ("1a", 2): "3b",
    ("2a", 0): "2a", ("2a", 1): "6a", ("2a", 2): "6b",
    ("4a", 0): "4a", ("4a", 1): "12a", ("4a", 2): "12b",
    ("5ab", 0): "5ab", ("5ab", 1): "15ac", ("5ab", 2): "15bd",
}

#: inverting a class swaps the two scalar twists and fixes everything else
INVERSE_CLASS = {
    "1a": "1a", "2a": "2a", "3cd": "3cd", "4a": "4a", "5ab": "5ab",
    "3a": "3b", "3b": "3a", "6a": "6b", "6b": "6a",
    "12a": "12b", "12b": "12a", "15ac": "15bd", "15bd": "15ac",
}


def coarse_from_cycle_type(partition) -> str:
    """Coarse class label (1a, 2a, 3ab, 4a or 5ab) of a permutation with the
    given cycle type (a partition of 6); odd permutations are rejected."""
    key = tuple(sorted((int(x) for x in partition), reverse=True))
    if sum(key) != 6 or min(key) < 1:
        raise InconsistencyError(f"{key} is not a partition of 6")
    if sum(part - 1 for part in key) % 2:
        raise InconsistencyError(f"cycle type {key} is odd: not an even permutation")
    return _CYCLE_TYPE_TO_COARSE[key]


def central_twist(base: str, i: int) -> str:
    """Cover class of (unique same-order lift of base) times the i-th power
    of the central scalar.  Order-3 base classes have no such unique lift."""
    if base == "3ab":
        raise InconsistencyError("order-3 base class: use the order-3 rule (3cd)")
    return _CENTRAL_TWIST[(base, i % 3)]


def frobenius_class(cycle_type, artin_power: int, residue_degree: int) -> str:
    """Coarse cover class of a Frobenius element.

    Order-3 cycle types land in 3cd outright.  Otherwise the class is the
    unique same-order lift twisted by the central scalar to the power
    artin_power * residue_degree (the residue degree must equal the element
    order, and is its own inverse mod 3)."""
    base = coarse_from_cycle_type(cycle_type)
    if base == "3ab":
        return "3cd"
    order = lcm(*cycle_type)
    if residue_degree != order:
        raise InconsistencyError(
            f"residue degree {residue_degree} does not match element order {order}"
        )
    return central_twist(base, artin_power * residue_degree)


@lru_cache(maxsize=None)
def _mod5_table() -> dict[str, Fp2Elem]:
    z = cube_root_of_unity(5)
    z2 = z * z
    three, minus_two = Fp2Elem(5, 3, 0), Fp2Elem(5, -2, 0)
    one = Fp2Elem(5, 1, 0)
    return {
        "1a": three, "3a": three * z, "3b": three * z2,
        "2a": -one, "6a": -z, "6b": -z2,
        "3cd": Fp2Elem(5, 0, 0),
        "4a": one, "12a": z, "12b": z2,
        "5ab": minus_two, "15ac": minus_two * z, "15bd": minus_two * z2,
    }


def char_value(cls: str) -> Fp2Elem:
    """Trace character of the cover's 3-dimensional representation over
    F_25, for the model where the central scalar has trace 3z."""
    if cls not in COVER_COARSE:
        raise InconsistencyError(f"unknown cover class {cls}")
    return _mod5_table()[cls]


def inverse_class(cls: str) -> str:
    if cls not in COVER_COARSE:
        raise InconsistencyError(f"unknown cover class {cls}")
    return INVERSE_CLASS[cls]


def twist(poly: list[Fp2Elem], eps_sign: int) -> list[Fp2Elem]:
    """det(1 - eps*A*t) from the coefficients of det(1 - A*t), for a sign
    eps = +1 or -1: the t^k coefficient times eps^k, so eps = -1 negates
    the odd coefficients."""
    return [-c if eps_sign == -1 and k % 2 else c for k, c in enumerate(poly)]


def frob_charpoly(cls: str, eps_val: int) -> list[Fp2Elem]:
    """Coefficients [1, c1, c2, c3] of det(1 - eps * rho(Frob) * t) over
    F_25: the twist of 1 - X(cls)*t + X(cls^-1)*t^2 - t^3 by eps."""
    if eps_val not in (1, -1):
        raise InconsistencyError("eps_val must be +1 or -1")
    one = Fp2Elem(5, 1, 0)
    return twist([one, -char_value(cls), char_value(inverse_class(cls)), -one], eps_val)


# ---------------------------------------------------------------------------
# mod 3: the symmetric-square construction


def sym_square(m: Matrix) -> Matrix:
    """Symmetric square of a 2x2 matrix, on the basis (x^2, xy, y^2)."""
    a, b = m[0]
    c, d = m[1]
    return mat([
        [a * a, a * b, b * b],
        [a * c + a * c, a * d + b * c, b * d + b * d],
        [c * c, c * d, d * d],
    ])


def sl2_generators(p: int, entries) -> list[Matrix]:
    """The transvections [[1, t], [0, 1]] and [[1, 0], [t, 1]] for each t in
    entries.  With entries spanning F_q over F_p they generate SL_2(F_q)."""
    one, zero = Fp2Elem(p, 1, 0), Fp2Elem(p, 0, 0)
    ts = [one * t for t in entries]
    return [mat([[one, t], [zero, one]]) for t in ts] + [mat([[one, zero], [t, one]]) for t in ts]


@lru_cache(maxsize=None)
def a6_mod3_class_polys() -> tuple[dict, dict]:
    """The two Galois-conjugate tables class -> charpoly over F_9 for the
    3-dimensional mod-3 representations.

    Built as the group in SL_3(F_9) generated by the symmetric squares of
    the four transvection generators of SL_2(F_9): the image of SL_2(F_9),
    where the central sign dies, leaving the simple group of order 360.  Its
    sorted codes are bucketed by (order, trace); each order is one class
    except 5, whose two classes are separated by their distinct conjugate
    traces, labelled so that "5a" takes the lexicographically smaller one.  Keys: 1a, 2a, 3ab
    (both fine types share a unipotent charpoly), 4a, 5a, 5b.
    """
    images = _group([sym_square(g) for g in sl2_generators(3, (1, Fp2Elem(3, 0, 1)))], 360)
    classes = _classes(images, 3)
    keys = sorted(classes, key=lambda k: (k[0], k[1].c0, k[1].c1))
    if [order for order, _ in keys] != [1, 2, 3, 4, 5, 5]:
        raise AssertionError(f"expected one class per order 1-4 and two of order 5: {keys}")
    labels = ("1a", "2a", "3ab", "4a", "5a", "5b")
    table = {label: charpoly3_reversed(_decode(classes[key][0], 3))
             for label, key in zip(labels, keys)}
    # the Galois twin: same classes, coefficientwise conjugate polynomials
    # (concretely this exchanges the golden traces of 5a and 5b)
    conjugate = {k: [c.frobenius() for c in v] for k, v in table.items()}
    return table, conjugate


#: The first table of ``a6_mod3_class_polys``, frozen: class -> the
#: coefficients of its charpoly as F_9 pairs (c0, c1).  The tests check it,
#: and its Galois twin, against the group.
MOD3_CLASS_POLYS = {
    label: [Fp2Elem(3, c0, c1) for c0, c1 in pairs]
    for label, pairs in (
        ("1a", ((1, 0), (0, 0), (0, 0), (2, 0))),
        ("2a", ((1, 0), (1, 0), (2, 0), (2, 0))),
        ("3ab", ((1, 0), (0, 0), (0, 0), (2, 0))),
        ("4a", ((1, 0), (2, 0), (1, 0), (2, 0))),
        ("5a", ((1, 0), (1, 2), (2, 1), (2, 0))),
        ("5b", ((1, 0), (1, 1), (2, 2), (2, 0))),
    )
}


def mod3_charpoly_candidates(label: str) -> list[list[Fp2Elem]]:
    """Charpoly candidates for a class label in the first mod-3 table.

    "5ab", an order-5 class not resolved to 5a or 5b, gives both
    candidates, in which case downstream checks can only conclude "equal or
    conjugate"; any other label gives its one polynomial."""
    if label == "5ab":
        return [MOD3_CLASS_POLYS["5a"], MOD3_CLASS_POLYS["5b"]]
    return [MOD3_CLASS_POLYS[label]]
