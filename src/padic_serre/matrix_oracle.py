"""An explicit copy of the triple cover inside SL_3(F_25), used as an
independent oracle for the frozen class data in rep3a6.

Construction, from scratch each run (deterministic):

1.  The two transvection generators of SL_2(F_5), pushed through the
    symmetric square, generate a 60-element icosahedral subgroup H of
    SL_3(F_5), acting irreducibly in dimension 3.
2.  The cover is generated by H together with one extra involution M,
    frozen below as ``EXTRA_INVOLUTION``.  Any involution of the cover
    outside H will do: a subgroup containing H is H, H*Z or the whole
    group, and H*Z has no involution outside H.  M was derived once, by
    solving for an intertwiner that normalizes a tetrahedral subgroup of H
    up to central scalars; tests/test_cover_witness.py re-derives it that
    way and compares.
3.  The witness is checked, not trusted: M^2 = I, det M = 1, the closure
    of the two Sym^2 generators and M has exactly 1080 elements (it gives
    up past that), and it contains the scalar z*I, so its center has order
    3.  That M lies outside H follows from the count, and the class
    sizes checked in ``classified_cover`` pin the group as the triple cover
    of A_6.

The cover is kept as the sorted code tuples of ``matrices._group``, built
once; the order walks (one walk over the powers of an element gives the
orders of all of them) and the bucketing by (order, trace) run on codes; a
class representative is a code tuple, and traces and charpolys are reduced
pairs (c0, c1).  (order, trace) separates all thirteen coarse classes: the
scalars z*I and z^2*I (traces 3z and 3z^2, for the deterministic cube root
z) are classes "3a" and "3b", and in orders 6, 12 and 15 the trace picks
the central twist.  The inverse of a class is read from the
representative's characteristic polynomial, whose t^2 coefficient is the
trace of the inverse (determinant one).
"""

from __future__ import annotations

from functools import lru_cache

from . import matrices
from .arith import cube_root_of_unity, pair_mul
from .errors import InconsistencyError
from .matrices import Code, _classes, _group, charpoly, sym_square
from .rep3a6 import sl2_generators

#: The extra involution M, row by row, as code pairs (c0, c1) of the F_25
#: entries c0 + c1*w, w a root of ``quadratic_modulus(5)``.
EXTRA_INVOLUTION = ((2, 0), (4, 3), (2, 0), (3, 4), (0, 0), (2, 1), (2, 0), (1, 2), (2, 0))


@lru_cache(maxsize=None)
def _cover_codes() -> list[Code]:
    """The 1080-element cover in SL_3(F_25) as sorted flat code tuples,
    built and checked once."""
    p = 5
    m = tuple([c0 + p * c1 for c0, c1 in EXTRA_INVOLUTION])
    # resolved in matrices, like every other product of the build
    if matrices._product(m, m, *matrices._tables(p)[:2]) != matrices._IDENTITY:
        raise AssertionError("the extra generator is not an involution")
    if charpoly(m, p)[3] != (p - 1, 0):  # -det M
        raise AssertionError("the extra generator does not have determinant 1")
    group = _group([sym_square(g, p) for g in sl2_generators((1,))] + [m], p, 1080)
    z0, z1 = cube_root_of_unity(p)
    z = z0 + p * z1
    if (z, 0, 0, 0, z, 0, 0, 0, z) not in group:
        raise AssertionError("the center does not contain the cube roots of unity")
    return group


def _cover_label(order: int, tr: tuple[int, int], z: tuple[int, int]) -> str:
    """Coarse class of a cover element from its (order, trace), as pairs.
    One class of each order 3, 6, 12 and 15 is named by its trace k*x: 3z
    and 3z^2 (the scalars), and -z, z and -2z (the first central twist);
    every other element takes its order's remaining class."""
    named = {(3, 3, z): "3a", (3, 3, pair_mul(5, z, z)): "3b", (6, -1, z): "6a",
             (12, 1, z): "12a", (15, -2, z): "15ac"}
    by_trace = {(n, (k * x[0] % 5, k * x[1] % 5)): label for (n, k, x), label in named.items()}
    by_order = {1: "1a", 2: "2a", 3: "3cd", 4: "4a", 5: "5ab", 6: "6b", 12: "12b", 15: "15bd"}
    if order not in by_order:
        raise AssertionError(f"unexpected element order {order}")
    return by_trace.get((order, tr), by_order[order])


@lru_cache(maxsize=None)
def classified_cover() -> dict[str, dict]:
    """Class label -> {size, trace, charpoly, inverse_label, representative}
    derived purely from the explicit group, for cross-checking the frozen
    tables; the trace and the charpoly are reduced pairs, the
    representative a code tuple."""
    z = cube_root_of_unity(5)
    out = {}
    for (order, tr), members in _classes(_cover_codes(), 5).items():
        label = _cover_label(order, tr, z)
        if label in out:
            raise AssertionError(f"class {label} has mixed traces")
        cubic = charpoly(members[0], 5)
        out[label] = {
            "size": len(members),
            "trace": tr,
            "charpoly": cubic,
            # the inverse has the same order, and its trace is charpoly[2]
            "inverse_label": _cover_label(order, cubic[2], z),
            "representative": members[0],
        }
    expected_sizes = {
        "1a": 1, "3a": 1, "3b": 1, "2a": 45, "6a": 45, "6b": 45, "3cd": 240,
        "4a": 90, "12a": 90, "12b": 90, "5ab": 144, "15ac": 144, "15bd": 144,
    }
    sizes = {label: info["size"] for label, info in out.items()}
    if sizes != expected_sizes:
        raise AssertionError(f"class sizes {sizes} differ from {expected_sizes}")
    return out


def oracle_charpoly(label: str, eps_val: int) -> tuple[tuple[int, int], ...]:
    """det(1 - eps*m*t) for a class representative, as reduced pairs,
    computed from the matrix itself (eps in {+1,-1} twists the
    representative)."""
    if eps_val not in (1, -1):
        raise InconsistencyError("eps_val must be +1 or -1")
    rep = classified_cover()[label]["representative"]
    if eps_val == -1:
        neg = matrices._tables(5)[2]
        rep = tuple([neg[x] for x in rep])
    return charpoly(rep, 5)
