"""Derivation of an explicit copy of the triple cover inside SL_3(F_25),
used as an independent oracle for the frozen class data in rep3a6.

Construction, from scratch each run (deterministic):

1.  Close over the two transvection generators of SL_2(F_5) and push the
    result through the symmetric square: a 60-element icosahedral subgroup
    H of SL_3(F_5), acting irreducibly in dimension 3.
2.  Inside H, locate a Klein four-subgroup V and its normalizer K (the m
    with m*V = V*m), a 12-element tetrahedral subgroup.
3.  The cover is generated by H together with one extra involution M that
    normalizes K *up to central scalars*: conjugation by M sends a
    tetrahedral element k to chi(k) * theta(k), where theta is an outer
    automorphism of K and chi a cube-root-of-unity character (K has three
    complements to the center inside its scalar extension, and conjugation
    may rotate them; chi kills the Klein subgroup, so only the order-3
    generator's image picks up a scalar).  Such an M is an intertwiner
    between two irreducible K-representations, hence the unique-up-to-
    scalar solution of the linear system M*k = chi(k)*theta(k)*M.  We scan
    the finitely many candidate images, solve each system over F_25,
    rescale to determinant one (three choices, differing by a cube root of
    unity -- exactly the three lifts), and keep the scaling of order 2.
4.  The closure of the two Sym^2 generators of H and M has order 1080 with
    center of order 3: the triple cover.  The closure grows by whole cosets
    and gives up once it passes 1300 elements.  Everything else the scan can
    produce is rejected by that count (an inner twist reproduces H itself,
    and the chi-trivial outer twists land in the 120-element
    symmetric-group extension that char 5 happens to admit), so the scan is
    self-verifying.

Element orders, in H, in K and in the cover alike, come from
``element_orders``: one walk over the powers of an element gives the orders
of all of them.  Elements are then bucketed by (order, trace), which
separates all thirteen coarse classes: the scalars z*I and z^2*I (traces 3z
and 3z^2, for the deterministic cube root z) are classes "3a" and "3b", and
in orders 6, 12 and 15 the trace picks the central twist.  The inverse of a class is read
from the representative's characteristic polynomial, whose t^2 coefficient
is the trace of the inverse (determinant one).
"""

from __future__ import annotations

from functools import lru_cache

from .arith import Fp2Elem, cube_root_of_unity, elements
from .errors import InconsistencyError
from .matrices import (
    Matrix,
    charpoly3_reversed,
    classes_by_order_trace,
    closure,
    det3,
    element_orders,
    identity,
    mat,
    mat_mul,
    scalar_mul,
)
from .rep3a6 import sl2_generators, sym_square, sym_square_group


def _mat_key(m: Matrix):
    return tuple((x.c0, x.c1) for row in m for x in row)


def _tetrahedral_normalizer(h: list[Matrix]) -> list[Matrix]:
    p = h[0][0][0].p
    e = identity(p, 3)
    orders = element_orders(h)
    invol = [m for m in h if orders[m] == 2]
    u = invol[0]
    v = next(m for m in invol if m not in (u,) and mat_mul(u, m) == mat_mul(m, u))
    v4 = {e, u, v, mat_mul(u, v)}
    hset = set(h)

    def normalizes(m: Matrix) -> bool:
        v4_m = {mat_mul(x, m) for x in v4}
        return all(mat_mul(m, x) in v4_m for x in v4)

    k = [m for m in h if normalizes(m)]
    if len(k) != 12:
        raise AssertionError(f"normalizer has {len(k)} elements, expected 12")
    assert set(mat_mul(a, b) for a in k for b in k) <= hset
    return sorted(k, key=_mat_key)


def _nullspace_dim1(eqs: list[list[Fp2Elem]], p: int):
    """Solve a homogeneous system over F_{p^2}; returns a nonzero solution
    when the nullspace is exactly one-dimensional, else None."""
    zero = Fp2Elem(p, 0, 0)
    rows = [row[:] for row in eqs]
    ncols = 9
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [xi - factor * xr for xi, xr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [zero] * ncols
    sol[free[0]] = Fp2Elem(p, 1, 0)
    for row, c in zip(rows, pivots):
        sol[c] = -row[free[0]]
    return sol


def _intertwiners(k1: Matrix, im1: Matrix, k2: Matrix, im2: Matrix, p: int):
    """Nonzero M with M*k1 = im1*M and M*k2 = im2*M, when unique up to scalar."""
    eqs = []
    for k, im in ((k1, im1), (k2, im2)):
        for i in range(3):
            for j in range(3):
                row = [Fp2Elem(p, 0, 0)] * 9
                # (M k)_ij = sum_t M_it k_tj ; (im M)_ij = sum_t im_it M_tj
                for t in range(3):
                    row[3 * i + t] = row[3 * i + t] + k[t][j]
                    row[3 * t + j] = row[3 * t + j] - im[i][t]
                eqs.append(row)
    sol = _nullspace_dim1(eqs, p)
    if sol is None:
        return None
    return mat([sol[0:3], sol[3:6], sol[6:9]])


@lru_cache(maxsize=None)
def triple_cover_group() -> list[Matrix]:
    """The 1080-element cover in SL_3(F_25), sorted deterministically."""
    p = 5
    h = sorted(sym_square_group(p, (1,)), key=_mat_key)
    if len(h) != 60:
        raise AssertionError(f"expected 60 elements, got {len(h)}")
    k = _tetrahedral_normalizer(h)
    orders = element_orders(k)
    order2 = [m for m in k if orders[m] == 2]
    order3 = [m for m in k if orders[m] == 3]
    k1, k2 = order2[0], order3[0]
    e = identity(p, 3)
    one = Fp2Elem(p, 1, 0)
    z = cube_root_of_unity(p)
    units = list(elements(p))[1:]
    # order-3 images may carry a central cube-root twist; Klein images may not
    order3_twisted = [scalar_mul(z**j, m) for m in order3 for j in (0, 1, 2)]
    h_gens = [sym_square(g) for g in sl2_generators(p, (1,))]
    for im1 in order2:
        for im2 in order3_twisted:
            m0 = _intertwiners(k1, im1, k2, im2, p)
            if m0 is None:
                continue
            d = det3(m0)
            for c in units:
                if c * c * c * d != one:
                    continue
                m = scalar_mul(c, m0)
                if mat_mul(m, m) != e:
                    continue
                try:
                    group = closure(h_gens + [m], cap=1300)
                except ValueError:
                    continue
                if len(group) == 1080:
                    return sorted(group, key=_mat_key)
    raise AssertionError("triple cover construction failed")


def _cover_label(order: int, tr: Fp2Elem, z: Fp2Elem) -> str:
    """Coarse class of a cover element from its (order, trace)."""
    if order == 3:
        return {3 * z: "3a", 3 * z * z: "3b"}.get(tr, "3cd")
    twisted = {6: ("6a", "6b", -z), 12: ("12a", "12b", z), 15: ("15ac", "15bd", -2 * z)}
    if order in twisted:
        label_a, label_b, trace_a = twisted[order]
        return label_a if tr == trace_a else label_b
    untwisted = {1: "1a", 2: "2a", 4: "4a", 5: "5ab"}
    if order not in untwisted:
        raise AssertionError(f"unexpected element order {order}")
    return untwisted[order]


@lru_cache(maxsize=None)
def classified_cover() -> dict[str, dict]:
    """Class label -> {size, trace, charpoly, inverse_label, representative}
    derived purely from the explicit group, for cross-checking the frozen
    tables."""
    z = cube_root_of_unity(5)
    out = {}
    for (order, tr), ms in classes_by_order_trace(triple_cover_group()).items():
        label = _cover_label(order, tr, z)
        if label in out:
            raise AssertionError(f"class {label} has mixed traces")
        charpoly = charpoly3_reversed(ms[0])
        out[label] = {
            "size": len(ms),
            "trace": tr,
            "charpoly": charpoly,
            # the inverse has the same order, and its trace is charpoly[2]
            "inverse_label": _cover_label(order, charpoly[2], z),
            "representative": ms[0],
        }
    expected_sizes = {
        "1a": 1, "3a": 1, "3b": 1, "2a": 45, "6a": 45, "6b": 45, "3cd": 240,
        "4a": 90, "12a": 90, "12b": 90, "5ab": 144, "15ac": 144, "15bd": 144,
    }
    sizes = {label: info["size"] for label, info in out.items()}
    if sizes != expected_sizes:
        raise AssertionError(f"class sizes {sizes} differ from {expected_sizes}")
    return out


def oracle_charpoly(label: str, eps_val: int) -> list[Fp2Elem]:
    """det(1 - eps*m*t) for a class representative, computed from the
    matrix itself (eps in {+1,-1} twists the representative)."""
    if eps_val not in (1, -1):
        raise InconsistencyError("eps_val must be +1 or -1")
    rep = classified_cover()[label]["representative"]
    if eps_val == -1:
        rep = scalar_mul(Fp2Elem(5, -1, 0), rep)
    return charpoly3_reversed(rep)
