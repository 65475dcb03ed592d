"""The cover's frozen third generator against the derivation it came from,
and the checks the cover build makes of it.

Reference: inside H = Sym^2(SL_2(F_5)), take a Klein four-subgroup V and its
normalizer K, a 12-element tetrahedral subgroup.  The extra involution M
normalizes K *up to central scalars*: conjugation by M sends k to
chi(k) * theta(k), with theta an automorphism of K and chi a cube-root-of-
unity character that kills the Klein subgroup (K has three complements to
the center inside its scalar extension, and conjugation may rotate them).
Such an M is an intertwiner between two irreducible K-representations,
hence the unique-up-to-scalar solution of the linear system
M*k = chi(k)*theta(k)*M on a generator of order 2 and one of order 3.  The
scan runs over the candidate images, solves each system over F_25,
rescales to determinant one (three choices, differing by a cube root of
unity: the three lifts), keeps the involutions, and takes the first whose
closure with H's generators has 1080 elements.  An inner twist reproduces
H, and the chi-trivial outer twists land in the 120-element extension that
characteristic 5 admits, so the count rejects every wrong candidate; the
closure's cap keeps a wrong one from growing into a large subgroup of
SL_3(F_25).
"""

import pytest

from padic_serre import matrix_oracle
from padic_serre.arith import cube_root_of_unity
from padic_serre.matrices import sym_square
from padic_serre.matrix_oracle import EXTRA_INVOLUTION
from padic_serre.rep3a6 import sl2_generators

from matrix_reference import (Fp2Elem, _loop_mul, _mat_key, _matrix_closure, _matrix_orders,
                              _power, decode, det3, elements, identity, lift, mat, scalar_mul)

P = 5
Z = Fp2Elem(P, *cube_root_of_unity(P))
H_GENERATORS = [decode(sym_square(g, P), P) for g in sl2_generators((1,))]  # Sym^2 SL_2(F_5)


def _tetrahedral_normalizer(h):
    e = identity(P, 3)
    orders = _matrix_orders(h)
    invol = [m for m in h if orders[m] == 2]
    u = invol[0]
    v = next(m for m in invol if m != u and _loop_mul(u, m) == _loop_mul(m, u))
    v4 = {e, u, v, _loop_mul(u, v)}

    def normalizes(m):
        v4_m = {_loop_mul(x, m) for x in v4}
        return all(_loop_mul(m, x) in v4_m for x in v4)

    k = [m for m in h if normalizes(m)]
    assert len(k) == 12
    return sorted(k, key=_mat_key)


def _nullspace_dim1(rows):
    """A nonzero solution of a homogeneous 9-unknown system over F_25 when
    the nullspace is exactly one-dimensional, else None."""
    zero, one = Fp2Elem(P, 0, 0), Fp2Elem(P, 1, 0)
    rows = [row[:] for row in rows]
    pivots = []
    for c in range(9):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _power(rows[r][c], P * P - 2)
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [xi - factor * xr for xi, xr in zip(rows[i], rows[r])]
        pivots.append(c)
    free = [c for c in range(9) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [zero] * 9
    sol[free[0]] = one
    for row, c in zip(rows, pivots):
        sol[c] = -row[free[0]]
    return sol


def _intertwiner(k1, im1, k2, im2):
    """Nonzero M with M*k1 = im1*M and M*k2 = im2*M, when unique up to scalar."""
    eqs = []
    for k, im in ((k1, im1), (k2, im2)):
        for i in range(3):
            for j in range(3):
                row = [Fp2Elem(P, 0, 0)] * 9
                # (M k)_ij = sum_t M_it k_tj ; (im M)_ij = sum_t im_it M_tj
                for t in range(3):
                    row[3 * i + t] = row[3 * i + t] + k[t][j]
                    row[3 * t + j] = row[3 * t + j] - im[i][t]
                eqs.append(row)
    sol = _nullspace_dim1(eqs)
    return None if sol is None else mat([sol[0:3], sol[3:6], sol[6:9]])


def _derive_extra_involution():
    h = sorted(_matrix_closure(H_GENERATORS), key=_mat_key)
    assert len(h) == 60
    k = _tetrahedral_normalizer(h)
    orders = _matrix_orders(k)
    order2 = [m for m in k if orders[m] == 2]
    order3 = [m for m in k if orders[m] == 3]
    k1, k2 = order2[0], order3[0]
    e = identity(P, 3)
    one = Fp2Elem(P, 1, 0)
    units = elements(P)[1:]
    # order-3 images may carry a central cube-root twist; Klein images may not
    order3_twisted = [scalar_mul(_power(Z, j), m) for m in order3 for j in (0, 1, 2)]
    for im1 in order2:
        for im2 in order3_twisted:
            m0 = _intertwiner(k1, im1, k2, im2)
            if m0 is None:
                continue
            d = det3(m0)
            for c in units:
                if c * c * c * d != one:
                    continue
                m = scalar_mul(c, m0)
                if _loop_mul(m, m) != e:
                    continue
                try:
                    group = _matrix_closure(H_GENERATORS + [m], cap=1300)
                except ValueError:
                    continue
                if len(group) == 1080:
                    return m
    raise AssertionError("no involution extends H to the triple cover")


def test_frozen_involution_is_the_derived_one():
    assert _mat_key(_derive_extra_involution()) == EXTRA_INVOLUTION


def _frozen():
    c = lift(P, EXTRA_INVOLUTION)
    return mat([c[0:3], c[3:6], c[6:9]])


def _involution_of_h():
    h = sorted(_matrix_closure(H_GENERATORS), key=_mat_key)
    orders = _matrix_orders(h)
    return next(m for m in h if orders[m] == 2)


@pytest.mark.parametrize("witness,message", [
    (lambda: scalar_mul(Fp2Elem(P, -1, 0), _frozen()), "determinant 1"),
    (lambda: scalar_mul(Z, _frozen()), "not an involution"),
    (_involution_of_h, "got 60"),
], ids=["minus-M", "z-times-M", "involution-of-H"])
def test_a_wrong_witness_is_rejected(monkeypatch, witness, message):
    monkeypatch.setattr(matrix_oracle, "EXTRA_INVOLUTION", _mat_key(witness()))
    with pytest.raises(AssertionError, match=message):
        matrix_oracle._cover_codes.__wrapped__()
