"""Small-matrix helpers over F_{p^2}: products, characteristic polynomials,
the closure of finitely generated matrix groups (Dimino's coset algorithm),
the orders of all elements of a finite group (at most one power walk per
cyclic subgroup), and the one classifier of group elements, by (order,
trace).

Matrices are tuples of row tuples of Fp2Elem, so they hash and can be
dictionary keys during closure walks.  Elements are interned, so comparing
matrices compares entries by identity, and each entry of a product costs
table lookups in the F_{p^2} memo rather than new element objects.
"""

from __future__ import annotations

from math import gcd

from .arith import Fp2Elem

Matrix = tuple[tuple[Fp2Elem, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    rest = range(1, len(b))
    rows = []
    for row in a:
        out = []
        for col in cols:
            s = row[0] * col[0]
            for t in rest:
                s = s + row[t] * col[t]
            out.append(s)
        rows.append(tuple(out))
    return tuple(rows)


def identity(p: int, n: int) -> Matrix:
    one = Fp2Elem(p, 1, 0)
    zero = Fp2Elem(p, 0, 0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def scalar_mul(c: Fp2Elem, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def det2(a: Matrix) -> Fp2Elem:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def det3(a: Matrix) -> Fp2Elem:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def trace(a: Matrix) -> Fp2Elem:
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def charpoly3_reversed(a: Matrix) -> list[Fp2Elem]:
    """Coefficients [1, c1, c2, c3] of det(I - a*t) for a 3x3 matrix.

    c1 = -trace, c2 = sum of principal 2x2 minors, c3 = -det.
    """
    p = a[0][0].p
    one = Fp2Elem(p, 1, 0)
    m01 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    m02 = a[0][0] * a[2][2] - a[0][2] * a[2][0]
    m12 = a[1][1] * a[2][2] - a[1][2] * a[2][1]
    return [one, -trace(a), m01 + m02 + m12, -det3(a)]


def closure(generators, cap: int = 100000) -> set[Matrix]:
    """The group generated by invertible matrices over a finite field, by
    Dimino's algorithm; raises ValueError if it grows past cap.

    Each generator not yet in the group H built so far extends it by whole
    right cosets H*r: every new element costs one product h*r, and every
    coset representative r one product r*t per generator t taken so far,
    since H*r*t lies in the group exactly when r*t does.  (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991.)"""
    gens = list(generators)
    group = [identity(gens[0][0][0].p, len(gens[0]))]
    seen = set(group)
    used: list[Matrix] = []
    for g in gens:
        if g in seen:
            continue
        used.append(g)
        h = list(group)
        reps = [g]
        for r in reps:
            if r not in seen:
                coset = [mat_mul(x, r) for x in h]
                group.extend(coset)
                seen.update(coset)
                if len(seen) > cap:
                    raise ValueError("closure exceeded cap")
                reps.extend(mat_mul(r, t) for t in used)
    return seen


def element_orders(group) -> dict[Matrix, int]:
    """Multiplicative order of every element of a finite matrix group.

    Walks the powers of each element whose order is not yet known; when a
    has order n, a^k has order n / gcd(k, n), so one walk settles the whole
    cyclic subgroup."""
    orders: dict[Matrix, int] = {}
    for a in group:
        if a in orders:
            continue
        e = identity(a[0][0].p, len(a))
        powers = [a]
        while powers[-1] != e:
            powers.append(mat_mul(powers[-1], a))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def classes_by_order_trace(group) -> dict[tuple[int, Fp2Elem], list[Matrix]]:
    """Bucket the elements of a finite matrix group by (order, trace).

    Buckets and their members keep the iteration order of ``group``, so the
    first member of each bucket is a deterministic representative."""
    orders = element_orders(group)
    buckets: dict[tuple[int, Fp2Elem], list[Matrix]] = {}
    for m in group:
        buckets.setdefault((orders[m], trace(m)), []).append(m)
    return buckets
