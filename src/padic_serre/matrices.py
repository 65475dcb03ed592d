"""Small-matrix helpers over F_{p^2}: products, characteristic polynomials,
element orders, closure of finitely generated matrix groups, and the one
classifier of group elements, by (order, trace).

Matrices are tuples of row tuples of Fp2Elem, so they hash and can be
dictionary keys during closure walks.  Elements are interned, so comparing
matrices compares entries by identity, and each entry of a product costs
table lookups in the F_{p^2} memo rather than new element objects.
"""

from __future__ import annotations

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


def mat_order(a: Matrix, cap: int = 10000) -> int:
    """Multiplicative order; raises if it exceeds cap."""
    p = a[0][0].p
    e = identity(p, len(a))
    x = a
    for k in range(1, cap + 1):
        if x == e:
            return k
        x = mat_mul(x, a)
    raise ValueError("order exceeds cap")


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
    """All products of the generators (a subgroup of a finite GL, so this
    terminates); raises if the group grows past cap."""
    gens = list(generators)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise ValueError("closure exceeded cap")
        frontier = nxt
    return seen


def classes_by_order_trace(group) -> dict[tuple[int, Fp2Elem], list[Matrix]]:
    """Bucket the elements of a finite matrix group by (order, trace).

    Buckets and their members keep the iteration order of ``group``, so the
    first member of each bucket is a deterministic representative."""
    buckets: dict[tuple[int, Fp2Elem], list[Matrix]] = {}
    for m in group:
        buckets.setdefault((mat_order(m), trace(m)), []).append(m)
    return buckets
