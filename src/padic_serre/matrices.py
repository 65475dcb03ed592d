"""Small-matrix helpers over F_{p^2}: products, characteristic polynomials,
the closure of finitely generated matrix groups (Dimino's coset algorithm),
the orders of all elements of a finite group (at most one power walk per
cyclic subgroup), and the one classifier of group elements, by (order,
trace).

Matrices are tuples of row tuples of Fp2Elem, so they hash and can be
dictionary keys.  Every product runs on flat tuples of entry codes
(``Fp2Elem._code``) by lookups in per-field rows of the codes of x_i*x_j and
x_i+x_j, row i made by the ``Fp2Elem`` operators when first needed; the
group walks encode once and decode at the end.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd, isqrt

from .arith import Fp2Elem

Matrix = tuple[tuple[Fp2Elem, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


class _Rows(dict):
    """Row i: the codes of op(x_i, x_j) for every code j, built on first lookup."""

    def __init__(self, op, elems):
        self.op, self.elems = op, elems

    def __missing__(self, i):
        row = self[i] = [self.op(self.elems[i], y)._code for y in self.elems]
        return row


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[list[Fp2Elem], _Rows, _Rows]:
    """The elements of F_{p^2} by code, and the rows of * and +."""
    elems = [Fp2Elem(p, code % p, code // p) for code in range(p * p)]
    return elems, _Rows(operator.mul, elems), _Rows(operator.add, elems)


def _encode(a: Matrix, p: int, n: int) -> tuple[int, ...]:
    codes = tuple([x._code for row in a if len(row) == n for x in row if x.p == p])
    if len(a) != n or len(codes) != n * n:
        raise ValueError(f"expected a {n}x{n} matrix over F_{p}^2")
    return codes


def _decode(code: tuple[int, ...], elems: list[Fp2Elem], n: int) -> Matrix:
    flat = [elems[c] for c in code]
    return tuple([tuple(flat[i:i + n]) for i in range(0, n * n, n)])


def _product(a: tuple[int, ...], b: tuple[int, ...], mul: _Rows, add: _Rows) -> tuple[int, ...]:
    """The product of two square matrices given as flat code tuples."""
    if len(a) == 9:
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = [mul[x] for x in a]
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return (
            add[add[m0[b0]][m1[b3]]][m2[b6]],
            add[add[m0[b1]][m1[b4]]][m2[b7]],
            add[add[m0[b2]][m1[b5]]][m2[b8]],
            add[add[m3[b0]][m4[b3]]][m5[b6]],
            add[add[m3[b1]][m4[b4]]][m5[b7]],
            add[add[m3[b2]][m4[b5]]][m5[b8]],
            add[add[m6[b0]][m7[b3]]][m8[b6]],
            add[add[m6[b1]][m7[b4]]][m8[b7]],
            add[add[m6[b2]][m7[b5]]][m8[b8]],
        )
    n = isqrt(len(a))
    out = []
    for i in range(0, n * n, n):
        for j in range(n):
            s = mul[a[i]][b[j]]
            for t in range(1, n):
                s = add[s][mul[a[i + t]][b[t * n + j]]]
            out.append(s)
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    p, n = a[0][0].p, len(a)
    elems, mul, add = _tables(p)
    return _decode(_product(_encode(a, p, n), _encode(b, p, n), mul, add), elems, n)


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
    p, n = gens[0][0][0].p, len(gens[0])
    elems, mul, add = _tables(p)
    group = [_encode(identity(p, n), p, n)]
    seen = set(group)
    used: list[tuple[int, ...]] = []
    for g in [_encode(m, p, n) for m in gens]:
        if g in seen:
            continue
        used.append(g)
        h = list(group)
        reps = [g]
        for r in reps:
            if r not in seen:
                coset = [_product(x, r, mul, add) for x in h]
                group.extend(coset)
                seen.update(coset)
                if len(seen) > cap:
                    raise ValueError("closure exceeded cap")
                reps.extend(_product(r, t, mul, add) for t in used)
    # set iteration order depends on the order of insertion: insert in walk order
    return set([_decode(code, elems, n) for code in group])


def element_orders(group) -> dict[Matrix, int]:
    """Multiplicative order of every element of a finite matrix group.

    Walks the powers of each element whose order is not yet known; when a
    has order n, a^k has order n / gcd(k, n), so one walk settles the whole
    cyclic subgroup."""
    group = list(group)
    if not group:
        return {}
    p, dim = group[0][0][0].p, len(group[0])
    elems, mul, add = _tables(p)
    e = _encode(identity(p, dim), p, dim)
    orders: dict[tuple[int, ...], int] = {}
    for a in [_encode(m, p, dim) for m in group]:
        if a in orders:
            continue
        powers = [a]
        while powers[-1] != e:
            powers.append(_product(powers[-1], a, mul, add))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return {_decode(code, elems, dim): order for code, order in orders.items()}


def classes_by_order_trace(group) -> dict[tuple[int, Fp2Elem], list[Matrix]]:
    """Bucket the elements of a finite matrix group by (order, trace).

    Buckets and their members keep the iteration order of ``group``, so the
    first member of each bucket is a deterministic representative."""
    orders = element_orders(group)
    buckets: dict[tuple[int, Fp2Elem], list[Matrix]] = {}
    for m in group:
        buckets.setdefault((orders[m], trace(m)), []).append(m)
    return buckets
