"""Small-matrix helpers over F_{p^2}: characteristic polynomials,
determinants and traces of matrices of ``Fp2Elem``, and the private group
layer behind the two explicit groups, the cover in SL_3(F_25) of
matrix_oracle and the mod-3 image in SL_3(F_9) of rep3a6.

Matrices are tuples of row tuples of Fp2Elem, so they hash and can be
dictionary keys.  In the group layer a 3x3 matrix is the flat tuple of its
nine entries' codes c0 + p*c1, computed here by ``_code`` from an element's
coefficients (``Fp2Elem`` itself holds no code): every product is a chain
of lookups in the field's tables of the codes of x_i*x_j and x_i+x_j,
tabulated once from the ``Fp2Elem`` operators, so the field law lives only
in arith.  ``_group`` is the one builder: it encodes the generators, closes
them by Dimino's coset algorithm, checks the size and returns the codes
sorted by the entries' pairs (c0, c1) row by row.  The order walks (at most
one power walk per cyclic subgroup) and the bucketing by (order, trace) run
on that list, and callers decode only the class representatives they need.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import Fp2Elem

Matrix = tuple[tuple[Fp2Elem, ...], ...]
Code = tuple[int, ...]  # a 3x3 matrix as the flat tuple of its entries' codes
Table = list[list[int]]

# codes 0 and 1 are the elements 0 and 1 of every field
_IDENTITY: Code = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _code(x: Fp2Elem) -> int:
    return x.c0 + x.p * x.c1


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[list[Fp2Elem], Table, Table]:
    """The elements of F_{p^2} by code c0 + p*c1, and the tables of * and +:
    row i lists the codes of x_i*x_j and x_i+x_j for every code j, built
    once per field by the ``Fp2Elem`` operators.  The field is commutative,
    so only j >= i is computed and mirrored."""
    elems = [Fp2Elem(p, i % p, i // p) for i in range(p * p)]
    mul = [[0] * len(elems) for _ in elems]
    add = [[0] * len(elems) for _ in elems]
    for i, x in enumerate(elems):
        for j in range(i, len(elems)):
            mul[i][j] = mul[j][i] = _code(x * elems[j])
            add[i][j] = add[j][i] = _code(x + elems[j])
    return elems, mul, add


def _encode(ms: list[Matrix]) -> tuple[list[Code], int]:
    """The flat code tuples of 3x3 matrices over one F_{p^2}, and p."""
    p = ms[0][0][0].p
    codes = [tuple([_code(x) for row in m if len(row) == 3 for x in row if x.p == p]) for m in ms]
    if any(len(m) != 3 or len(code) != 9 for m, code in zip(ms, codes)):
        raise ValueError(f"expected 3x3 matrices over F_{p}^2")
    return codes, p


def _decode(code: Code, p: int) -> Matrix:
    elems = _tables(p)[0]
    flat = [elems[c] for c in code]
    return (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))


def _product(a: Code, b: Code, mul: Table, add: Table) -> Code:
    """The product of two 3x3 matrices given as flat code tuples."""
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


def _dimino(gens: list[Code], p: int, cap: int) -> list[Code]:
    """The group generated by invertible 3x3 code matrices, in the order of
    Dimino's walk; raises ValueError if it grows past cap.

    Each generator not yet in the group H built so far extends it by whole
    right cosets H*r: every new element costs one product h*r, and every
    coset representative r one product r*t per generator t taken so far,
    since H*r*t lies in the group exactly when r*t does.  (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991.)"""
    mul, add = _tables(p)[1:]
    group = [_IDENTITY]
    seen = set(group)
    used: list[Code] = []
    for g in gens:
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
    return group


def _group(gens: list[Matrix], size: int) -> list[Code]:
    """The group of size elements generated by invertible 3x3 matrices over
    one F_{p^2}, as code tuples sorted by the entries' pairs (c0, c1) row by row;
    raises AssertionError on another count."""
    codes, p = _encode(gens)
    group = _dimino(codes, p, cap=size)
    if len(group) != size:
        raise AssertionError(f"expected {size} elements, got {len(group)}")
    rank = [code % p * p + code // p for code in range(p * p)]  # code -> c0*p + c1
    return sorted(group, key=lambda a: [rank[code] for code in a])


def _orders(group: list[Code], p: int) -> dict[Code, int]:
    """The multiplicative order of every element of a ``_group``.

    Walks the powers of each element whose order is not yet known; when a
    has order n, a^k has order n / gcd(k, n), so one walk settles the whole
    cyclic subgroup."""
    mul, add = _tables(p)[1:]
    orders: dict[Code, int] = {}
    for a in group:
        if a in orders:
            continue
        powers = [a]
        while powers[-1] != _IDENTITY:
            powers.append(_product(powers[-1], a, mul, add))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def _classes(group: list[Code], p: int) -> dict[tuple[int, Fp2Elem], list[Code]]:
    """The elements of a ``_group`` bucketed by (order, trace), in the order
    of group; a trace is two + lookups on the diagonal codes."""
    orders = _orders(group, p)
    elems, _, add = _tables(p)
    buckets: dict[tuple[int, int], list[Code]] = {}
    for a in group:
        buckets.setdefault((orders[a], add[add[a[0]][a[4]]][a[8]]), []).append(a)
    return {(order, elems[t]): members for (order, t), members in buckets.items()}
