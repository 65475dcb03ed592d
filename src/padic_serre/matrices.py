"""Small-matrix helpers over F_{p^2}: characteristic polynomials,
determinants and traces of matrices of ``Fp2Elem``, and the private group
layer behind the explicit groups of matrix_oracle and rep3a6.

Matrices are tuples of row tuples of Fp2Elem, so they hash and can be
dictionary keys.  In the group layer a matrix is the flat tuple of its
entries' codes c0 + p*c1 (``Fp2Elem._code``): every product is a chain of
lookups in per-field rows of the codes of x_i*x_j and x_i+x_j, each row
computed in integers when first needed.  ``_group`` is the one builder: it
encodes the generators, closes them by Dimino's coset algorithm, checks the
size and returns the codes sorted by the entries' pairs (c0, c1) row by row.
The order walks (at most one power walk per cyclic subgroup) and the
bucketing by (order, trace) run on that list, and callers decode only the
class representatives they need.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .arith import Fp2Elem, quadratic_modulus

Matrix = tuple[tuple[Fp2Elem, ...], ...]
Code = tuple[int, ...]  # a matrix as the flat tuple of its entries' codes


def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


class _Lazy(dict):
    """Entry i made by make(i) on first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, i):
        value = self[i] = self.make(i)
        return value


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[_Lazy, _Lazy, _Lazy]:
    """The elements of F_{p^2} by code c0 + p*c1, and the rows of * and +:
    row i lists the codes of x_i*x_j and x_i+x_j for every code j, computed
    in integers with w^2 = -b*w - c."""
    b, c = quadratic_modulus(p)

    def mul_row(i):
        x0, x1 = i % p, i // p
        return [(x0 * y0 - c * x1 * y1) % p + p * ((x0 * y1 + x1 * y0 - b * x1 * y1) % p)
                for y1 in range(p) for y0 in range(p)]

    def add_row(i):
        x0, x1 = i % p, i // p
        return [(x0 + y0) % p + p * ((x1 + y1) % p) for y1 in range(p) for y0 in range(p)]

    return _Lazy(lambda i: Fp2Elem(p, i % p, i // p)), _Lazy(mul_row), _Lazy(add_row)


def _encode(ms: list[Matrix]) -> tuple[list[Code], int]:
    """The flat code tuples of square matrices over one F_{p^2}, and p."""
    p, n = ms[0][0][0].p, len(ms[0])
    codes = [tuple([x._code for row in m if len(row) == n for x in row if x.p == p]) for m in ms]
    if any(len(m) != n or len(code) != n * n for m, code in zip(ms, codes)):
        raise ValueError(f"expected {n}x{n} matrices over F_{p}^2")
    return codes, p


def _decode(code: Code, p: int) -> Matrix:
    elems, n = _tables(p)[0], isqrt(len(code))
    flat = [elems[c] for c in code]
    return tuple([tuple(flat[i:i + n]) for i in range(0, n * n, n)])


def _product(a: Code, b: Code, mul: _Lazy, add: _Lazy) -> Code:
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
    """The group generated by invertible code matrices, in the order of
    Dimino's walk; raises ValueError if it grows past cap.

    Each generator not yet in the group H built so far extends it by whole
    right cosets H*r: every new element costs one product h*r, and every
    coset representative r one product r*t per generator t taken so far,
    since H*r*t lies in the group exactly when r*t does.  (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991.)"""
    mul, add = _tables(p)[1:]
    group = _encode([identity(p, isqrt(len(gens[0])))])[0]
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
    """The group of size elements generated by invertible matrices over one
    F_{p^2}, as code tuples sorted by the entries' pairs (c0, c1) row by row;
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
    (e,), _ = _encode([identity(p, isqrt(len(group[0])))])
    orders: dict[Code, int] = {}
    for a in group:
        if a in orders:
            continue
        powers = [a]
        while powers[-1] != e:
            powers.append(_product(powers[-1], a, mul, add))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def _classes(group: list[Code], p: int) -> dict[tuple[int, Fp2Elem], list[Code]]:
    """The elements of a ``_group`` bucketed by (order, trace), in the order
    of group; a trace is a chain of + lookups on the diagonal codes."""
    orders = _orders(group, p)
    elems, _, add = _tables(p)
    step = isqrt(len(group[0])) + 1
    buckets: dict[tuple[int, int], list[Code]] = {}
    for a in group:
        t = a[0]
        for d in a[step::step]:
            t = add[t][d]
        buckets.setdefault((orders[a], t), []).append(a)
    return {(order, elems[t]): members for (order, t), members in buckets.items()}
