"""The private group layer behind the two explicit groups, the cover in
SL_3(F_25) of matrix_oracle and the mod-3 image in SL_3(F_9) of rep3a6.

An entry of F_{p^2} is the code c0 + p*c1 of its pair (c0, c1), and a
matrix is the flat tuple of its entries' codes, row by row (nine for 3x3,
four for 2x2), so matrices hash and can be dictionary keys.  Every product
is a chain of lookups in the field's tables of the codes of x_i*x_j,
x_i+x_j and -x_i, tabulated once from ``arith.pair_mul``, so the field law
lives only in arith.  ``_group`` is the one builder: it closes code
generators by Dimino's coset algorithm, checks the size and returns the
codes sorted by the entries' pairs (c0, c1) row by row.  The order walks
(at most one power walk per cyclic subgroup) and the bucketing by (order,
trace) run on that list, and ``charpoly`` gives det(1 - a*t) as pairs.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import pair_mul

Code = tuple[int, ...]  # a matrix as the flat tuple of its entries' codes
Table = list[list[int]]

# codes 0 and 1 are the elements 0 and 1 of every field
_IDENTITY: Code = (1, 0, 0, 0, 1, 0, 0, 0, 1)


@lru_cache(maxsize=None)
def _tables(p: int) -> tuple[Table, Table, list[int]]:
    """The tables of *, + and negation on F_{p^2} by code c0 + p*c1: row i
    of the first two lists the codes of x_i*x_j and x_i+x_j for every code
    j, and the negation row holds the code of -x_i.  Products come from
    ``pair_mul``; the field is commutative, so only j >= i is computed and
    mirrored."""
    pairs = [(i % p, i // p) for i in range(p * p)]
    mul = [[0] * len(pairs) for _ in pairs]
    add = [[0] * len(pairs) for _ in pairs]
    for i, x in enumerate(pairs):
        for j in range(i, len(pairs)):
            y = pairs[j]
            c0, c1 = pair_mul(p, x, y)
            mul[i][j] = mul[j][i] = c0 + p * c1
            add[i][j] = add[j][i] = (x[0] + y[0]) % p + p * ((x[1] + y[1]) % p)
    return mul, add, [-c0 % p + p * (-c1 % p) for c0, c1 in pairs]


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


def sym_square(m: Code, p: int) -> Code:
    """Symmetric square of a 2x2 code matrix, on the basis (x^2, xy, y^2)."""
    mul, add, _ = _tables(p)
    a, b, c, d = m
    ac, bd = mul[a][c], mul[b][d]
    return (mul[a][a], mul[a][b], mul[b][b],
            add[ac][ac], add[mul[a][d]][mul[b][c]], add[bd][bd],
            mul[c][c], mul[c][d], mul[d][d])


def charpoly(a: Code, p: int) -> tuple[tuple[int, int], ...]:
    """det(1 - a*t) for a 3x3 code matrix, as reduced pairs (c0, c1): 1,
    -trace, the sum of the principal 2x2 minors and -det."""
    mul, add, neg = _tables(p)
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a

    def minor(w, x, y, z):  # w*z - x*y
        return add[mul[w][z]][neg[mul[x][y]]]

    m01, m02, m12 = minor(a0, a1, a3, a4), minor(a0, a2, a6, a8), minor(a4, a5, a7, a8)
    det = add[add[mul[a0][m12]][neg[mul[a1][minor(a3, a5, a6, a8)]]]][
        mul[a2][minor(a3, a4, a6, a7)]]
    codes = (1, neg[add[add[a0][a4]][a8]], add[add[m01][m02]][m12], neg[det])
    return tuple([(c % p, c // p) for c in codes])


def _dimino(gens: list[Code], p: int, cap: int) -> list[Code]:
    """The group generated by invertible 3x3 code matrices, in the order of
    Dimino's walk; raises ValueError if it grows past cap.

    Each generator not yet in the group H built so far extends it by whole
    right cosets H*r: every new element costs one product h*r, and every
    coset representative r one product r*t per generator t taken so far,
    since H*r*t lies in the group exactly when r*t does.  (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991.)"""
    mul, add, _ = _tables(p)
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


def _group(gens: list[Code], p: int, size: int) -> list[Code]:
    """The group of size elements generated by invertible 3x3 code matrices
    over F_{p^2}, sorted by the entries' pairs (c0, c1) row by row; raises
    AssertionError on another count."""
    group = _dimino(gens, p, cap=size)
    if len(group) != size:
        raise AssertionError(f"expected {size} elements, got {len(group)}")
    rank = [code % p * p + code // p for code in range(p * p)]  # code -> c0*p + c1
    return sorted(group, key=lambda a: [rank[code] for code in a])


def _orders(group: list[Code], p: int) -> dict[Code, int]:
    """The multiplicative order of every element of a ``_group``.

    Walks the powers of each element whose order is not yet known; when a
    has order n, a^k has order n / gcd(k, n), so one walk settles the whole
    cyclic subgroup.  No order exceeds len(group), so a walk that gets that
    far without the identity (a singular element) raises ValueError."""
    mul, add, _ = _tables(p)
    orders: dict[Code, int] = {}
    for a in group:
        if a in orders:
            continue
        powers = [a]
        while powers[-1] != _IDENTITY:
            if len(powers) == len(group):
                raise ValueError(f"{a} has no power equal to the identity among the first"
                                 f" {len(group)}: not an element of a group")
            powers.append(_product(powers[-1], a, mul, add))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def _classes(group: list[Code], p: int) -> dict[tuple[int, tuple[int, int]], list[Code]]:
    """The elements of a ``_group`` bucketed by (order, trace pair), in the
    order of group; a trace is two + lookups on the diagonal codes."""
    orders = _orders(group, p)
    add = _tables(p)[1]
    buckets: dict[tuple[int, int], list[Code]] = {}
    for a in group:
        buckets.setdefault((orders[a], add[add[a[0]][a[4]]][a[8]]), []).append(a)
    return {(order, (t % p, t // p)): members for (order, t), members in buckets.items()}
