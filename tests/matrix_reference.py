"""Group walks on ``Fp2Elem`` matrices, multiplied entrywise by the field
operators: the references the code walks of ``padic_serre.matrices`` are
checked against, and the group builds of tests that only need a group.
``_power`` is the field power the tests share."""

from math import gcd

from padic_serre.arith import Fp2Elem
from padic_serre.matrices import identity, trace


def _power(x, e):
    """x^e for an Fp2Elem x and an integer e >= 0, by square and multiply:
    the reference for ``Fp2Elem.frobenius`` (e = p), and the inverse of a
    nonzero x for e = p^2 - 2."""
    result = Fp2Elem(x.p, 1, 0)
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


def _mat_key(m):
    """The entries' pairs (c0, c1) row by row: the order of a sorted group,
    and the layout of ``matrix_oracle.EXTRA_INVOLUTION``."""
    return tuple((x.c0, x.c1) for row in m for x in row)


def _loop_mul(a, b):
    """The entrywise product by the Fp2Elem operators."""
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


def _matrix_closure(generators, cap=100000):
    """Dimino's closure multiplied by ``_loop_mul``: the group as a list in
    walk order; raises ValueError if it grows past cap."""
    gens = list(generators)
    group = [identity(gens[0][0][0].p, len(gens[0]))]
    seen = set(group)
    used = []
    for g in gens:
        if g in seen:
            continue
        used.append(g)
        h = list(group)
        reps = [g]
        for r in reps:
            if r not in seen:
                coset = [_loop_mul(x, r) for x in h]
                group.extend(coset)
                seen.update(coset)
                if len(seen) > cap:
                    raise ValueError("closure exceeded cap")
                reps.extend(_loop_mul(r, t) for t in used)
    return group


def _matrix_orders(group):
    """One power walk per cyclic subgroup, in the order of group."""
    orders = {}
    for a in group:
        if a in orders:
            continue
        e = identity(a[0][0].p, len(a))
        powers = [a]
        while powers[-1] != e:
            powers.append(_loop_mul(powers[-1], a))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def _matrix_classes(group):
    """Buckets by (orders[m], trace(m)) in the order of group."""
    orders = _matrix_orders(group)
    buckets = {}
    for m in group:
        buckets.setdefault((orders[m], trace(m)), []).append(m)
    return buckets
