"""The references the tests check ``padic_serre`` against: ``Fp2Elem``, an
element of F_{p^2} with its own operators, matrices of elements (tuples of
row tuples) with their trace, determinant and det(1 - a*t), and group walks
on them.  ``encode``/``decode`` and ``pairs``/``lift`` convert to and from
the package's code tuples and reduced pairs (c0, c1)."""

from math import gcd, isqrt

from padic_serre.arith import Record, quadratic_modulus


class Fp2Elem(Record):
    """c0 + c1*w in F_p[w]/(w^2 + b*w + c), the modulus fixed by the prime.

    A read-only value: the coefficients are reduced mod p, and equality,
    hash and pickling go by (p, c0, c1).  Sums, differences and products
    are computed from the coefficients, with w^2 = -b*w - c, and the
    Frobenius is the power x^p.
    """

    __slots__ = ("p", "c0", "c1")

    def __init__(self, p, c0, c1):
        self._set(p, c0 % p, c1 % p)

    def _coerce(self, other):
        if isinstance(other, Fp2Elem):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        return Fp2Elem(self.p, int(other), 0)

    def __add__(self, other):
        other = self._coerce(other)
        return Fp2Elem(self.p, self.c0 + other.c0, self.c1 + other.c1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        b, c = quadratic_modulus(self.p)
        hi = self.c1 * other.c1
        return Fp2Elem(self.p, self.c0 * other.c0 - hi * c,
                       self.c0 * other.c1 + self.c1 * other.c0 - hi * b)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp2Elem(self.p, -self.c0, -self.c1)

    def frobenius(self):
        return _power(self, self.p)

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def __repr__(self):
        return f"({self.c0} + {self.c1}*w mod {self.p})"


def elements(p):
    """Every element of F_{p^2}, c0 in the outer loop and c1 in the inner."""
    return [Fp2Elem(p, c0, c1) for c0 in range(p) for c1 in range(p)]


def _power(x, e):
    """x^e for an Fp2Elem x and an integer e >= 0, by square and multiply:
    the Frobenius for e = p, and the inverse of a nonzero x for
    e = p^2 - 2."""
    result = Fp2Elem(x.p, 1, 0)
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


def pairs(xs):
    """Elements as the tuple of their pairs (c0, c1)."""
    return tuple((x.c0, x.c1) for x in xs)


def lift(p, cs):
    """Pairs (c0, c1) as a list of elements of F_{p^2}."""
    return [Fp2Elem(p, c0, c1) for c0, c1 in cs]


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(p, n):
    return mat([[Fp2Elem(p, int(i == j), 0) for j in range(n)] for i in range(n)])


def scalar_mul(c, a):
    return mat([[c * x for x in row] for row in a])


def trace(a):
    return sum((a[i][i] for i in range(1, len(a))), a[0][0])


def det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def charpoly3_reversed(a):
    """[1, c1, c2, c3] with det(1 - a*t) = 1 + c1*t + c2*t^2 + c3*t^3:
    c1 = -trace, c2 = the sum of the principal 2x2 minors, c3 = -det."""
    minors = [a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    return [Fp2Elem(a[0][0].p, 1, 0), -trace(a), minors[0] + minors[1] + minors[2], -det3(a)]


def encode(m):
    """A matrix as the flat tuple of its entries' codes c0 + p*c1."""
    return tuple(x.c0 + x.p * x.c1 for row in m for x in row)


def decode(code, p):
    """The matrix of a flat code tuple over F_{p^2}."""
    n = isqrt(len(code))
    return mat([lift(p, [(c % p, c // p) for c in code[i:i + n]]) for i in range(0, len(code), n)])


def _mat_key(m):
    """The entries' pairs (c0, c1) row by row: the order of a sorted group,
    and the layout of ``matrix_oracle.EXTRA_INVOLUTION``."""
    return tuple((x.c0, x.c1) for row in m for x in row)


def _loop_mul(a, b):
    """The entrywise product by the element operators."""
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
