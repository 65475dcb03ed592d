"""Exact arithmetic layer: p-adic valuations and the finite fields F_{p^2}.

An element c0 + c1*w of F_{p^2} = F_p[w]/(w^2 + b*w + c) is the pair
(c0, c1) of its coefficients reduced mod p, an element of F_p one with
c1 == 0.  ``pair_mul`` is the field's one product and ``frobenius_pairs``
its one conjugation; sums and negations are coefficientwise.  The group
layer in matrices runs on the integer codes c0 + p*c1 of these pairs.

Everything here is immutable and pure; rationals are ``fractions.Fraction``
(always lowest terms, positive denominator), valuations are additive with
ord_p(p) = 1, and ord_p(0) is a distinguished infinity that sorts above
every rational.  ``Record`` is the base of the package's read-only value
types.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from operator import attrgetter
from typing import Union

from .errors import InconsistencyError, SchemaError, json_int

#: Value of ord_p(0); compares above every rational.
ORD_INFINITY = float("inf")

Rational = Union[int, Fraction]


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the first 13 primes, then Miller-Rabin to those
    bases, which is exact below _PRIME_LIMIT (Sorenson and Webster, *Math.
    Comp.* 86, 2017); SchemaError from there on."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    if n >= _PRIME_LIMIT:
        raise SchemaError(f"{n} is not below {_PRIME_LIMIT}, the limit of the primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def json_prime(c) -> int:
    """The one rule for primes read from JSON: ``json_int``, then
    ``is_prime``; ValueError otherwise."""
    _require_prime(p := json_int(c))
    return p


def _ord_int(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def ord_p(x: Rational, p: int):
    """Additive p-adic valuation of a rational; ORD_INFINITY for 0."""
    _require_prime(p)
    if x == 0:
        return ORD_INFINITY
    if isinstance(x, Fraction):
        return _ord_int(x.numerator, p) - _ord_int(x.denominator, p)
    return _ord_int(int(x), p)


# ---------------------------------------------------------------------------
# quadratic extensions


def legendre_symbol(a: int, q: int) -> int:
    """(a|q) for an odd prime q, in {-1, 0, 1}, by Euler's criterion."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


@lru_cache(maxsize=None)
def quadratic_modulus(p: int) -> tuple[int, int]:
    """Coefficients (b, c) of the modulus w^2 + b*w + c used for F_{p^2}.

    The first irreducible monic quadratic in lexicographic (b, c) order,
    so the model is deterministic across runs.  For odd p that is the first
    pair whose discriminant b^2 - 4c is a non-residue, and b = 0 has one:
    c with -c a non-residue, as half of F_p^* is.
    """
    _require_prime(p)
    if p == 2:
        return (1, 1)  # w^2 + w + 1, the one irreducible quadratic
    return (0, next(c for c in count(1) if legendre_symbol(-c, p) == -1))


def pair_mul(p: int, x, y) -> tuple[int, int]:
    """The product of x = x0 + x1*w and y = y0 + y1*w in F_{p^2}, given as
    pairs, as a reduced pair: w^2 = -b*w - c."""
    b, c = quadratic_modulus(p)
    hi = x[1] * y[1]
    return ((x[0] * y[0] - hi * c) % p, (x[0] * y[1] + x[1] * y[0] - hi * b) % p)


def frobenius_pairs(p: int, pairs) -> tuple[tuple[int, int], ...]:
    """x -> x^p on pairs (c0, c1), as reduced pairs: the one conjugation.
    The roots w and w^p of the modulus sum to -b, so w^p = -b - w and
    (c0 + c1*w)^p = (c0 - b*c1) - c1*w."""
    b = quadratic_modulus(p)[0]
    return tuple([((c0 - b * c1) % p, -c1 % p) for c0, c1 in pairs])


def cube_root_of_unity(p: int) -> tuple[int, int]:
    """A primitive cube root of unity in F_{p^2}, as a pair (c0, c1).

    The first root of z^2 + z + 1 with c0 in the outer loop and c1 in the
    inner.  When 3 | p-1 that polynomial splits over F_p, so the root found
    lies in the prime field (c1 == 0).  Characteristic 3 has none.
    """
    _require_prime(p)
    if p == 3:
        raise InconsistencyError("no primitive cube root in characteristic 3")
    for z in product(range(p), repeat=2):
        z0, z1 = pair_mul(p, z, z)
        if (z0 + z[0] + 1) % p == 0 and (z1 + z[1]) % p == 0:
            return z
    raise AssertionError("unreachable: F_{p^2}^* is cyclic of order divisible by 3")


class Record:
    """Base of the package's value types.  The fields are the ``__slots__``,
    in constructor order.  The default ``__init__`` takes one value per
    field and sets them all with ``_set``; a record that validates,
    normalizes or has a default writes its own, which ends in ``_set``.
    From then on the record is read-only.  Equality, hash, repr and
    pickling go by the field values; equality and hash read them with one
    ``attrgetter`` per class, ``_values``, which gives the bare value of a
    one-field record."""

    __slots__ = ()

    def __init__(self, *values):
        self._set(*values)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"
