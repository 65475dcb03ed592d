"""Exact arithmetic layer: p-adic valuations and the finite fields F_{p^2}.

There is one finite-field element type, ``Fp2Elem``, built directly as
``Fp2Elem(p, c0, c1)``; an element of the prime field F_p is an ``Fp2Elem``
with c1 == 0, and ``elements(p)`` lists a whole field.  An element is a
plain read-only value, a ``Record`` of p and its coefficients; +, - and *
compute the coefficients of the result and return a new element.

Everything here is immutable and pure; rationals are ``fractions.Fraction``
(always lowest terms, positive denominator), valuations are additive with
ord_p(p) = 1, and ord_p(0) is a distinguished infinity that sorts above
every rational.  ``Record`` is the base of the package's read-only value
types.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
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


def frobenius_pairs(p: int, pairs) -> tuple[tuple[int, int], ...]:
    """x -> x^p on pairs (c0, c1), x = c0 + c1*w, as reduced pairs.  The roots
    w and w^p of the modulus sum to -b, so w^p = -b - w and
    (c0 + c1*w)^p = (c0 - b*c1) - c1*w."""
    b = quadratic_modulus(p)[0]
    return tuple([((c0 - b * c1) % p, -c1 % p) for c0, c1 in pairs])


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


class Fp2Elem(Record):
    """c0 + c1*w in F_p[w]/(w^2 + b*w + c), the modulus fixed by the prime.

    A read-only value: the coefficients are reduced mod p, and equality,
    hash and pickling go by (p, c0, c1).  Sums, differences and products
    are computed from the coefficients, with w^2 = -b*w - c.
    """

    __slots__ = ("p", "c0", "c1")

    def __init__(self, p: int, c0: int, c1: int):
        self._set(p, c0 % p, c1 % p)

    def _coerce(self, other) -> "Fp2Elem":
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
        other = self._coerce(other)
        return Fp2Elem(self.p, self.c0 - other.c0, self.c1 - other.c1)

    def __mul__(self, other):
        other = self._coerce(other)
        b, c = quadratic_modulus(self.p)
        # (x0 + x1 w)(y0 + y1 w) with w^2 = -b w - c
        hi = self.c1 * other.c1
        return Fp2Elem(self.p, self.c0 * other.c0 - hi * c,
                       self.c0 * other.c1 + self.c1 * other.c0 - hi * b)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp2Elem(self.p, -self.c0, -self.c1)

    def frobenius(self) -> "Fp2Elem":
        """The field automorphism x -> x^p, an involution fixing F_p."""
        return Fp2Elem(self.p, *frobenius_pairs(self.p, ((self.c0, self.c1),))[0])

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def __repr__(self):
        return f"({self.c0} + {self.c1}*w mod {self.p})"


def elements(p: int):
    """Every element of F_{p^2}, c0 in the outer loop and c1 in the inner."""
    for c0 in range(p):
        for c1 in range(p):
            yield Fp2Elem(p, c0, c1)


def cube_root_of_unity(p: int) -> Fp2Elem:
    """A primitive cube root of unity mod p, as an element of F_{p^2}.

    The first root of z^2 + z + 1 in the order of ``elements``.
    When 3 | p-1 that polynomial splits over F_p, so the root found lies in
    the prime field (c1 == 0).  Characteristic 3 has none.
    """
    _require_prime(p)
    if p == 3:
        raise InconsistencyError("no primitive cube root in characteristic 3")
    for z in elements(p):
        if not z * z + z + 1:
            return z
    raise AssertionError("unreachable: F_{p^2}^* is cyclic of order divisible by 3")
