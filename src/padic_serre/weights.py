"""Weight prediction from tame inertia data, and the small stock of
quadratic Dirichlet characters used by the bundled scenarios.

A weight is a p-restricted triple (a, b, c): 0 <= a-b <= p-1,
0 <= b-c <= p-1, 0 <= c <= p-2.  Given diagonal character exponents
(A, B, C), the associated triples are the p-restricted ones congruent to
(A-2, B-1, C) componentwise mod p-1.  When A-B-1 (resp. B-C-1) vanishes
mod p-1 the top (resp. bottom) block is ambiguous; a flag resolves it:

    "tres"        only the split choice a = b + (p-1)  (resp. b = c + (p-1))
    "peu"/"none"  both choices admitted

Inertia profiles come in three niveaux.  Niveau 1 supplies the (A, B, C)
exponents directly (one per triangularization).  Niveau h = 2 or 3 supplies
m mod p^h-1 (niveau 2 also a tame exponent k).  A decomposition of mu
writes the h exponents as t plus a digit d_i in [0, p-1], the top digit 0:
mu = t*(1 + p + ... + p^(h-1)) + d_0 + d_1*p (mod p^h-1).  That sum of
powers divides p^h-1, so the higher digits fix d_0 modulo it, and d_0 must
be below p; t is then fixed mod p-1, all that p_restrict reads.  One t per
digit tuple: O(1) work per orbit member at niveau 2, O(p) at niveau 3.
Niveau 2 places (r, s) = (t+d_0, t) and k as (k,r,s), (r,k,s), (r,s,k);
niveau 3 reads the descending rearrangement of (t+d_0, t+d_1, t).  mu runs
over the full conjugate orbit {m, p*m, ...}: the characters come as an
unordered Galois-conjugate family, so which member gets called m must not
matter (a single label can even fail to decompose while its conjugate
succeeds).  Niveau 2 and 3 ambiguities always admit both choices.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from typing import NamedTuple, Optional

from .arith import Record, is_prime
from .errors import InconsistencyError, SchemaError, json_int


class Triple(NamedTuple):
    a: int
    b: int
    c: int

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def is_p_restricted(t: Triple, p: int) -> bool:
    return 0 <= t.a - t.b <= p - 1 and 0 <= t.b - t.c <= p - 1 and 0 <= t.c <= p - 2


FLAGS = ("peu", "tres", "none")


def _component_options(target: int, lower: int, m: int, flag: str) -> list[int]:
    """Values v = lower + delta, delta in [0, m], with v = target mod m;
    the delta in {0, m} ambiguity is resolved by the flag."""
    delta = (target - lower) % m
    if delta != 0:
        return [lower + delta]
    if flag == "tres":
        return [lower + m]
    return [lower, lower + m]


def p_restrict(A: int, B: int, C: int, p: int, flags=("none", "none")) -> set[Triple]:
    """All p-restricted triples congruent to (A-2, B-1, C) mod p-1, with the
    block ambiguities resolved by flags = (top flag, bottom flag)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    top, bottom = flags
    if top not in FLAGS or bottom not in FLAGS:
        raise ValueError(f"flags must be drawn from {FLAGS}")
    m = p - 1
    c = C % m
    out = set()
    for b in _component_options(B - 1, c, m, bottom):
        for a in _component_options(A - 2, b, m, top):
            t = Triple(a, b, c)
            assert is_p_restricted(t, p)
            out.add(t)
    return out


class InertiaProfile(Record):
    __slots__ = ("niveau", "triples", "k", "m", "flags", "provenance")

    def __init__(self, niveau: int,
                 triples: tuple[tuple[int, int, int], ...] = (),  # niveau 1 exponents
                 k: Optional[int] = None,                         # niveau 2 tame exponent
                 m: Optional[int] = None,                         # niveau 2/3 fundamental exponent
                 flags: tuple[str, str] = ("none", "none"),
                 provenance: str = ""):
        if niveau not in (1, 2, 3):
            raise InconsistencyError("niveau must be 1, 2 or 3")
        if niveau == 1 and not triples:
            raise InconsistencyError("niveau 1 profile needs exponent triples")
        if niveau == 2 and (k is None or m is None):
            raise InconsistencyError("niveau 2 profile needs k and m")
        if niveau == 3 and m is None:
            raise InconsistencyError("niveau 3 profile needs m")
        self._set(niveau, triples, k, m, flags, provenance)

    @classmethod
    def from_json(cls, payload) -> "InertiaProfile":
        """Integers go through ``json_int`` (ValueError); a triple that is
        not three values, flags that are not two of FLAGS or a provenance
        that is not a string: SchemaError."""
        niveau = json_int(payload["niveau"])
        triples = tuple(tuple(json_int(x) for x in t) for t in payload.get("triples", []))
        if any(len(t) != 3 for t in triples):
            raise SchemaError(f"exponent triples {triples} must each have three values")
        flags = payload.get("flags", ["none", "none"])
        if not (isinstance(flags, list) and len(flags) == 2 and all(f in FLAGS for f in flags)):
            raise SchemaError(f"flags {flags!r} must be a list of two of {FLAGS}")
        provenance = payload.get("provenance", "")
        if not isinstance(provenance, str):
            raise SchemaError(f"provenance {provenance!r} is not a string")
        k, m = payload.get("k"), payload.get("m")
        return cls(
            niveau=niveau,
            triples=triples,
            k=None if k is None else json_int(k),
            m=None if m is None else json_int(m),
            flags=tuple(flags),
            provenance=provenance,
        )


_NOT_GENUINE = {
    2: "m is fixed by x -> p*x: not genuinely niveau 2",
    3: "m does not have a full orbit: not genuinely niveau 3",
}


def _orbit(profile: InertiaProfile, p: int) -> set[int]:
    """The conjugate orbit {m, p*m, ...} mod p^h - 1 of a niveau-h profile;
    InconsistencyError unless it has h members."""
    h = profile.niveau
    mod = p**h - 1
    orbit = {profile.m * p**i % mod for i in range(h)}
    if len(orbit) != h:
        raise InconsistencyError(_NOT_GENUINE[h])
    return orbit


def predicted_weights(profile: InertiaProfile, p: int) -> set[Triple]:
    """Union of p_restrict over every admissible exponent reading of the
    profile; see the module docstring for the niveau 2/3 digit rule."""
    out: set[Triple] = set()
    if profile.niveau == 1:
        for A, B, C in profile.triples:
            out |= p_restrict(A, B, C, p, profile.flags)
        return out
    h, k = profile.niveau, profile.k
    orbit = _orbit(profile, p)
    unit = (p**h - 1) // (p - 1)  # 1 + p + ... + p^(h-1)
    for mu in orbit:
        for middle in product(range(p), repeat=h - 2):  # the digits d_1 .. d_(h-2)
            t, d0 = divmod(mu - sum(d * p**i for i, d in enumerate(middle, 1)), unit)
            if d0 < p:
                exps = sorted((t + d for d in (d0, *middle, 0)), reverse=True)
                readings = [exps] if h == 3 else [(k, *exps), (exps[0], k, exps[1]), (*exps, k)]
                for A, B, C in readings:
                    out |= p_restrict(A, B, C, p)
    if not out:
        raise InconsistencyError("decomposition impossible")
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters

_CONDUCTORS = {"eps17": 17, "omega4": 4, "psi8": 8}


def legendre_symbol(a: int, q: int) -> int:
    """(a|q) for an odd prime q, in {-1, 0, 1}."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


class DirichletCharacter(Record):
    """A product of the quadratic characters eps17, omega4, psi8 (values in
    {+-1}), evaluated at primes away from the conductor."""

    __slots__ = ("p", "kinds")

    def __init__(self, p: int, kinds: frozenset = frozenset()):
        unknown = set(kinds) - set(_CONDUCTORS)
        if unknown:
            raise InconsistencyError(f"unknown character kinds {sorted(unknown)}")
        self._set(p, kinds)

    @property
    def conductor(self) -> int:
        return lcm(*(_CONDUCTORS[k] for k in self.kinds)) if self.kinds else 1

    @property
    def kind(self) -> str:
        return "*".join(sorted(self.kinds)) if self.kinds else "trivial"

    @classmethod
    def from_json(cls, payload, p: int) -> "DirichletCharacter":
        """The product of the kinds listed in payload, a list of strings
        (SchemaError otherwise); an unknown kind is an InconsistencyError."""
        if not (isinstance(payload, list) and all(isinstance(k, str) for k in payload)):
            raise SchemaError(f"nebentype kinds {payload!r} must be a list of strings")
        return cls(p, frozenset(payload))

    def sign_at(self, ell: int) -> int:
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if self.conductor % ell == 0:
            raise InconsistencyError(f"{ell} divides the conductor {self.conductor}")
        sign = 1
        if "eps17" in self.kinds:
            sign *= legendre_symbol(ell, 17)
        if "omega4" in self.kinds:
            sign *= 1 if ell % 4 == 1 else -1
        if "psi8" in self.kinds:
            sign *= 1 if ell % 8 in (1, 7) else -1
        return sign


def nebentype_factor(k: int, eps: DirichletCharacter, level_n: int) -> tuple[DirichletCharacter, int]:
    """Validate the determinant factorization data (eps, k): the conductor
    of eps must divide the level and be prime to p."""
    if level_n % eps.conductor != 0:
        raise InconsistencyError(
            f"conductor {eps.conductor} does not divide the level {level_n}"
        )
    if eps.conductor % eps.p == 0:
        raise InconsistencyError("conductor must be prime to p")
    return eps, k % (eps.p - 1) if eps.p > 2 else 0
