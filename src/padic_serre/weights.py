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
exponents directly (one per triangularization).  Niveau 2 supplies a tame
exponent k mod p-1 and m mod p^2-1: every decomposition mu = r + s*p
(mod p^2-1, with r, s in [0, p^2-2] and 0 <= r-s <= p-1) and every
placement (k,r,s), (r,k,s), (r,s,k) contributes.  Niveau 3 supplies m mod
p^3-1: every r = t+d1, s = t+d2 (0 <= d1, d2 <= p-1) with
r + s*p + t*p^2 = mu (mod p^3-1) contributes the descending rearrangement
of (r, s, t).  In both cases mu runs over the full conjugate orbit
{m, p*m, ...}: the characters come as an unordered Galois-conjugate
family, so which member gets called m must not matter (a single label can
even fail to decompose while its conjugate succeeds).  Niveau 2 and 3
ambiguities always admit both choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import NamedTuple, Optional

from .arith import Fp2Elem, is_prime
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


@dataclass(frozen=True)
class InertiaProfile:
    niveau: int
    triples: tuple[tuple[int, int, int], ...] = ()  # niveau 1 exponents
    k: Optional[int] = None                         # niveau 2 tame exponent
    m: Optional[int] = None                         # niveau 2/3 fundamental exponent
    flags: tuple[str, str] = ("none", "none")
    provenance: str = ""

    def __post_init__(self):
        if self.niveau not in (1, 2, 3):
            raise InconsistencyError("niveau must be 1, 2 or 3")
        if self.niveau == 1 and not self.triples:
            raise InconsistencyError("niveau 1 profile needs exponent triples")
        if self.niveau == 2 and (self.k is None or self.m is None):
            raise InconsistencyError("niveau 2 profile needs k and m")
        if self.niveau == 3 and self.m is None:
            raise InconsistencyError("niveau 3 profile needs m")

    @classmethod
    def from_json(cls, payload) -> "InertiaProfile":
        """Integers go through ``json_int`` (ValueError); a triple that is
        not three values or flags that are not two strings: SchemaError."""
        niveau = json_int(payload["niveau"])
        triples = tuple(tuple(json_int(x) for x in t) for t in payload.get("triples", []))
        if any(len(t) != 3 for t in triples):
            raise SchemaError(f"exponent triples {triples} must each have three values")
        flags = payload.get("flags", ["none", "none"])
        if not (isinstance(flags, list) and len(flags) == 2
                and all(isinstance(f, str) for f in flags)):
            raise SchemaError(f"flags {flags!r} must be a list of two strings")
        k, m = payload.get("k"), payload.get("m")
        return cls(
            niveau=niveau,
            triples=triples,
            k=None if k is None else json_int(k),
            m=None if m is None else json_int(m),
            flags=tuple(flags),
            provenance=payload.get("provenance", ""),
        )


def _check_genuine_niveau(profile: InertiaProfile, p: int) -> None:
    if profile.niveau == 2:
        mod = p * p - 1
        if (profile.m * p - profile.m) % mod == 0:
            raise InconsistencyError("m is fixed by x -> p*x: not genuinely niveau 2")
    if profile.niveau == 3:
        mod = p**3 - 1
        orbit = {profile.m % mod, profile.m * p % mod, profile.m * p * p % mod}
        if len(orbit) != 3:
            raise InconsistencyError("m does not have a full orbit: not genuinely niveau 3")


def predicted_weights(profile: InertiaProfile, p: int) -> set[Triple]:
    """Union of p_restrict over every admissible exponent reading of the
    profile; see the module docstring for the niveau 2/3 enumeration."""
    _check_genuine_niveau(profile, p)
    out: set[Triple] = set()
    if profile.niveau == 1:
        for A, B, C in profile.triples:
            out |= p_restrict(A, B, C, p, profile.flags)
        return out
    both = ("none", "none")
    if profile.niveau == 2:
        mod = p * p - 1
        k = profile.k % (p - 1)
        found = False
        for mu in {profile.m % mod, profile.m * p % mod}:
            for s in range(mod):
                r = (mu - s * p) % mod
                if 0 <= r - s <= p - 1:
                    found = True
                    for A, B, C in ((k, r, s), (r, k, s), (r, s, k)):
                        out |= p_restrict(A, B, C, p, both)
        if not found:
            raise InconsistencyError("decomposition impossible")
        return out
    mod = p**3 - 1
    orbit = {profile.m % mod, profile.m * p % mod, profile.m * p * p % mod}
    found = False
    for mu in orbit:
        for t in range(mod):
            for d1 in range(p):
                for d2 in range(p):
                    r, s = t + d1, t + d2
                    if (r + s * p + t * p * p) % mod == mu:
                        found = True
                        A, B, _ = sorted((r, s, t), reverse=True)
                        out |= p_restrict(A, B, t, p, both)
    if not found:
        raise InconsistencyError("decomposition impossible")
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters

_CONDUCTORS = {"eps17": 17, "omega4": 4, "psi8": 8}


def legendre_symbol(a: int, q: int) -> int:
    """(a|q) for an odd prime q, in {-1, 0, 1}."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


@dataclass(frozen=True)
class DirichletCharacter:
    """A product of the quadratic characters eps17, omega4, psi8 (values in
    {+-1}), evaluated at primes away from the conductor and embedded in F_p."""

    p: int
    kinds: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        unknown = set(self.kinds) - set(_CONDUCTORS)
        if unknown:
            raise InconsistencyError(f"unknown character kinds {sorted(unknown)}")

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


def char_eval(chi: DirichletCharacter, ell: int) -> Fp2Elem:
    return Fp2Elem(chi.p, chi.sign_at(ell), 0)


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
