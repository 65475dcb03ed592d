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
mu = t*(1 + p + ... + p^(h-1)) + d_0 + d_1*p (mod p^h-1), t read mod p-1,
all that p_restrict reads.  For mu in [0, p^h-1) the digit part is below
p^(h-1), so below 1 + p + ... + p^(h-1): one division t, r = divmod(mu,
1 + ... + p^(h-1)) decides, mu decomposing exactly when r < p^(h-1), with
the d_i the base-p digits of r.  O(1) work per orbit member.
Niveau 2 places (r, s) = (t+d_0, t) and k as (k,r,s), (r,k,s), (r,s,k);
niveau 3 reads the descending rearrangement of (t+d_0, t+d_1, t).  mu runs
over the full conjugate orbit {m, p*m, ...}: the characters come as an
unordered Galois-conjugate family, so which member gets called m must not
matter (a single label can even fail to decompose while its conjugate
succeeds).  Niveau 2 and 3 ambiguities always admit both choices.
"""

from __future__ import annotations

from math import lcm
from typing import Collection, NamedTuple, Optional

from .arith import Record, is_prime, legendre_symbol
from .errors import NULLABLE, REQUIRED, InconsistencyError, json_int, json_str, read_fields


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


#: An inertia profile: the niveau, the niveau-1 exponent triples, the tame
#: exponents k and m (null reads as absent), the très/peu flags of the two
#: blocks and a provenance string.
PROFILE = {"niveau": (json_int, REQUIRED), "triples": ([[json_int, 3]], ()),
           "k": (json_int, NULLABLE), "m": (json_int, NULLABLE),
           "flags": ([FLAGS, 2], ("none", "none")), "provenance": (json_str, "")}


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
        """The profile read by PROFILE."""
        return cls(**read_fields(payload, PROFILE))


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
    unit = (p**h - 1) // (p - 1)  # 1 + p + ... + p^(h-1)
    for mu in _orbit(profile, p):
        t, r = divmod(mu, unit)
        if r < p ** (h - 1):  # r's base-p digits are d_0 .. d_(h-2), the top digit 0
            exps = sorted((t + r // p**i % p for i in range(h)), reverse=True)
            readings = [exps] if h == 3 else [(k, *exps), (exps[0], k, exps[1]), (*exps, k)]
            for A, B, C in readings:
                out |= p_restrict(A, B, C, p)
    if not out:
        raise InconsistencyError("decomposition impossible")
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters

#: Each quadratic character kind's conductor and sign at a prime ell away from it.
_CHARACTERS = {"eps17": (17, lambda ell: legendre_symbol(ell, 17)),
               "omega4": (4, lambda ell: 1 if ell % 4 == 1 else -1),
               "psi8": (8, lambda ell: 1 if ell % 8 in (1, 7) else -1)}


class DirichletCharacter(Record):
    """A product of distinct kinds of _CHARACTERS (values in {+-1}), evaluated
    at primes away from the conductor; a repeated kind is inconsistent, as
    psi8 * psi8 is the trivial character, not psi8."""

    __slots__ = ("p", "kinds")

    def __init__(self, p: int, kinds: Collection[str] = ()):
        unknown = set(kinds) - _CHARACTERS.keys()
        if unknown:
            raise InconsistencyError(f"unknown character kinds {sorted(unknown)}")
        repeated = sorted(kind for kind in set(kinds) if list(kinds).count(kind) > 1)
        if repeated:
            raise InconsistencyError(f"duplicate kind {repeated[0]} in nebentype kinds")
        self._set(p, frozenset(kinds))

    @property
    def conductor(self) -> int:
        return lcm(*(_CHARACTERS[kind][0] for kind in self.kinds)) if self.kinds else 1

    @property
    def kind(self) -> str:
        return "*".join(sorted(self.kinds)) if self.kinds else "trivial"

    def sign_at(self, ell: int) -> int:
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if self.conductor % ell == 0:
            raise InconsistencyError(f"{ell} divides the conductor {self.conductor}")
        sign = 1
        for kind in self.kinds:
            sign *= _CHARACTERS[kind][1](ell)
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
