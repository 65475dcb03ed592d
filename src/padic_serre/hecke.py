"""Hecke polynomials from eigenvalue triples and attachment verification.

For a prime ell (away from p and the level) with eigenvalues a1, a2, a3
(a0 = 1 implicitly), the Hecke polynomial is

    1 - a1*t + ell*a2*t^2 - ell^3*a3*t^3

with ell reduced into F_p; the k-th coefficient carries ell^(k(k-1)/2) and
an alternating sign.  "Attached" means this cubic equals the Frobenius
characteristic polynomial at every supplied ell.  Since eigensystems come
in Galois-conjugate pairs, the checker also recognizes the globally
conjugated match, and a two-candidate Frobenius entry (an unresolved
order-5 class) counts as matching when either candidate does, flagged as
indeterminate.
"""

from __future__ import annotations

from .arith import Fp2Elem, Record
from .errors import InconsistencyError, SchemaError, json_int, json_list

Cubic = list[Fp2Elem]


class EigenvalueRecord(Record):
    __slots__ = ("ell", "a1", "a2", "a3")

    def __init__(self, ell: int, a1: Fp2Elem, a2: Fp2Elem, a3: Fp2Elem):
        self._set(ell, a1, a2, a3)

    @property
    def p(self) -> int:
        return self.a1.p

    def conjugate(self) -> "EigenvalueRecord":
        return EigenvalueRecord(
            self.ell, self.a1.frobenius(), self.a2.frobenius(), self.a3.frobenius()
        )

    @classmethod
    def from_json(cls, payload, p: int) -> "EigenvalueRecord":
        """Integers go through ``json_int`` and lists through ``json_list``
        (ValueError); a record without three eigenvalues: SchemaError."""
        a = json_list(payload["a"])
        if len(a) != 3:
            raise SchemaError(f"expected three eigenvalues, got {len(a)}")
        a1, a2, a3 = (Fp2Elem(p, json_int(c0), json_int(c1)) for c0, c1 in map(json_list, a))
        return cls(json_int(payload["ell"]), a1, a2, a3)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "a": [[x.c0, x.c1] for x in (self.a1, self.a2, self.a3)],
        }


def hecke_poly(rec: EigenvalueRecord, p: int) -> Cubic:
    """Coefficients [1, -a1, ell*a2, -ell^3*a3] over F_{p^2}."""
    ell = rec.ell % p
    if ell == 0:
        raise InconsistencyError(f"ell = {rec.ell} is divisible by p = {p}")
    return [Fp2Elem(p, 1, 0), -rec.a1, rec.a2 * ell, -(rec.a3 * pow(ell, 3, p))]


def solve_record(ell: int, cubic: Cubic, p: int) -> EigenvalueRecord:
    """Invert hecke_poly coefficientwise: the eigenvalue record whose Hecke
    polynomial is the given cubic (constant coefficient must be 1)."""
    if len(cubic) != 4 or cubic[0] != Fp2Elem(p, 1, 0):
        raise InconsistencyError("cubic must have constant coefficient 1")
    ell_mod = ell % p
    if ell_mod == 0:
        raise InconsistencyError(f"ell = {ell} is divisible by p = {p}")
    return EigenvalueRecord(
        ell,
        -cubic[1],
        cubic[2] * pow(ell_mod, -1, p),
        -(cubic[3] * pow(ell_mod, -3, p)),
    )


def conjugate_cubic(cubic: Cubic) -> Cubic:
    return [c.frobenius() for c in cubic]


class AttachmentVerdict(Record):
    # overall: "attached" | "attached-up-to-conjugacy" | "not-attached"
    __slots__ = ("per_ell", "overall", "indeterminate_ells")

    def __init__(self, per_ell: dict, overall: str, indeterminate_ells: tuple[int, ...]):
        self._set(per_ell, overall, indeterminate_ells)

    def to_json(self) -> dict:
        return {
            "per_ell": {str(ell): status for ell, status in sorted(self.per_ell.items())},
            "overall": self.overall,
            "indeterminate_ells": list(self.indeterminate_ells),
        }


def check_attached(records: list[EigenvalueRecord], frob_polys: dict) -> AttachmentVerdict:
    """Compare Hecke polynomials against Frobenius characteristic
    polynomials.

    frob_polys maps ell to a list of candidate cubics (two entries when the
    class is only known up to the order-5 ambiguity).  Per-ell status is
    "match", "conjugate-match" (the Galois twin matches) or "mismatch".
    Overall: "attached" when everything matches outright,
    "attached-up-to-conjugacy" when one global conjugation fixes it.
    Records are read in order of ell, so ``indeterminate_ells`` is sorted.
    """
    per_ell = {}
    indeterminate = []
    all_direct = True
    all_conjugate = True
    for rec in sorted(records, key=lambda r: r.ell):
        if rec.ell in per_ell:
            raise InconsistencyError(f"duplicate ell {rec.ell} in eigenvalue records")
        if rec.ell not in frob_polys:
            raise InconsistencyError(f"no Frobenius polynomial supplied for ell = {rec.ell}")
        candidates = frob_polys[rec.ell]
        if len(candidates) > 1:
            indeterminate.append(rec.ell)
        h = hecke_poly(rec, rec.p)
        hc = conjugate_cubic(h)
        direct = any(h == c for c in candidates)
        conj = any(hc == c for c in candidates)
        all_direct &= direct
        all_conjugate &= conj
        per_ell[rec.ell] = "match" if direct else "conjugate-match" if conj else "mismatch"
    if all_direct:
        overall = "attached"
    elif all_conjugate:
        overall = "attached-up-to-conjugacy"
    else:
        overall = "not-attached"
    return AttachmentVerdict(per_ell, overall, tuple(indeterminate))
