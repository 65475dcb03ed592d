"""Hecke polynomials from eigenvalue triples and attachment verification.

For a prime ell (away from p and the level) with eigenvalues a1, a2, a3
(a0 = 1 implicitly), the Hecke polynomial is

    1 - a1*t + ell*a2*t^2 - ell^3*a3*t^3

with ell reduced into F_p; the k-th coefficient carries ell^(k(k-1)/2) and
an alternating sign; ``hecke_poly`` gives it as reduced coefficient pairs
(c0, c1), as the Frobenius charpolys are given, and ``arith.frobenius_pairs``
conjugates them.  "Attached" means this cubic equals the Frobenius
characteristic polynomial at every supplied ell.  Since eigensystems come
in Galois-conjugate pairs, the checker also recognizes the globally
conjugated match, and a two-candidate Frobenius entry (an unresolved
order-5 class) counts as matching when either candidate does, flagged as
indeterminate.
"""

from __future__ import annotations

from .arith import Record, frobenius_pairs
from .errors import REQUIRED, InconsistencyError, json_int, read_fields

#: An eigenvalue record: ell and the three eigenvalues, each a pair (c0, c1)
#: of coefficients of an element of F_{p^2}.
EIGENVALUE = {"ell": (json_int, REQUIRED), "a": ([[json_int, 2], 3], REQUIRED)}


class EigenvalueRecord(Record):
    """ell, the eigenvalues a1, a2, a3 as pairs (c0, c1) reduced mod p, and p."""

    __slots__ = ("ell", "a1", "a2", "a3", "p")

    def __init__(self, ell: int, a1, a2, a3, p: int):
        self._set(ell, *[(c0 % p, c1 % p) for c0, c1 in (a1, a2, a3)], p)

    def conjugate(self) -> "EigenvalueRecord":
        return EigenvalueRecord(self.ell, *frobenius_pairs(self.p, (self.a1, self.a2, self.a3)),
                                self.p)

    @classmethod
    def from_json(cls, payload, p: int) -> "EigenvalueRecord":
        """The record read by EIGENVALUE, over F_{p^2}."""
        return cls.from_fields(read_fields(payload, EIGENVALUE), p)

    @classmethod
    def from_fields(cls, fields: dict, p: int) -> "EigenvalueRecord":
        """The record of fields read by EIGENVALUE, over F_{p^2}."""
        return cls(fields["ell"], *fields["a"], p)

    def to_json(self) -> dict:
        return {"ell": self.ell, "a": [list(x) for x in (self.a1, self.a2, self.a3)]}


def hecke_poly(rec: EigenvalueRecord, p: int) -> tuple[tuple[int, int], ...]:
    """Coefficients [1, -a1, ell*a2, -ell^3*a3] as reduced pairs (c0, c1)."""
    ell = rec.ell % p
    if ell == 0:
        raise InconsistencyError(f"ell = {rec.ell} is divisible by p = {p}")
    scaled = zip((rec.a1, rec.a2, rec.a3), (-1, ell, -pow(ell, 3, p)))
    return ((1, 0), *[(c0 * s % p, c1 * s % p) for (c0, c1), s in scaled])


class AttachmentVerdict(Record):
    # overall: "attached" | "attached-up-to-conjugacy" | "not-attached"
    __slots__ = ("per_ell", "overall", "indeterminate_ells")

    def to_json(self) -> dict:
        return {
            "per_ell": {str(ell): status for ell, status in sorted(self.per_ell.items())},
            "overall": self.overall,
            "indeterminate_ells": list(self.indeterminate_ells),
        }


def check_attached(records: list[EigenvalueRecord], frob_polys: dict) -> AttachmentVerdict:
    """Compare Hecke polynomials against Frobenius characteristic
    polynomials, as tuples of coefficient pairs (c0, c1) reduced mod p.

    frob_polys maps ell to its candidate cubics, each a sequence of four
    integer pairs (two for an unresolved order-5 class), or to None for a
    row above the range checked, whose record is skipped.  Per-ell status
    is "match", "conjugate-match" (the Galois twin matches) or "mismatch".
    Overall: "attached" when everything matches outright,
    "attached-up-to-conjugacy" when one global conjugation fixes it.
    Records are read in order of ell, so ``indeterminate_ells`` is sorted.
    """
    seen, per_ell, indeterminate, direct, conjugate = set(), {}, [], [], []
    for rec in sorted(records, key=lambda r: r.ell):
        if rec.ell in seen:
            raise InconsistencyError(f"duplicate ell {rec.ell} in eigenvalue records")
        if rec.ell not in frob_polys:
            raise InconsistencyError(f"no Frobenius polynomial supplied for ell = {rec.ell}")
        seen.add(rec.ell)
        if frob_polys[rec.ell] is None:
            continue
        p = rec.p
        candidates = [tuple([(c0 % p, c1 % p) for c0, c1 in cubic])
                      for cubic in frob_polys[rec.ell]]
        if len(candidates) > 1:
            indeterminate.append(rec.ell)
        h = hecke_poly(rec, p)
        direct.append(h in candidates)
        conjugate.append(frobenius_pairs(p, h) in candidates)
        per_ell[rec.ell] = ("match" if direct[-1] else
                            "conjugate-match" if conjugate[-1] else "mismatch")
    overall = ("attached" if all(direct) else
               "attached-up-to-conjugacy" if all(conjugate) else "not-attached")
    return AttachmentVerdict(per_ell, overall, tuple(indeterminate))
