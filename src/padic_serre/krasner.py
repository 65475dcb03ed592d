"""Root-separation bounds and "same extension of Q_p" precision certificates.

Everything is phrased with the additive valuation ord_p (ord_p(p) = 1);
multiplicative absolute-value statements convert via |x| = p^(-ord_p x).
For a monic irreducible f of degree n with d = ord_p(disc f) and
a = ord_p(constant term), the root-separation exponent
lambda = max ord_p(a_i - a_j) over root pairs satisfies
lambda <= (d - (n-2)a)/n, and a monic irreducible g of the same degree
congruent to f mod p^k is declared to give the same extension once k beats
the chosen method's bound (strict inequality):

    "prop1"      k > lambda + (d - a)/n
    "prop1bis"   k > (2d - (n-1)a)/n        (no root data needed)
    "safe"       k > lambda + d/n

The first two are the classical reported bounds; "safe" is the conservative
variant whose Krasner argument carries through even when the coefficient
difference is concentrated in the constant term (the aggressive bounds can
miss by exactly a/n in that corner; see the decision notes in the test
suite).  A certificate is only ever "certified" or "inconclusive": the
criteria are sufficient, never necessary, so "different extensions" is
never claimed.

Irreducibility over Q_p is not decided here; callers supply evidence that
this module validates:

  ("eisenstein-after-shift", a)   f(x+a) is Eisenstein at p
  ("irreducible-mod-q", q)        f stays irreducible mod the prime q,
                                  a proof over Q_p only for q = p, though
                                  any q is accepted (x^2 + 7 is irreducible
                                  mod 3 and splits over Q_2)
  ("single-slope",)               Newton polygon is one slope with
                                  denominator equal to deg f
  ("caller-assertion",)           accepted but flagged in the report

``parse_evidence`` reads a claim given as a list (a JSON array in a case
file, the split ``kind:arg`` flag on the command line); a claim that does
not parse is a SchemaError, one that f does not satisfy an EvidenceError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .arith import ORD_INFINITY, Record, json_prime, ord_p
from .errors import EvidenceError, InconsistencyError, SchemaError, json_int, read_fields
from .polynomial import (
    IntPoly,
    cycle_type_mod_ell,
    discriminant,
    newton_polygon,
    resultant,
    root_diff_poly,
)

METHODS = ("prop1", "prop1bis", "safe")

EVIDENCE_KINDS = (
    "eisenstein-after-shift",
    "irreducible-mod-q",
    "single-slope",
    "caller-assertion",
)


def is_eisenstein(f: IntPoly, p: int) -> bool:
    """Monic, every lower coefficient divisible by p, constant term not by p^2."""
    if not f.is_monic() or f.degree < 1:
        return False
    if any(c % p for c in f.coeffs[:-1]):
        return False
    return f.constant % (p * p) != 0 and f.constant != 0


def parse_evidence(claim) -> tuple:
    """The claim ["kind"] or ["kind", arg] as a tuple, with the argument of
    "eisenstein-after-shift" read by ``json_int`` and the q of
    "irreducible-mod-q" by ``json_prime``.  SchemaError for a claim that is
    not a list or tuple, an unknown kind, a missing, extra or non-integer
    argument, or a q that is not prime."""
    if not isinstance(claim, (list, tuple)) or not claim or claim[0] not in EVIDENCE_KINDS:
        raise SchemaError(f"evidence {claim!r} is not a list starting with one of {EVIDENCE_KINDS}")
    kind, *args = claim
    arity = int(kind in ("eisenstein-after-shift", "irreducible-mod-q"))
    if len(args) != arity:
        raise SchemaError(f"evidence {kind} takes {arity} argument(s), got {args!r}")
    parse = json_prime if kind == "irreducible-mod-q" else json_int
    return (kind, *(read_fields(arg, parse) for arg in args))


def validate_evidence(f: IntPoly, p: int, evidence, which: str) -> bool:
    """Check one evidence claim; returns True when the evidence was a bare
    caller assertion (so reports can flag it).  Raises EvidenceError when
    the claim fails to validate, SchemaError when ``parse_evidence``
    rejects it."""
    kind, *args = parse_evidence(evidence)
    if kind == "caller-assertion":
        return True
    if kind == "eisenstein-after-shift":
        (a,) = args
        if not is_eisenstein(f.shift(a), p):
            raise EvidenceError(which, f"shift by {a} is not Eisenstein at {p}")
        return False
    if kind == "irreducible-mod-q":
        (q,) = args
        try:
            parts = cycle_type_mod_ell(f, q)
        except InconsistencyError as exc:
            raise EvidenceError(which, f"reduction mod {q} is not squarefree") from exc
        if parts != (f.degree,):
            raise EvidenceError(which, f"reducible mod {q}: factor degrees {parts}")
        return False
    # single-slope: a one-segment polygon whose slope denominator equals the
    # degree forces total ramification of degree n, hence irreducibility.
    np = newton_polygon(f, p)
    if np.infinite_mult or len(np.segments) != 1:
        raise EvidenceError(which, "Newton polygon is not a single finite slope")
    slope, mult = np.segments[0]
    if mult != f.degree or slope.denominator != f.degree:
        raise EvidenceError(which, f"slope {slope} does not have denominator {f.degree}")
    return False


def _invariants(f: IntPoly, p: int, with_lambda: bool) -> tuple:
    """(n, d, a, lambda) of f.  lambda, the largest finite slope of the
    Newton polygon of the root-difference polynomial, is None unless
    with_lambda; then d is read off that polynomial's constant term, +-disc f."""
    if not f.is_monic():
        raise InconsistencyError("polynomial must be monic")
    n = f.degree
    if n < 2:
        raise InconsistencyError("degree must be at least 2")
    if f.constant == 0:
        raise InconsistencyError("constant term must be nonzero")
    if with_lambda:
        diffs = root_diff_poly(f)
        lam = newton_polygon(diffs, p).largest_finite_slope()
        return n, ord_p(diffs.constant, p), ord_p(f.constant, p), lam
    disc = discriminant(f)
    if disc == 0:
        raise InconsistencyError("polynomial is not squarefree")
    return n, ord_p(disc, p), ord_p(f.constant, p), None


def _strict_ceil(bound: Optional[Fraction]) -> Optional[int]:
    return None if bound is None else bound.numerator // bound.denominator + 1


class PrecisionReport(Record):
    # lam, k_prop1 and bound_prop1 are None when the root-difference slope
    # was skipped (method "prop1bis"); k_safe and bound_safe unless "safe"
    __slots__ = ("n", "d", "a", "lam", "k_prop1", "k_prop1bis", "bound_prop1",
                 "bound_prop1bis", "method_used", "k_safe", "bound_safe")

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "d": str(self.d),
            "a": str(self.a),
            "lambda": str(self.lam) if self.lam is not None else "not computed",
            "k_prop1": self.k_prop1 if self.k_prop1 is not None else "unavailable",
            "k_prop1bis": self.k_prop1bis,
            "bound_prop1": str(self.bound_prop1) if self.bound_prop1 is not None else "unavailable",
            "bound_prop1bis": str(self.bound_prop1bis),
            "method_used": self.method_used,
        }
        if self.k_safe is not None:
            out["k_safe"] = self.k_safe
            out["bound_safe"] = str(self.bound_safe)
        return out


def precision_report(f: IntPoly, p: int, method: str = "prop1bis") -> PrecisionReport:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    n, d, a, lam = _invariants(f, p, method != "prop1bis")
    b_bis = Fraction(2 * d - (n - 1) * a, n)
    b1 = None if lam is None else lam + Fraction(d - a, n)
    b_safe = lam + Fraction(d, n) if method == "safe" else None
    return PrecisionReport(n, d, a, lam, _strict_ceil(b1), _strict_ceil(b_bis), b1, b_bis,
                           method, _strict_ceil(b_safe), b_safe)


def precision_k(f: IntPoly, p: int, method: str = "prop1bis") -> int:
    """Smallest integer k beating the chosen method's bound (strict)."""
    return getattr(precision_report(f, p, method), "k_" + method)


def _pair_degree(f: IntPoly, g: IntPoly) -> int:
    if not (f.is_monic() and g.is_monic()) or f.degree != g.degree:
        raise InconsistencyError("need monic polynomials of equal degree")
    return f.degree


def _congruence_order(f: IntPoly, g: IntPoly, p: int):
    """min ord_p(g_i - f_i) over the non-leading coefficients of f and g."""
    return min((ord_p(b - c, p) for c, b in zip(f.coeffs[:-1], g.coeffs[:-1])),
               default=ORD_INFINITY)


def _resultant_lhs(f: IntPoly, g: IntPoly, p: int) -> tuple:
    """n and ord_p(Res(f, g))/n, for f with a nonzero constant term."""
    n = _pair_degree(f, g)
    if f.constant == 0:
        raise InconsistencyError("constant term of f must be nonzero")
    r = resultant(f, g)
    return n, ORD_INFINITY if r == 0 else Fraction(ord_p(r, p), n)


def resultant_margin(f: IntPoly, g: IntPoly, p: int) -> tuple:
    """Both sides of the reported resultant valuation inequality.

    lhs = ord_p(Res(f, g)) / n, rhs = a/n + min_i ord_p(b_i - a_i) over the
    non-leading coefficients; a shared root makes the lhs infinite.  The
    reported contract is lhs >= rhs.  Beware: when the minimizing difference
    sits at the constant coefficient, only the weighted form
    (see weighted_resultant_margin) is actually guaranteed.
    """
    n, lhs = _resultant_lhs(f, g, p)
    return lhs, _congruence_order(f, g, p) + Fraction(ord_p(f.constant, p), n)


def weighted_resultant_margin(f: IntPoly, g: IntPoly, p: int) -> tuple:
    """Provably valid variant: rhs = min over powers i of
    ord_p(diff of x^i coefficients) + a*i/n, each difference weighted by the
    valuation of the root power it multiplies.

    lhs >= rhs holds whenever every root of f has valuation a/n (f
    irreducible over Q_p, or Eisenstein); for arbitrary monic integral f
    only the unweighted min of the difference valuations is a lower bound.
    """
    n, lhs = _resultant_lhs(f, g, p)
    a = ord_p(f.constant, p)
    rhs = ORD_INFINITY
    for i in range(n):
        di = g.coeffs[i] - f.coeffs[i]
        if di:
            # the x^i difference multiplies a root power of valuation a*i/n
            term = ord_p(di, p) + Fraction(a * i, n)
            if term < rhs:
                rhs = term
    return lhs, rhs


class Certificate(Record):
    # verdict: "certified" | "inconclusive"; congruence_order: int or ORD_INFINITY
    __slots__ = ("verdict", "k", "method_used", "congruence_order", "caller_assertions")

    def __init__(self, verdict: str, k: int, method_used: str, congruence_order,
                 caller_assertions: tuple[str, ...] = ()):
        self._set(verdict, k, method_used, congruence_order, caller_assertions)

    def to_json(self) -> dict:
        cong = self.congruence_order
        return {
            "verdict": self.verdict,
            "k": self.k,
            "method_used": self.method_used,
            "congruence_order": "infinity" if cong == ORD_INFINITY else int(cong),
            "caller_assertions": list(self.caller_assertions),
        }


def certify_same_extension(
    f: IntPoly,
    g: IntPoly,
    p: int,
    evidence_f,
    evidence_g,
    method: str = "prop1",
) -> Certificate:
    """Certificate that f and g generate the same extension of Q_p.

    Certified when both irreducibility evidences validate and g is congruent
    to f mod p^k for the chosen method's k.  Anything less is
    "inconclusive" -- never "different extensions", since the bounds are
    only sufficient.  Pass method="safe" for the conservative radius.
    """
    _pair_degree(f, g)
    flagged = []
    if validate_evidence(f, p, evidence_f, "f"):
        flagged.append("f")
    if validate_evidence(g, p, evidence_g, "g"):
        flagged.append("g")
    k = precision_k(f, p, method)
    cong = _congruence_order(f, g, p)
    verdict = "certified" if cong >= k else "inconclusive"
    return Certificate(verdict, k, method, cong, tuple(flagged))
