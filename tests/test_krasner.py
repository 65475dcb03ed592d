import random
from fractions import Fraction
from math import comb

import pytest

from padic_serre import krasner, polynomial
from padic_serre.arith import ORD_INFINITY, ord_p
from padic_serre.errors import EvidenceError, InconsistencyError, SchemaError
from padic_serre.krasner import (
    Certificate,
    certify_same_extension,
    is_eisenstein,
    precision_k,
    precision_report,
    resultant_margin,
    validate_evidence,
    weighted_resultant_margin,
)
from padic_serre.polynomial import IntPoly, discriminant, newton_polygon, root_diff_poly

from helpers import evaluate

X3M2 = IntPoly([-2, 0, 0, 1])
X2M2 = IntPoly([-2, 0, 1])
T_5_17 = IntPoly([-13, -11, 5, 0, 0, -2, 1])  # the sextic ramified at 5 and 17
E6 = IntPoly([6, 12, 0, -18, 3, 0, 1])        # Eisenstein at 3
EIS = ("eisenstein-after-shift", 0)


def _random_eisenstein(rng, p, deg):
    coeffs = [p * rng.randint(-6, 6) for _ in range(deg)]
    coeffs[0] = p * rng.choice([u for u in range(-6, 7) if u % p])
    coeffs.append(1)
    return IntPoly(coeffs)


def _lambda_bound(rep):
    """(d - (n-2)a)/n from a precision report, valid for monic irreducible f."""
    return Fraction(rep.d - (rep.n - 2) * rep.a, rep.n)


def test_lambda_examples():
    assert precision_report(X3M2, 2, "prop1").lam == Fraction(1, 3)
    assert precision_report(X2M2, 2, "prop1").lam == Fraction(3, 2)


def test_lambda_bound_examples():
    assert _lambda_bound(precision_report(X3M2, 2, "prop1")) == Fraction(1, 3)
    # tight: d=3, a=1, n=2
    assert _lambda_bound(precision_report(X2M2, 2, "prop1")) == Fraction(3, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lambda_bounded_on_random_eisenstein(p):
    rng = random.Random(20 + p)
    for _ in range(60):
        f = _random_eisenstein(rng, p, rng.randint(2, 4))
        if discriminant(f) == 0:
            continue
        rep = precision_report(f, p, "prop1")
        assert rep.lam <= _lambda_bound(rep)


def test_precision_examples():
    assert precision_k(X3M2, 2, "prop1bis") == 1
    assert precision_k(X3M2, 2, "prop1") == 1
    assert precision_k(X2M2, 2, "prop1bis") == 3  # bound 5/2
    # bound exactly an integer: strict inequality pushes k one further
    f = IntPoly([-4, 0, 1])  # d = 4, a = 2: bound (2*4 - 2)/2 = 3
    assert precision_k(f, 2, "prop1bis") == 4


def test_precision_requires_monic():
    with pytest.raises(InconsistencyError):
        precision_k(IntPoly([-2, 0, 2]), 2)


def test_precision_report_fields():
    rep = precision_report(X3M2, 2, "prop1")
    assert (rep.n, rep.d, rep.a) == (3, 2, 1)
    assert rep.lam == Fraction(1, 3)
    assert rep.k_prop1 == 1 and rep.k_prop1bis == 1
    assert rep.bound_prop1 == Fraction(2, 3) and rep.bound_prop1bis == Fraction(2, 3)
    js = precision_report(X3M2, 2, "prop1bis").to_json()
    assert js["lambda"] == "not computed" and js["k_prop1"] == "unavailable"
    assert js["bound_prop1bis"] == "2/3"


def test_sharp_method_never_exceeds_discriminant_method():
    rng = random.Random(21)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        f = _random_eisenstein(rng, p, rng.randint(2, 4))
        if discriminant(f) == 0:
            continue
        assert precision_k(f, p, "prop1") <= precision_k(f, p, "prop1bis")


def test_margin_shared_root_is_infinite():
    lhs, rhs = resultant_margin(X3M2, X3M2, 2)
    assert lhs == ORD_INFINITY and rhs == ORD_INFINITY


def test_margin_printed_form_fails_at_constant_term():
    # documented limitation of the reported inequality: when the only
    # coefficient difference is the constant term, the a/n term cannot be
    # absorbed (see the weighted variant for the valid bound)
    lhs, rhs = resultant_margin(IntPoly([2, 0, 1]), IntPoly([4, 0, 1]), 2)
    assert lhs == 1 and rhs == Fraction(3, 2)
    assert lhs < rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_weighted_margin_holds_for_eisenstein_base(p):
    rng = random.Random(30 + p)
    for _ in range(500):
        deg = rng.randint(1, 4)
        f = _random_eisenstein(rng, p, deg)
        g = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        lhs, rhs = weighted_resultant_margin(f, g, p)
        assert lhs >= rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unweighted_margin_holds_for_random_pairs(p):
    # with integral roots the only uniform bound drops the a/n weights
    rng = random.Random(33 + p)
    for _ in range(500):
        deg = rng.randint(1, 4)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        g = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if f.constant == 0:
            continue
        lhs, _ = resultant_margin(f, g, p)
        diffs = [g.coeffs[i] - f.coeffs[i] for i in range(deg)]
        floor = min((ord_p(d, p) for d in diffs), default=ORD_INFINITY)
        assert lhs >= floor


def test_evidence_validation():
    assert is_eisenstein(X3M2, 2)
    assert not is_eisenstein(IntPoly([0, 0, 0, 1]), 2)
    # a shifted Eisenstein claim that holds
    validate_evidence(IntPoly([3, 0, -14, 4, 1]), 2, ("eisenstein-after-shift", -1), "f")
    # irreducibility mod q
    validate_evidence(IntPoly([1, 1, 1]), 2, ("irreducible-mod-q", 2), "f")
    with pytest.raises(EvidenceError):
        validate_evidence(IntPoly([1, 0, 1]), 2, ("irreducible-mod-q", 5), "f")
    # single-slope polygon with denominator = degree
    validate_evidence(X3M2, 2, ("single-slope",), "f")
    with pytest.raises(EvidenceError):
        validate_evidence(IntPoly([8, -6, 1]), 2, ("single-slope",), "f")
    assert validate_evidence(X3M2, 2, ("caller-assertion",), "f") is True


@pytest.mark.parametrize("evidence", [("irreducible-mod-q", 7.5), ("irreducible-mod-q", True),
                                      ("eisenstein-after-shift", "0.0"),
                                      ("eisenstein-after-shift",),
                                      ("irreducible-mod-q", 7, 11), ("single-slope", 3),
                                      ("bogus",), "single-slope", None])
def test_evidence_argument_must_be_an_integer(evidence):
    with pytest.raises(SchemaError):
        validate_evidence(X3M2, 2, evidence, "f")


def test_evidence_argument_may_be_a_decimal_string():
    # x^3 - 2 is irreducible mod 7 and Eisenstein at 2
    assert validate_evidence(X3M2, 2, ("irreducible-mod-q", "7"), "f") is False
    assert validate_evidence(X3M2, 2, ("eisenstein-after-shift", "0"), "f") is False


def test_certify_displayed_pair():
    cert = certify_same_extension(X3M2, IntPoly([-2, 2, 0, 1]), 2, EIS, EIS)
    assert cert.verdict == "certified"
    assert cert.k == 1 and cert.congruence_order == 1


def test_certify_rejects_reducible_congruent_polynomial():
    g = IntPoly([0, 0, 0, 1])  # x^3: congruent to f mod 2 but fails every evidence
    for ev in (EIS, ("single-slope",), ("irreducible-mod-q", 3)):
        with pytest.raises(EvidenceError) as err:
            certify_same_extension(X3M2, g, 2, EIS, ev)
        assert err.value.which == "g"


def test_certify_under_precision_is_inconclusive():
    # x^2 - 2 needs k = 3 under the discriminant method; x^2 + 2 only agrees mod 4
    cert = certify_same_extension(X2M2, IntPoly([2, 0, 1]), 2, EIS, EIS, method="prop1bis")
    assert cert.verdict == "inconclusive"
    assert cert.congruence_order == 2 and cert.k == 3


def test_certify_trivial_pair_certified():
    cert = certify_same_extension(X3M2, X3M2, 2, EIS, EIS)
    assert cert.verdict == "certified"
    assert cert.congruence_order == ORD_INFINITY


def test_certify_flags_caller_assertions():
    cert = certify_same_extension(X3M2, X3M2, 2, ("caller-assertion",), EIS)
    assert cert.caller_assertions == ("f",)


def test_certify_safe_method_is_more_demanding():
    rng = random.Random(22)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        f = _random_eisenstein(rng, p, rng.randint(2, 4))
        if discriminant(f) == 0:
            continue
        assert precision_k(f, p, "safe") >= precision_k(f, p, "prop1")


def test_krasner_soundness_smoke():
    # congruent-to-Eisenstein perturbations keep the one-slope polygon
    rng = random.Random(23)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        f = _random_eisenstein(rng, p, n)
        if discriminant(f) == 0:
            continue
        k = precision_k(f, p, "prop1bis")
        h = [rng.randint(-4, 4) for _ in range(n)]
        g = f + IntPoly([c * p**k for c in h])
        if not is_eisenstein(g, p):
            continue  # g would fail the certify evidence check anyway
        for poly in (f, g):
            np = newton_polygon(poly, p)
            assert np.segments == ((Fraction(1, n), n),)


# (f, p, (n, d, a, lambda, k_prop1, k_prop1bis, k_safe)), as computed with
# d = ord_p(disc f) from the discriminant itself
PINNED_INVARIANTS = [
    (X3M2, 2, (3, 2, 1, Fraction(1, 3), 1, 1, 2)),
    (X2M2, 2, (2, 3, 1, Fraction(3, 2), 3, 3, 4)),
    (T_5_17, 5, (6, 8, 0, Fraction(2, 5), 2, 3, 2)),
    (T_5_17, 17, (6, 2, 0, Fraction(1, 2), 1, 1, 1)),
    (E6, 3, (6, 6, 1, Fraction(1, 4), 2, 2, 2)),
]


def test_root_data_path_computes_no_discriminant(monkeypatch):
    # with lambda, d is read off the root-difference polynomial
    def refuse(f):
        raise AssertionError("discriminant called")

    monkeypatch.setattr(polynomial, "discriminant", refuse)
    monkeypatch.setattr(krasner, "discriminant", refuse)
    for f, p, (n, d, a, lam, k1, k_bis, k_safe) in PINNED_INVARIANTS:
        for method in ("prop1", "safe"):
            rep = precision_report(f, p, method)
            assert (rep.n, rep.d, rep.a, rep.lam) == (n, d, a, lam)
            assert (rep.k_prop1, rep.k_prop1bis) == (k1, k_bis)
        assert rep.k_safe == k_safe
    cert = certify_same_extension(X3M2, IntPoly([-2, 2, 0, 1]), 2, EIS, EIS)
    assert cert == Certificate("certified", 1, "prop1", 1)
    cert = certify_same_extension(E6, E6 + IntPoly([54]), 3, EIS, ("caller-assertion",))
    assert cert == Certificate("certified", 2, "prop1", 3, ("g",))


def test_translation_keeps_root_differences():
    # f(x+c) has the roots of f moved by -c: the same differences, so the
    # same root-difference polynomial, d and lambda; only a may change
    rng = random.Random(24)
    checked = 0
    for _ in range(30):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1])
        if f.constant == 0 or discriminant(f) == 0:
            continue
        p = rng.choice([2, 3, 5])
        rep = precision_report(f, p, "prop1")
        diffs = root_diff_poly(f)
        for c in rng.sample(range(-5, 6), 2):
            if evaluate(f, c) == 0:
                continue
            g = f.shift(c)
            assert root_diff_poly(g) == diffs
            shifted = precision_report(g, p, "prop1")
            assert (shifted.d, shifted.lam) == (rep.d, rep.lam)
            checked += 1
    assert checked >= 30


def test_safe_certificate_implies_prop1_certificate():
    rng = random.Random(25)
    certified = 0
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        f = _random_eisenstein(rng, p, n)
        if discriminant(f) == 0:
            continue
        g = f + IntPoly([c * p ** rng.randint(1, 5) for c in
                         (rng.randint(-4, 4) for _ in range(n))])
        if not is_eisenstein(g, p):
            continue
        if certify_same_extension(f, g, p, EIS, EIS, "safe").verdict == "certified":
            assert certify_same_extension(f, g, p, EIS, EIS, "prop1").verdict == "certified"
            certified += 1
    assert certified >= 10


# An independent oracle for lambda and d (Greve and Pauli, "Ramification
# polygons, splitting fields, and Galois groups of Eisenstein polynomials",
# Int. J. Number Theory 8 (2012); Ore, Math. Ann. 99 (1928)).  For an
# Eisenstein g of degree n with a root alpha (v(alpha) = 1/n), every
# valuation below is a min over terms with distinct fractional parts, so
# each is exact, and none goes through the root-difference polynomial.


def _ramification_polygon_lambda(g, p):
    """1/n plus the largest root valuation of rho(x) = g(alpha x + alpha)/(alpha^n x),
    whose roots are (alpha' - alpha)/alpha over the other roots alpha'.  The
    x^(i-1) coefficient of rho has valuation min over j >= i of
    v(C(j, i) g_j) + (j - n)/n."""
    n = g.degree
    v = [min(ord_p(comb(j, i) * g.coeffs[j], p) + Fraction(j - n, n)
             for j in range(i, n + 1) if g.coeffs[j])
         for i in range(1, n + 1)]
    # the first segment of the lower hull from (0, v_0) has the steepest slope
    return Fraction(1, n) + max((v[0] - v[k]) / k for k in range(1, n))


def _ore_discriminant_valuation(g, p):
    """d = n v(g'(alpha)), with v(g'(alpha)) = min over j of v(j g_j) + (j - 1)/n."""
    n = g.degree
    return n * min(ord_p(j * g.coeffs[j], p) + Fraction(j - 1, n)
                   for j in range(1, n + 1) if g.coeffs[j])


def test_lambda_and_d_match_the_ramification_polygon_and_ore():
    rng = random.Random(26)
    wild = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choices(range(2, 9), weights=(30, 25, 20, 12, 7, 4, 2))[0]
        coeffs = [p * rng.randint(-9, 9) * p ** rng.choice((0, 0, 1, 2)) for _ in range(n)]
        coeffs[0] = p * rng.choice([u for u in range(-9, 10) if u % p])
        g = IntPoly(coeffs + [1])
        s = rng.randint(-5, 5)
        f = g.shift(-s)  # evidence ("eisenstein-after-shift", s)
        assert is_eisenstein(f.shift(s), p)
        rep = precision_report(f, p, "prop1")
        want = (_ore_discriminant_valuation(g, p), _ramification_polygon_lambda(g, p))
        assert (rep.d, rep.lam) == want, (f, p)
        assert precision_report(f, p).d == want[0], (f, p)  # d by the discriminant
        wild += n % p == 0
    assert wild >= 60
