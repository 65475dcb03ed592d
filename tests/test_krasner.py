import random
from fractions import Fraction

import pytest

from padic_serre.arith import ORD_INFINITY, ord_p
from padic_serre.errors import EvidenceError, InconsistencyError, SchemaError
from padic_serre.krasner import (
    certify_same_extension,
    is_eisenstein,
    lambda_exact,
    lambda_upper_bound,
    precision_k,
    precision_report,
    resultant_margin,
    validate_evidence,
    weighted_resultant_margin,
)
from padic_serre.polynomial import IntPoly, discriminant, newton_polygon

X3M2 = IntPoly([-2, 0, 0, 1])
X2M2 = IntPoly([-2, 0, 1])
EIS = ("eisenstein-after-shift", 0)


def _random_eisenstein(rng, p, deg):
    coeffs = [p * rng.randint(-6, 6) for _ in range(deg)]
    coeffs[0] = p * rng.choice([u for u in range(-6, 7) if u % p])
    coeffs.append(1)
    return IntPoly(coeffs)


def test_lambda_examples():
    assert lambda_exact(X3M2, 2) == Fraction(1, 3)
    assert lambda_exact(X2M2, 2) == Fraction(3, 2)


def test_lambda_bound_examples():
    assert lambda_upper_bound(X3M2, 2) == Fraction(1, 3)
    assert lambda_upper_bound(X2M2, 2) == Fraction(3, 2)  # tight: d=3, a=1, n=2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lambda_bounded_on_random_eisenstein(p):
    rng = random.Random(20 + p)
    for _ in range(60):
        f = _random_eisenstein(rng, p, rng.randint(2, 4))
        if discriminant(f) == 0:
            continue
        assert lambda_exact(f, p) <= lambda_upper_bound(f, p)


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
