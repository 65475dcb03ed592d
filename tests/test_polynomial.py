import math
import random
from fractions import Fraction

import pytest

from padic_serre.arith import ord_p
from padic_serre.errors import InconsistencyError
from padic_serre.polynomial import (
    IntPoly,
    _interpolate_int,
    cycle_type_mod_ell,
    discriminant,
    newton_polygon,
    resultant,
    root_diff_poly,
)

X3M2 = IntPoly([-2, 0, 0, 1])
G1 = IntPoly([-14, 36, -20, 0, 1])           # x^4 - 20x^2 + 36x - 14
T_5_17 = IntPoly([-13, -11, 5, 0, 0, -2, 1])  # the sextic ramified at 5 and 17


def _random_poly(rng, deg, lo=-9, hi=9, monic=True):
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    coeffs.append(1 if monic else rng.choice([c for c in range(lo, hi + 1) if c]))
    return IntPoly(coeffs)


# -- closed-form discriminant oracles (degree <= 4) -------------------------

def disc2(f):
    c, b, _ = f.coeffs
    return b * b - 4 * c


def disc3(f):
    d, c, b, _ = f.coeffs
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


def disc4(f):
    e, d, c, b, _ = f.coeffs
    a = b  # x^4 + a x^3 + b x^2 + c x + d, renamed
    b_, c_, d_ = c, d, e
    return (256 * d_**3 - 192 * a * c_ * d_**2 - 128 * b_**2 * d_**2
            + 144 * a**2 * b_ * d_**2 - 27 * a**4 * d_**2 + 144 * b_ * c_**2 * d_
            - 6 * a**2 * c_**2 * d_ - 80 * a * b_**2 * c_ * d_ + 18 * a**3 * b_ * c_ * d_
            + 16 * b_**4 * d_ - 4 * a**2 * b_**3 * d_ - 27 * c_**4 + 18 * a * b_ * c_**3
            - 4 * b_**3 * c_**2 - 4 * a**3 * c_**3 + a**2 * b_**2 * c_**2)


def test_resultant_examples():
    assert resultant(IntPoly([1, 0, 1]), IntPoly([-2, 1])) == 5
    rng = random.Random(1)
    for _ in range(30):
        f = _random_poly(rng, rng.randint(1, 4))
        assert resultant(f, f) == 0 or f.degree == 0
    # constant-term shift: every root contributes the shift amount
    r = resultant(X3M2, IntPoly([6, 0, 0, 1]))
    assert abs(r) == 8**3
    assert ord_p(r, 2) == 3 * ord_p(8, 2)


def test_resultant_rejects_zero_inputs():
    with pytest.raises(InconsistencyError):
        resultant(IntPoly([]), IntPoly([]))


def test_resultant_multiplicative():
    rng = random.Random(2)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 3))
        g = _random_poly(rng, rng.randint(1, 3))
        h = _random_poly(rng, rng.randint(1, 3))
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_discriminant_examples():
    assert discriminant(X3M2) == -108
    assert discriminant(IntPoly([8, -6, 1])) == 4
    d = discriminant(G1)
    assert ord_p(d, 2) == 8
    u = d >> 8
    assert u % 2 == 1 and u % 8 == 5
    # the quartic's resolvent cubic shares its discriminant
    assert discriminant(IntPoly([-176, 56, 20, 1])) == d


def test_discriminant_against_closed_forms():
    rng = random.Random(3)
    for _ in range(120):
        f2 = _random_poly(rng, 2)
        assert discriminant(f2) == disc2(f2)
        f3 = _random_poly(rng, 3)
        assert discriminant(f3) == disc3(f3)
        f4 = _random_poly(rng, 4)
        assert discriminant(f4) == disc4(f4)


def test_shift_examples():
    assert IntPoly([3, 0, -14, 4, 1]).shift(-1) == G1
    rng = random.Random(4)
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 5))
        a = rng.randint(-6, 6)
        assert f.shift(0) == f
        assert f.shift(a).shift(-a) == f
        x = rng.randint(-5, 5)
        assert f.shift(a)(x) == f(x + a)


def test_newton_polygon_examples():
    np1 = newton_polygon(X3M2, 2)
    assert np1.segments == ((Fraction(1, 3), 3),) and np1.infinite_mult == 0
    np2 = newton_polygon(G1, 2)
    assert np2.segments == ((Fraction(1, 4), 4),)
    np3 = newton_polygon(IntPoly([8, -6, 1]), 2)
    assert np3.segments == ((Fraction(1), 1), (Fraction(2), 1))
    # trailing zeros become the infinite slope
    np4 = newton_polygon(IntPoly([0, 0, 2, 1]), 2)
    assert np4.infinite_mult == 2 and np4.total_multiplicity() == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_newton_polygon_product_additivity(p):
    rng = random.Random(10 + p)
    for _ in range(80):
        f = _random_poly(rng, rng.randint(1, 4))
        g = _random_poly(rng, rng.randint(1, 4))
        lhs = sorted(newton_polygon(f * g, p).slope_multiset())
        rhs = sorted(newton_polygon(f, p).slope_multiset()
                     + newton_polygon(g, p).slope_multiset())
        assert lhs == rhs


def test_root_diff_poly_quadratic():
    d = root_diff_poly(IntPoly([-2, 0, 1]))
    assert d == IntPoly([-8, 0, 1])
    assert newton_polygon(d, 2).segments == ((Fraction(3, 2), 2),)


def test_root_diff_poly_cubic():
    d = root_diff_poly(X3M2)
    assert d.degree == 6
    assert newton_polygon(d, 2).largest_finite_slope() == Fraction(1, 3)


def test_root_diff_poly_structure():
    rng = random.Random(5)
    for _ in range(25):
        f = _random_poly(rng, rng.randint(2, 4))
        if discriminant(f) == 0:
            continue
        n = f.degree
        d = root_diff_poly(f)
        assert d.degree == n * (n - 1)
        # differences come in +- pairs, so odd coefficients vanish
        assert all(c == 0 for c in d.coeffs[1::2])
        assert abs(d.constant) == abs(discriminant(f))


def test_root_diff_poly_requires_squarefree():
    # (x+1)^2, and (x-1)^2 (x+2), whose constant term is nonzero
    for f in (IntPoly([1, 2, 1]), IntPoly([2, -3, 0, 1])):
        with pytest.raises(InconsistencyError, match="polynomial is not squarefree"):
            root_diff_poly(f)


# -- integer interpolation against the Fraction reference -------------------

def _fraction_interpolate(points):
    """Reference: exact interpolation through integer points by Newton's
    divided differences over Fraction; asserts integer coefficients."""
    xs = [Fraction(x) for x, _ in points]
    coefs = [Fraction(y) for _, y in points]
    k = len(points)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form by Horner: acc <- acc*(x - x_i) + c_i
    out = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        new = [Fraction(0)] * k
        for d in range(k - 1):
            new[d + 1] += out[d]
            new[d] -= xs[i] * out[d]
        new[0] += coefs[i]
        out = new
    ints = []
    for c in out:
        if c.denominator != 1:
            raise AssertionError("interpolation produced a non-integer coefficient")
        ints.append(c.numerator)
    return ints


def _reference_root_diff_poly(f):
    """root_diff_poly's resultants, interpolated by the reference."""
    n = f.degree
    full = _fraction_interpolate([(t, resultant(f, f.shift(t))) for t in range(n * n + 1)])
    assert not any(full[:n]) and full[n] != 0
    return IntPoly(full[n:])


def test_interpolation_matches_fraction_reference():
    rng = random.Random(21)
    for deg in range(0, 65, 4):
        coeffs = [rng.randint(-10**40, 10**40) for _ in range(deg)] + [rng.randint(1, 10**40)]
        ys = [IntPoly(coeffs)(t) for t in range(deg + 1)]
        assert _interpolate_int(ys) == coeffs
        assert _fraction_interpolate(list(enumerate(ys))) == coeffs


def test_interpolation_rejects_non_integer_coefficients():
    ys = [t * (t - 1) // 2 for t in range(4)]  # x(x-1)/2, integer-valued only
    with pytest.raises(AssertionError, match="non-integer"):
        _interpolate_int(ys)
    with pytest.raises(AssertionError, match="non-integer"):
        _fraction_interpolate(list(enumerate(ys)))


def _eisenstein(rng, n, p):
    coeffs = [p * rng.randint(-4, 4) for _ in range(n)] + [1]
    coeffs[0] = p * rng.choice([u for u in range(-4, 5) if u % p])
    return IntPoly(coeffs)


def test_root_diff_poly_matches_fraction_reference():
    rng = random.Random(21)
    polys = [_eisenstein(rng, 6, p) for p in (2, 3, 5) for _ in range(2)]
    polys += [_random_poly(rng, n) for n in range(2, 8) for _ in range(2)]
    checked = 0
    for f in polys:
        if discriminant(f) == 0:
            continue
        assert root_diff_poly(f) == _reference_root_diff_poly(f)
        checked += 1
    assert checked >= 15


def test_cycle_type_examples():
    assert cycle_type_mod_ell(T_5_17, 2) == (5, 1)
    assert cycle_type_mod_ell(IntPoly([1, 0, 1]), 5) == (1, 1)
    assert cycle_type_mod_ell(IntPoly([1, 0, 1]), 3) == (2,)


def test_cycle_type_rejects_ramified():
    with pytest.raises(InconsistencyError):
        cycle_type_mod_ell(X3M2, 2)  # disc = -108 is even


def _frobenius_order(T, ell, bound=40):
    # independent small powmod: least m with x^(ell^m) = x mod T
    mod = [c % ell for c in T.coeffs]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % ell
        while len(out) >= len(mod):
            k = len(out) - len(mod)
            t = out[-1]
            for idx, c in enumerate(mod):
                out[idx + k] = (out[idx + k] - t * c) % ell
            while out and out[-1] == 0:
                out.pop()
        return out

    x = [0, 1]
    h = x[:]
    for m in range(1, bound):
        acc = [1]
        base = h[:]
        e = ell
        while e:
            if e & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            e >>= 1
        h = acc
        if h == x:
            return m
    raise AssertionError("order not found")


def test_cycle_type_lcm_matches_frobenius_order():
    rng = random.Random(7)
    cases = 0
    while cases < 25:
        f = _random_poly(rng, rng.randint(2, 5))
        ell = rng.choice([3, 5, 7, 11])
        if discriminant(f) % ell == 0 or f.leading % ell == 0:
            continue
        parts = cycle_type_mod_ell(f, ell)
        assert sum(parts) == f.degree
        assert _frobenius_order(f, ell) == math.lcm(*parts)
        cases += 1


def test_json_round_trip():
    assert IntPoly.from_json(T_5_17.to_json()) == T_5_17
    assert T_5_17.to_json()[0] == "-13"
