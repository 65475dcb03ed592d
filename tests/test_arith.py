import random
from fractions import Fraction

import pytest

from padic_serre.arith import (
    ORD_INFINITY,
    Fp2Elem,
    cube_root_of_unity,
    fp2_make,
    frobenius_conjugate,
    ord_p,
    quadratic_modulus,
)
from padic_serre.errors import InconsistencyError


def test_ord_examples():
    assert ord_p(-108, 2) == 2
    assert ord_p(1, 5) == 0
    assert ord_p(Fraction(18, 5), 3) == 2
    assert ord_p(0, 7) == ORD_INFINITY


def test_ord_infinity_orders_above_everything():
    assert ORD_INFINITY > Fraction(10**12)
    assert ORD_INFINITY > 10**100


def test_ord_rejects_composite_modulus():
    with pytest.raises(ValueError):
        ord_p(12, 6)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ord_multiplicative_and_ultrametric(p):
    rng = random.Random(p)
    for _ in range(300):
        x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 60))
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)
        if x + y != 0:
            lo = min(ord_p(x, p), ord_p(y, p))
            assert ord_p(x + y, p) >= lo
            if ord_p(x, p) != ord_p(y, p):
                assert ord_p(x + y, p) == lo


def test_modulus_is_first_irreducible():
    # independent enumeration of the deterministic modulus choice
    for p in (2, 3, 5, 7, 11):
        found = None
        for b in range(p):
            for c in range(p):
                if all((x * x + b * x + c) % p for x in range(p)):
                    found = (b, c)
                    break
            if found:
                break
        assert quadratic_modulus(p) == found
    assert quadratic_modulus(2) == (1, 1)  # w^2 + w + 1


def test_modulus_has_no_root_mod_3():
    b, c = quadratic_modulus(3)
    assert all((x * x + b * x + c) % 3 for x in range(3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    model = fp2_make(p)
    elems = list(model.elements())
    assert len(elems) == p * p
    zero, one = model.zero(), model.one()
    for x in elems:
        assert x + zero == x and x * one == x
        assert x ** (p * p) == x
        if x:
            assert x * x.inverse() == one
    rng = random.Random(p)
    sample = [rng.choice(elems) for _ in range(60)]
    for x, y, z in zip(sample, sample[20:], sample[40:]):
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_is_automorphism_fixing_prime_field(p):
    model = fp2_make(p)
    elems = list(model.elements())
    fixed = 0
    for x in elems:
        assert frobenius_conjugate(frobenius_conjugate(x)) == x
        if frobenius_conjugate(x) == x:
            fixed += 1
        for y in elems[:6]:
            assert frobenius_conjugate(x + y) == frobenius_conjugate(x) + frobenius_conjugate(y)
            assert frobenius_conjugate(x * y) == frobenius_conjugate(x) * frobenius_conjugate(y)
    assert fixed == p  # exactly the prime subfield


def test_frobenius_on_f4_generator():
    w = Fp2Elem(2, 0, 1)
    assert frobenius_conjugate(w) == Fp2Elem(2, 1, 1)  # w^2 = w + 1


def test_cube_root_mod_5():
    z = cube_root_of_unity(5)
    assert isinstance(z, Fp2Elem)
    one = Fp2Elem(5, 1, 0)
    assert z != one and z**3 == one
    assert z * z + z + 1 == Fp2Elem(5, 0, 0)
    assert z**5 == z * z  # the conjugate is the square


def test_cube_root_mod_7_lands_in_prime_field():
    z = cube_root_of_unity(7)
    assert z.in_prime_field()
    assert z == Fp2Elem(7, 2, 0)  # 2^3 = 8 = 1 mod 7
    assert z**3 == Fp2Elem(7, 1, 0)


def test_cube_root_char_3_rejected():
    with pytest.raises(InconsistencyError):
        cube_root_of_unity(3)


def test_cube_root_mod_2():
    z = cube_root_of_unity(2)
    assert z * z + z + 1 == Fp2Elem(2, 0, 0)
