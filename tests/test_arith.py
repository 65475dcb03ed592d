import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from padic_serre.arith import (
    ORD_INFINITY,
    cube_root_of_unity,
    frobenius_pairs,
    is_prime,
    ord_p,
    pair_mul,
    quadratic_modulus,
)
from padic_serre.errors import InconsistencyError, SchemaError
from padic_serre.galois_local import LevelDatum, RamFiltration
from padic_serre.polynomial import IntPoly, cycle_types
from padic_serre.weights import DirichletCharacter, p_restrict

from matrix_reference import Fp2Elem, _power, elements, pairs


def _trial_division(n):
    """The old ``is_prime``: trial division by 2 and the odd numbers."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_matches_trial_division_below_200000():
    assert [n for n in range(200_000) if is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    # a Carmichael number, and the least strong pseudoprimes to the first
    # 4 and to the first 9 prime bases
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10**12 + 39, 10**16 + 61])
def test_large_primes_in_under_10_ms(n):
    start = time.perf_counter()
    assert is_prime(n)
    assert time.perf_counter() - start < 0.01


def test_is_prime_refuses_past_its_proven_limit():
    assert is_prime(10**24 + 7)
    assert not is_prime((10**12 + 39) ** 2)
    with pytest.raises(SchemaError, match="3317044064679887385961981"):
        is_prime(10**25 + 13)


@pytest.mark.parametrize("call", [
    lambda: cycle_types(IntPoly((1, 0, 1)), [4]),
    lambda: p_restrict(2, 1, 0, 4),
    lambda: DirichletCharacter(5).sign_at(4),
    lambda: LevelDatum(4, RamFiltration(((2, 1),))),
], ids=["cycle-types", "p-restrict", "sign-at", "level-datum"])
def test_every_layer_refuses_a_non_prime_with_one_message(call):
    """arith._require_prime is the one check behind each of these."""
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == "4 is not prime"


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
    for p in filter(_trial_division, range(2000)):
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
    elems = elements(p)
    assert len(elems) == p * p
    zero, one = Fp2Elem(p, 0, 0), Fp2Elem(p, 1, 0)
    for x in elems:
        assert x + zero == x and x * one == x
        assert _power(x, p * p) == x
        if x:
            assert x * _power(x, p * p - 2) == one
    rng = random.Random(p)
    sample = [rng.choice(elems) for _ in range(60)]
    for x, y, z in zip(sample, sample[20:], sample[40:]):
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_is_automorphism_fixing_prime_field(p):
    # x^p is the definition; p = 2 is the one prime whose modulus has b != 0
    elems = elements(p)
    fixed = 0
    for x in elems:
        assert frobenius_pairs(p, pairs([x])) == pairs([_power(x, p)])
        assert x.frobenius().frobenius() == x
        if x.frobenius() == x:
            fixed += 1
        for y in elems[:6]:
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert fixed == p  # exactly the prime subfield


def test_frobenius_on_f4_generator():
    assert frobenius_pairs(2, [(0, 1)]) == ((1, 1),)  # w^2 = w + 1


def test_cube_root_mod_5():
    assert cube_root_of_unity(5) == (2, 1)
    z = Fp2Elem(5, *cube_root_of_unity(5))
    one = Fp2Elem(5, 1, 0)
    assert z != one and _power(z, 3) == one
    assert z * z + z + 1 == Fp2Elem(5, 0, 0)
    assert _power(z, 5) == z * z  # the conjugate is the square


def test_cube_root_mod_7_lands_in_prime_field():
    z = cube_root_of_unity(7)
    assert z == (2, 0)  # 2^3 = 8 = 1 mod 7
    assert _power(Fp2Elem(7, *z), 3) == Fp2Elem(7, 1, 0)


def test_cube_root_char_3_rejected():
    with pytest.raises(InconsistencyError):
        cube_root_of_unity(3)


def test_cube_root_mod_2():
    z = Fp2Elem(2, *cube_root_of_unity(2))
    assert z * z + z + 1 == Fp2Elem(2, 0, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_arithmetic_matches_coefficient_formulas(p):
    b, c = quadratic_modulus(p)
    coords = [(c0, c1) for c0 in range(p) for c1 in range(p)]
    for x0, x1 in coords:
        x = Fp2Elem(p, x0, x1)
        assert ((-x).c0, (-x).c1) == (-x0 % p, -x1 % p)
        for y0, y1 in coords:
            y = Fp2Elem(p, y0, y1)
            hi = x1 * y1  # w^2 = -b*w - c
            expected = {
                "+": ((x0 + y0) % p, (x1 + y1) % p),
                "-": ((x0 - y0) % p, (x1 - y1) % p),
                "*": ((x0 * y0 - hi * c) % p, (x0 * y1 + x1 * y0 - hi * b) % p),
            }
            got = {"+": x + y, "-": x - y, "*": x * y}
            assert {op: (r.c0, r.c1) for op, r in got.items()} == expected
            # every product of F_4, F_9, F_25 and F_49 against the reference
            assert pair_mul(p, (x0, x1), (y0, y1)) == (got["*"].c0, got["*"].c1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elements_are_interned_and_hash_as_coordinates(p):
    for c0 in range(p):
        for c1 in range(p):
            x = Fp2Elem(p, c0, c1)
            assert Fp2Elem(p, c0 + p, c1 - p) == x
            assert hash(x) == hash((p, c0, c1))
            assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert Fp2Elem(p, 1, 0) != 1 and Fp2Elem(p, 1, 0).__eq__(1) is NotImplemented


def test_elements_are_immutable():
    x = Fp2Elem(5, 2, 3)
    with pytest.raises(AttributeError):
        x.c0 = 1
    with pytest.raises(AttributeError):
        del x.c1
    with pytest.raises(AttributeError):
        x.extra = 0
    assert (x.p, x.c0, x.c1) == (5, 2, 3)


def test_mixed_characteristics_rejected():
    x, y = Fp2Elem(3, 1, 1), Fp2Elem(5, 1, 1)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(ValueError):
            op()


def test_composite_modulus_fails_at_first_multiply():
    x = Fp2Elem(4, 1, 1)
    assert x + x == Fp2Elem(4, 2, 2)
    with pytest.raises(ValueError):
        x * x
    with pytest.raises(ValueError):
        pair_mul(4, (1, 1), (1, 1))


def test_large_prime_multiply_and_frobenius():
    p = 1_000_003
    b, c = quadratic_modulus(p)
    x, y = (123_456, 654_321), (777_777, 3)
    hi = 654_321 * 3
    assert pair_mul(p, x, y) == ((123_456 * 777_777 - hi * c) % p,
                                 (123_456 * 3 + 654_321 * 777_777 - hi * b) % p)
    assert pair_mul(p, x, y) == pairs([Fp2Elem(p, *x) * Fp2Elem(p, *y)])[0]
    assert frobenius_pairs(p, [x]) == pairs([_power(Fp2Elem(p, *x), p)])
