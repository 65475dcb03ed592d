import math
import random
from fractions import Fraction

import pytest

from padic_serre.arith import ord_p
from padic_serre.casefile import load_bundled_case
from padic_serre.errors import InconsistencyError
from padic_serre.galois_local import LevelDatum, RamFiltration, level, level_exponent
from padic_serre.polynomial import discriminant, newton_polygon

from helpers import evaluate

WILD_2 = RamFiltration(((12, 0),) + ((4, 0),) * 5)   # order-12 inertia, Klein breaks to 5
TAME_3CYCLE = RamFiltration(((3, 1),))
TAME_INVOL = RamFiltration(((2, 1),))
TAME_INVOL_TWISTED = RamFiltration(((2, 2),))


def test_level_exponent_worked_values():
    assert level_exponent(WILD_2) == 8
    assert level_exponent(TAME_3CYCLE) == 2
    assert level_exponent(TAME_INVOL) == 2
    assert level_exponent(TAME_INVOL_TWISTED) == 1


def test_level_exponent_rejects_fractional_total():
    filt = RamFiltration(((12, 0), (4, 0), (2, 1)))
    with pytest.raises(InconsistencyError):
        level_exponent(filt)


def test_level_exponent_matches_fraction_reference():
    """The integer sum against the formula term by term in Fractions, on
    seeded filtrations: the value when the total is integral, and the same
    exponent in the error text when it is not."""
    rng = random.Random(35)
    integral = fractional = 0
    for _ in range(400):
        orders = [rng.choice((1, 2, 3, 4, 6, 8, 12, 24, 60))]
        for _ in range(rng.randint(0, 5)):
            orders.append(rng.choice([d for d in range(1, orders[-1] + 1) if orders[-1] % d == 0]))
        fixes = sorted(rng.randint(0, 3) for _ in orders)
        filt = RamFiltration(tuple(zip(orders, fixes)))
        want = sum(Fraction(order, orders[0]) * (3 - fix) for order, fix in filt.entries)
        if want.denominator == 1:
            integral += 1
            assert level_exponent(filt) == want
        else:
            fractional += 1
            with pytest.raises(InconsistencyError) as exc:
                level_exponent(filt)
            assert str(exc.value) == f"inconsistent filtration data: exponent {want}"
    assert integral > 50 and fractional > 50


def test_filtration_invariants_enforced():
    with pytest.raises(InconsistencyError):
        RamFiltration(((4, 0), (3, 0)))  # 3 does not divide 4
    with pytest.raises(InconsistencyError):
        RamFiltration(((4, 2), (4, 1)))  # fixed dims must not drop
    with pytest.raises(InconsistencyError):
        RamFiltration(((4, 0), (8, 0)))  # orders must not grow


def test_level_worked_values():
    exps, n = level([LevelDatum(2, WILD_2)])
    assert exps == {2: 8} and n == 256
    assert level([]) == ({}, 1)


def test_level_twisted_17():
    exps, n = level([LevelDatum(17, TAME_INVOL_TWISTED)], p=5)
    assert exps == {17: 1} and n == 17


def test_level_rejects_duplicates_and_p():
    with pytest.raises(InconsistencyError):
        level([LevelDatum(2, TAME_INVOL), LevelDatum(2, TAME_INVOL)])
    with pytest.raises(InconsistencyError):
        level([LevelDatum(5, TAME_INVOL)], p=5)


def test_level_exponent_monotone_in_fixed_dims():
    rng = random.Random(40)
    for _ in range(200):
        order = rng.choice([2, 3, 4, 6, 12])
        length = rng.randint(1, 5)
        fixed = sorted(rng.randint(0, 3) for _ in range(length))
        filt = RamFiltration(tuple((order, f) for f in fixed))
        base = level_exponent(filt)
        i = rng.randrange(length)
        bumped = [max(f, min(3, fixed[i] + 1)) if j >= i else f
                  for j, f in enumerate(fixed)]
        filt2 = RamFiltration(tuple((order, f) for f in bumped))
        assert level_exponent(filt2) <= base


def test_tame_case_is_dim_loss():
    for fix in range(4):
        assert level_exponent(RamFiltration(((5, fix),))) == 3 - fix


def test_3_7_3_tame_inertia_order_from_the_sextic():
    """The sextic mod 7 has roots 1 and 4 only.  Each shifted polygon has
    one positive slope, with the segment length as its denominator: one
    totally ramified factor with e = 2 at 1 and e = 4 at 4.  The lengths
    cover all six roots and sum(e - 1) = ord_7 disc f leaves no index
    contribution, so inertia at 7 is tame and cyclic of order lcm(e) = 4."""
    case = load_bundled_case("3-7-3")
    f, q = case.sextic, 7
    roots = [a for a in range(q) if evaluate(f, a) % q == 0]
    assert roots == [1, 4]
    es = []
    for a in roots:
        (slope, length), = [seg for seg in newton_polygon(f.shift(a), q).segments if seg[0] > 0]
        assert slope.denominator == length
        es.append(length)
    assert es == [2, 4] and sum(es) == f.degree
    assert sum(e - 1 for e in es) == ord_p(discriminant(f), q)
    (datum,) = [d for d in case.level_data if d.q == q]
    assert datum.filtration.entries == ((math.lcm(*es), 1),)


def test_conductor_discriminant_cross_check():
    # quadratic case, x^2 - 2 at p = 2: groups of order 2 through index 2,
    # so sum (order_i - 1) equals the different's valuation 3, and the level
    # exponent is (character conductor) x (dimension loss), with
    # diag(1, -1, -1) fixing a line
    orders = [2, 2, 2]
    assert sum(o - 1 for o in orders) == 3
    filt_char = RamFiltration(tuple((o, 0) for o in orders), dim=1)
    assert level_exponent(filt_char) == 3
    filt3 = RamFiltration(tuple((o, 1) for o in orders))
    assert level_exponent(filt3) == 3 * 2


def test_break_equation_roundtrip_reproduces_filtration():
    # uniformizer break at 6: the Klein subgroup persists through index 5;
    # grafting the full order-12 inertia on top reproduces the exponent 8
    orders = [4] * 6
    entries = ((12, 0),) + tuple((o, 0) for o in orders[1:])
    rebuilt = RamFiltration(entries)
    assert rebuilt == WILD_2
    assert level_exponent(rebuilt) == 8
