import math
import random

import pytest

from padic_serre.arith import ord_p
from padic_serre.casefile import load_bundled_case
from padic_serre.errors import InconsistencyError
from padic_serre.galois_local import (
    FIXED_DIM_TABLE,
    LevelDatum,
    RamFiltration,
    filtration_from_distances,
    level,
    level_exponent,
    lifting_obstruction_vanishes,
    solve_break_equation,
)
from padic_serre.polynomial import discriminant, newton_polygon

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
    roots = [a for a in range(q) if f(a) % q == 0]
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


def test_fixed_dim_table_values():
    assert FIXED_DIM_TABLE["V4-diagonal"] == 0
    assert FIXED_DIM_TABLE["order-3-permutation"] == 1
    assert FIXED_DIM_TABLE["diag(1,-1,-1)"] == 1
    assert FIXED_DIM_TABLE["diag(-1,1,1)"] == 2


def test_filtration_from_distances_tame_cubic():
    assert filtration_from_distances([1, 1], e=3, n=3) == [3]


def test_filtration_from_distances_quadratic():
    # x^2 - 2 at p = 2: ord_L(s(a) - a) = 3 for the nontrivial automorphism
    assert filtration_from_distances([3], e=2, n=2) == [2, 2, 2]


def test_filtration_from_distances_klein_break():
    # uniformizer displacements 6 inside the Klein subextension: groups of
    # order 4 through index 5, trivial at 6
    assert filtration_from_distances([6, 6, 6], e=4, n=4) == [4] * 6


def test_filtration_from_distances_errors():
    with pytest.raises(InconsistencyError):
        filtration_from_distances([1], e=3, n=3)
    with pytest.raises(InconsistencyError):
        filtration_from_distances([1, 1], e=2, n=3)


def test_conductor_discriminant_cross_check():
    # quadratic case: sum (order_i - 1) equals the different's valuation 3,
    # and the level exponent is (character conductor) x (dimension loss)
    orders = filtration_from_distances([3], e=2, n=2)
    assert sum(o - 1 for o in orders) == 3
    filt_char = RamFiltration(tuple((o, 0) for o in orders), dim=1)
    assert level_exponent(filt_char) == 3
    filt3 = RamFiltration(tuple((o, FIXED_DIM_TABLE["diag(1,-1,-1)"]) for o in orders))
    assert level_exponent(filt3) == 3 * 2


def test_solve_break_equation_worked_value():
    assert solve_break_equation(24, 3, 2, 6, 8, 12) == 6


def test_solve_break_equation_degenerate():
    for d in (1, 5, 9):
        assert solve_break_equation(1, 1, 0, 1, d, 1) == d


def test_solve_break_equation_non_integral():
    with pytest.raises(InconsistencyError):
        solve_break_equation(24, 3, 2, 6, 8, 11)


def test_break_equation_roundtrip_reproduces_filtration():
    # uniformizer break at 6 -> Klein subgroup persists through index 5;
    # grafting the full order-12 inertia on top reproduces the exponent 8
    nu = solve_break_equation(24, 3, 2, 6, 8, 12)
    orders = filtration_from_distances([nu] * 3, e=4, n=4)
    assert orders == [4] * 6
    entries = ((12, 0),) + tuple((o, 0) for o in orders[1:])
    rebuilt = RamFiltration(entries)
    assert rebuilt == WILD_2
    assert level_exponent(rebuilt) == 8


def test_lifting_criterion():
    assert lifting_obstruction_vanishes([10, 4]) is True
    assert lifting_obstruction_vanishes([9]) is False
    assert lifting_obstruction_vanishes([]) is True
    assert lifting_obstruction_vanishes([3, 6, 27]) is False
