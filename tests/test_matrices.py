"""The group primitives against naive references: Dimino's closure against a
breadth-first closure, ``element_orders`` against counting powers, and a
deterministic budget of 3x3 products for the whole group build."""

import random

import pytest

from padic_serre import matrices, matrix_oracle
from padic_serre.arith import Fp2Elem
from padic_serre.matrices import closure, element_orders, identity, mat_mul
from padic_serre.matrix_oracle import classified_cover, triple_cover_group
from padic_serre.rep3a6 import a6_mod3_class_polys, sl2_generators, sym_square

W9 = Fp2Elem(3, 0, 1)
RANDOM_SETS = [f"cover-{size}-{i}" for size in (2, 3) for i in range(4)]


def _bfs_closure(generators):
    """All products of the generators, breadth first by word length."""
    gens = list(generators)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _brute_order(a):
    e = identity(a[0][0].p, len(a))
    x, n = a, 1
    while x != e:
        x, n = mat_mul(x, a), n + 1
    return n


def _generator_sets():
    cover = triple_cover_group()
    rng = random.Random(20041018)
    sl2_f5 = sl2_generators(5, (1,))
    sets = {
        "SL2(F5)": sl2_f5,
        "SL2(F9)": sl2_generators(3, (1, W9)),
        "cyclic": [next(m for m in cover if _brute_order(m) == 15)],
        "redundant": sl2_f5 + [mat_mul(sl2_f5[0], sl2_f5[1]), sl2_f5[0]],
    }
    for name in RANDOM_SETS:
        sets[name] = rng.sample(cover, int(name.split("-")[1]))
    return sets


@pytest.mark.parametrize("name", ["SL2(F5)", "SL2(F9)", "cyclic", "redundant"] + RANDOM_SETS)
def test_closure_matches_breadth_first(name):
    gens = _generator_sets()[name]
    assert closure(gens) == _bfs_closure(gens)


def test_closure_group_sizes():
    sets = _generator_sets()
    assert len(closure(sets["SL2(F5)"])) == 120
    assert len(closure(sets["SL2(F9)"])) == 720
    assert len(closure(sets["cyclic"])) == 15
    assert len(closure(sets["redundant"])) == 120
    # the random subsets reach proper subgroups as well as the whole cover
    assert {len(closure(sets[name])) for name in RANDOM_SETS} == {60, 72, 180, 1080}


def test_closure_raises_past_cap():
    gens = sl2_generators(5, (1,))
    assert len(closure(gens, cap=120)) == 120
    with pytest.raises(ValueError):
        closure(gens, cap=119)
    with pytest.raises(ValueError):
        closure(triple_cover_group()[:40], cap=1079)


@pytest.mark.parametrize(
    "group",
    [
        lambda: closure([sym_square(g) for g in sl2_generators(5, (1,))]),
        lambda: closure([sym_square(g) for g in sl2_generators(3, (1, W9))]),
        triple_cover_group,
    ],
    ids=["H", "mod3-image", "cover"],
)
def test_element_orders_match_power_counting(group):
    elements = list(group())
    orders = element_orders(elements)
    assert set(orders) == set(elements)
    for m in elements:
        assert orders[m] == _brute_order(m)


def test_group_build_product_budget(monkeypatch):
    """The cover, its classification and the mod-3 tables, rebuilt from
    scratch, in at most 6,000 3x3 products (16,473 with a breadth-first
    closure and an order walk per element)."""
    classified_cover()  # the classification below reads the cached cover
    calls = []

    def counted(a, b):
        calls.append(None)
        return mat_mul(a, b)

    monkeypatch.setattr(matrices, "mat_mul", counted)
    monkeypatch.setattr(matrix_oracle, "mat_mul", counted)
    assert len(triple_cover_group.__wrapped__()) == 1080
    assert len(classified_cover.__wrapped__()) == 13
    a6_mod3_class_polys.__wrapped__()
    assert 0 < len(calls) <= 6000
