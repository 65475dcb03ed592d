"""The group layer against naive references: the 3x3 code kernel
``_product`` against the entrywise ``Fp2Elem`` loop, Dimino's walk against a
breadth-first closure, the order walk against counting powers, the walks and
the sorted builder ``_group`` against the same walks on ``Fp2Elem``
matrices, ``charpoly`` against det(1 - a*t) of the reference matrix, and an
exact count of 3x3 products for the whole group build.  The groups are Sym^2
images in SL_3 of SL_2 over F_25, F_9 and F_49, and subgroups of the cover."""

import random
import time

import pytest

from padic_serre import matrices, matrix_oracle
from padic_serre.matrices import (_classes, _dimino, _group, _orders, _product, _tables, charpoly,
                                  sym_square)
from padic_serre.matrix_oracle import EXTRA_INVOLUTION, _cover_codes, classified_cover
from padic_serre.rep3a6 import a6_mod3_class_polys, sl2_generators

from matrix_reference import (Fp2Elem, _loop_mul, _mat_key, _matrix_classes, _matrix_closure,
                              _matrix_orders, charpoly3_reversed, decode, encode, identity, lift,
                              mat, pairs)

W9 = 3  # the code of w in F_9
RANDOM_SETS = [f"cover-{size}-{i}" for size in (2, 3) for i in range(4)]


def _encoded(ms):
    """Reference matrices over one F_{p^2} as code tuples, and p."""
    return [encode(m) for m in ms], ms[0][0][0].p


def _codes(ms):
    return {encode(m) for m in ms}


def _bfs_closure(generators):
    """All products of the generators, breadth first by word length."""
    gens = list(generators)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _loop_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _brute_order(a):
    e = identity(a[0][0].p, len(a))
    x, n = a, 1
    while x != e:
        x, n = _loop_mul(x, a), n + 1
    return n


def _sym2_generators(p, entries):
    """The Sym^2 images in SL_3 of the transvection generators of SL_2."""
    return [decode(sym_square(g, p), p) for g in sl2_generators(entries)]


def _generator_sets():
    cover = [decode(a, 5) for a in _cover_codes()]
    rng = random.Random(20041018)
    sym2_f5 = _sym2_generators(5, (1,))
    sets = {
        "SL2(F5)": sym2_f5,
        "SL2(F9)": _sym2_generators(3, (1, W9)),
        "cyclic": [next(m for m in cover if _brute_order(m) == 15)],
        "redundant": sym2_f5 + [_loop_mul(sym2_f5[0], sym2_f5[1]), sym2_f5[0]],
    }
    for name in RANDOM_SETS:
        sets[name] = rng.sample(cover, int(name.split("-")[1]))
    return sets


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [3])
def test_mat_mul_matches_the_entrywise_loop(p, n):
    rng = random.Random(f"mat_mul/{p}/{n}")

    def random_matrix():
        return tuple(tuple(Fp2Elem(p, rng.randrange(p), rng.randrange(p)) for _ in range(n))
                     for _ in range(n))

    for _ in range(200):
        a, b = random_matrix(), random_matrix()
        (x, y), _ = _encoded([a, b])
        assert decode(_product(x, y, *_tables(p)[:2]), p) == _loop_mul(a, b)


def test_sl2_f7_closure_and_orders():
    """A third field, F_49, whose tables are built here: the Sym^2 image of
    SL_2(F_7), where the central sign dies, has 168 elements."""
    gens = _sym2_generators(7, (1,))
    group = _group(*_encoded(gens), 168)
    assert set(group) == _codes(_bfs_closure(gens))
    orders = _orders(group, 7)
    assert set(orders) == set(group)
    assert all(orders[a] == _brute_order(decode(a, 7)) for a in group)


@pytest.mark.parametrize("name", ["SL2(F5)", "SL2(F9)", "cyclic", "redundant"] + RANDOM_SETS)
def test_closure_matches_breadth_first(name):
    gens = _generator_sets()[name]
    assert set(_dimino(*_encoded(gens), cap=1080)) == _codes(_bfs_closure(gens))


def test_closure_group_sizes():
    sets = {name: _dimino(*_encoded(gens), cap=1080) for name, gens in _generator_sets().items()}
    assert len(sets["SL2(F5)"]) == 60
    assert len(sets["SL2(F9)"]) == 360
    assert len(sets["cyclic"]) == 15
    assert len(sets["redundant"]) == 60
    # the random subsets reach proper subgroups as well as the whole cover
    assert {len(sets[name]) for name in RANDOM_SETS} == {60, 72, 180, 1080}


def test_closure_raises_past_cap():
    gens, p = _encoded(_sym2_generators(5, (1,)))
    assert len(_dimino(gens, p, cap=60)) == 60
    with pytest.raises(ValueError):
        _dimino(gens, p, cap=59)
    with pytest.raises(ValueError):
        _dimino(_cover_codes()[:40], 5, cap=1079)


def test_group_rejects_a_singular_generator():
    """The builder checks the count before any order walk sees the list:
    a singular generator closes to 2 elements.  The zero matrix and the
    identity pass a count of 2, and the zero matrix's power walk gives up
    after len(group) powers."""
    with pytest.raises(AssertionError, match="expected 360 elements, got 2"):
        _group([(1, 0, 0, 0, 1, 0, 0, 0, 0)], 3, 360)
    group = _group([(0,) * 9], 5, 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no power equal to the identity among the first 2"):
        _orders(group, 5)
    assert time.perf_counter() - start < 1


GROUPS = {
    "H": lambda: (_group(*_encoded(_sym2_generators(5, (1,))), 60), 5),
    "mod3-image": lambda: (_group(*_encoded(_sym2_generators(3, (1, W9))), 360), 3),
    "cover": lambda: (_cover_codes(), 5),
}


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS)
def test_element_orders_match_power_counting(group):
    group, p = group()
    orders = _orders(group, p)
    assert set(orders) == set(group)
    for a in group:
        assert orders[a] == _brute_order(decode(a, p))


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS)
def test_charpoly_matches_the_reference_on_every_element(group):
    group, p = group()
    for a in group:
        assert charpoly(a, p) == pairs(charpoly3_reversed(decode(a, p)))


def _cover_generators():
    c = lift(5, EXTRA_INVOLUTION)
    return _sym2_generators(5, (1,)) + [mat([c[0:3], c[3:6], c[6:9]])]


@pytest.mark.parametrize("gens,size", [
    (lambda: _sym2_generators(5, (1,)), 60),
    (lambda: _sym2_generators(3, (1, W9)), 360),
    (_cover_generators, 1080),
    (lambda: _sym2_generators(7, (1,)), 168),
], ids=["H", "mod3-image", "cover", "SL2(F7)"])
def test_code_walks_match_the_matrix_walks(gens, size):
    """Dimino's walk gives the reference's elements in the reference's
    order; on the builder's sorted list, the order and class walks give the
    same keys, bucket order and member order as the references."""
    gens = gens()
    reference = _matrix_closure(gens)
    codes, p = _encoded(gens)
    assert [decode(a, p) for a in _dimino(codes, p, cap=size)] == reference
    group = _group(codes, p, size)
    elements = [decode(a, p) for a in group]
    assert elements == sorted(reference, key=_mat_key)
    orders = [(decode(a, p), n) for a, n in _orders(group, p).items()]
    assert orders == list(_matrix_orders(elements).items())
    classes = [(key, [decode(a, p) for a in members])
               for key, members in _classes(group, p).items()]
    assert classes == [((n, (tr.c0, tr.c1)), members)
                       for (n, tr), members in _matrix_classes(elements).items()]


def test_group_build_product_budget(monkeypatch):
    """The cover, its classification and the mod-3 tables, rebuilt from
    scratch, take exactly 3,438 products (1,157 + 1,428 + 853), counted at
    the code kernel every product goes through, the cover's M^2 = I check
    included; 16,473 with a breadth-first closure and an order walk per
    element.  The cover's codes are cached apart from its classification,
    so their builder is the one rebuilt."""
    classified_cover()  # the classification below reads the cached cover codes
    calls = []
    product = matrices._product

    def counted(a, b, mul, add):
        calls.append(None)
        return product(a, b, mul, add)

    monkeypatch.setattr(matrices, "_product", counted)
    assert len(matrix_oracle._cover_codes.__wrapped__()) == 1080
    assert len(calls) == 1157
    assert len(classified_cover.__wrapped__()) == 13
    assert len(calls) == 1157 + 1428
    a6_mod3_class_polys.__wrapped__()
    assert len(calls) == 3438 <= 6000
