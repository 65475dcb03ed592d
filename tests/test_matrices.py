"""The group layer against naive references: the code kernel ``_product``
against the entrywise ``Fp2Elem`` loop (also over a large field, in a fresh
interpreter), Dimino's walk against a breadth-first closure, the order walk
against counting powers, the walks and the sorted builder ``_group`` against
the same walks on ``Fp2Elem`` matrices, and an exact count of 3x3 products
for the whole group build."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import padic_serre
from padic_serre import matrices, matrix_oracle
from padic_serre.arith import Fp2Elem
from padic_serre.matrices import (
    _classes,
    _decode,
    _dimino,
    _encode,
    _group,
    _orders,
    _product,
    _tables,
    identity,
    mat,
)
from padic_serre.matrix_oracle import EXTRA_INVOLUTION, _cover_codes, classified_cover
from padic_serre.rep3a6 import a6_mod3_class_polys, sl2_generators, sym_square

from matrix_reference import _loop_mul, _mat_key, _matrix_classes, _matrix_closure, _matrix_orders

W9 = Fp2Elem(3, 0, 1)
RANDOM_SETS = [f"cover-{size}-{i}" for size in (2, 3) for i in range(4)]


def _codes(ms):
    return set(_encode(list(ms))[0])


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


def _generator_sets():
    cover = [_decode(a, 5) for a in _cover_codes()]
    rng = random.Random(20041018)
    sl2_f5 = sl2_generators(5, (1,))
    sets = {
        "SL2(F5)": sl2_f5,
        "SL2(F9)": sl2_generators(3, (1, W9)),
        "cyclic": [next(m for m in cover if _brute_order(m) == 15)],
        "redundant": sl2_f5 + [_loop_mul(sl2_f5[0], sl2_f5[1]), sl2_f5[0]],
    }
    for name in RANDOM_SETS:
        sets[name] = rng.sample(cover, int(name.split("-")[1]))
    return sets


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_mat_mul_matches_the_entrywise_loop(p, n):
    rng = random.Random(f"mat_mul/{p}/{n}")

    def random_matrix():
        return tuple(tuple(Fp2Elem(p, rng.randrange(p), rng.randrange(p)) for _ in range(n))
                     for _ in range(n))

    for _ in range(200):
        a, b = random_matrix(), random_matrix()
        (x, y), _ = _encode([a, b])
        assert _decode(_product(x, y, *_tables(p)[1:]), p) == _loop_mul(a, b)


def test_mat_mul_rejects_mixed_fields_and_shapes():
    a = identity(5, 3)
    with pytest.raises(ValueError):
        _encode([a, identity(3, 3)])
    with pytest.raises(ValueError):
        _encode([a, identity(5, 2)])
    with pytest.raises(ValueError):
        _encode([a, a[:2] + (a[2][:2],)])


def test_sl2_f7_closure_and_orders():
    """A third field, F_49, whose lookup rows are built on demand here."""
    gens = sl2_generators(7, (1,))
    group = _group(gens, 336)
    assert set(group) == _codes(_bfs_closure(gens))
    orders = _orders(group, 7)
    assert set(orders) == set(group)
    assert all(orders[a] == _brute_order(_decode(a, 7)) for a in group)


@pytest.mark.parametrize("name", ["SL2(F5)", "SL2(F9)", "cyclic", "redundant"] + RANDOM_SETS)
def test_closure_matches_breadth_first(name):
    gens = _generator_sets()[name]
    assert set(_dimino(*_encode(gens), cap=1080)) == _codes(_bfs_closure(gens))


def test_closure_group_sizes():
    sets = {name: _dimino(*_encode(gens), cap=1080) for name, gens in _generator_sets().items()}
    assert len(sets["SL2(F5)"]) == 120
    assert len(sets["SL2(F9)"]) == 720
    assert len(sets["cyclic"]) == 15
    assert len(sets["redundant"]) == 120
    # the random subsets reach proper subgroups as well as the whole cover
    assert {len(sets[name]) for name in RANDOM_SETS} == {60, 72, 180, 1080}


def test_closure_raises_past_cap():
    gens, p = _encode(sl2_generators(5, (1,)))
    assert len(_dimino(gens, p, cap=120)) == 120
    with pytest.raises(ValueError):
        _dimino(gens, p, cap=119)
    with pytest.raises(ValueError):
        _dimino(_cover_codes()[:40], 5, cap=1079)


def test_group_rejects_a_singular_generator():
    """The builder checks the count before any order walk sees the list:
    a singular generator closes to 2 elements, whose power walk would never
    reach the identity."""
    one, zero = Fp2Elem(3, 1, 0), Fp2Elem(3, 0, 0)
    with pytest.raises(AssertionError, match="expected 360 elements, got 2"):
        _group([mat([[one, one], [zero, zero]])], 360)


@pytest.mark.parametrize(
    "group",
    [
        lambda: (_group([sym_square(g) for g in sl2_generators(5, (1,))], 60), 5),
        lambda: (_group([sym_square(g) for g in sl2_generators(3, (1, W9))], 360), 3),
        lambda: (_cover_codes(), 5),
    ],
    ids=["H", "mod3-image", "cover"],
)
def test_element_orders_match_power_counting(group):
    group, p = group()
    orders = _orders(group, p)
    assert set(orders) == set(group)
    for a in group:
        assert orders[a] == _brute_order(_decode(a, p))


def _cover_generators():
    c = [Fp2Elem(5, c0, c1) for c0, c1 in EXTRA_INVOLUTION]
    return [sym_square(g) for g in sl2_generators(5, (1,))] + [mat([c[0:3], c[3:6], c[6:9]])]


@pytest.mark.parametrize("gens,size", [
    (lambda: [sym_square(g) for g in sl2_generators(5, (1,))], 60),
    (lambda: [sym_square(g) for g in sl2_generators(3, (1, W9))], 360),
    (_cover_generators, 1080),
    (lambda: sl2_generators(7, (1,)), 336),
], ids=["H", "mod3-image", "cover", "SL2(F7)"])
def test_code_walks_match_the_matrix_walks(gens, size):
    """Dimino's walk gives the reference's elements in the reference's
    order; on the builder's sorted list, the order and class walks give the
    same keys, bucket order and member order as the references."""
    gens = gens()
    reference = _matrix_closure(gens)
    codes, p = _encode(gens)
    assert [_decode(a, p) for a in _dimino(codes, p, cap=size)] == reference
    group = _group(gens, size)
    elements = [_decode(a, p) for a in group]
    assert elements == sorted(reference, key=_mat_key)
    orders = [(_decode(a, p), n) for a, n in _orders(group, p).items()]
    assert orders == list(_matrix_orders(elements).items())
    classes = [(key, [_decode(a, p) for a in members]) for key, members in _classes(group, p).items()]
    assert classes == list(_matrix_classes(elements).items())


def test_large_field_rows_are_integer_arithmetic():
    """At p = 211 a row has 44,521 entries.  The first 2x2 product in a fresh
    interpreter builds its rows from integer formulas: well under a second
    and 40 MB of peak RSS, and equal to the entrywise loop."""
    script = textwrap.dedent("""
        import json, random, resource, sys, time
        from padic_serre.arith import Fp2Elem
        from padic_serre.matrices import _decode, _encode, _product, _tables
        rng = random.Random(211)
        a, b = [[[rng.randrange(211), rng.randrange(211)] for _ in range(4)] for _ in range(2)]
        def matrix(pairs):
            x = [Fp2Elem(211, c0, c1) for c0, c1 in pairs]
            return ((x[0], x[1]), (x[2], x[3]))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        (x, y), p = _encode([matrix(a), matrix(b)])
        product = _decode(_product(x, y, *_tables(p)[1:]), p)
        seconds = time.perf_counter() - start
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        pairs = [[x.c0, x.c1] for row in product for x in row]
        json.dump({"a": a, "b": b, "product": pairs, "seconds": seconds, "kb": grown_kb}, sys.stdout)
    """)
    src = str(Path(padic_serre.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    run = json.loads(out.stdout)

    def matrix(pairs):
        x = [Fp2Elem(211, c0, c1) for c0, c1 in pairs]
        return ((x[0], x[1]), (x[2], x[3]))

    want = _loop_mul(matrix(run["a"]), matrix(run["b"]))
    assert run["product"] == [[x.c0, x.c1] for row in want for x in row]
    assert run["seconds"] < 0.6
    assert run["kb"] < 40 * 1024


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
