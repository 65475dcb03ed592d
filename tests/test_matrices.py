"""The group primitives against naive references: the code kernel behind
``mat_mul`` against the entrywise ``Fp2Elem`` loop (also over a large field,
in a fresh interpreter), Dimino's closure against a breadth-first closure,
``element_orders`` against counting powers, the three public walks against
the same walks on ``Fp2Elem`` matrices, and an exact count of 3x3 products
for the whole group build."""

import json
import os
import random
import subprocess
import sys
import textwrap
from math import gcd
from pathlib import Path

import pytest

import padic_serre
from padic_serre import matrices, matrix_oracle
from padic_serre.arith import Fp2Elem
from padic_serre.matrices import (
    classes_by_order_trace,
    closure,
    element_orders,
    identity,
    mat,
    mat_mul,
    trace,
)
from padic_serre.matrix_oracle import EXTRA_INVOLUTION, classified_cover, triple_cover_group
from padic_serre.rep3a6 import a6_mod3_class_polys, sl2_generators, sym_square

W9 = Fp2Elem(3, 0, 1)
RANDOM_SETS = [f"cover-{size}-{i}" for size in (2, 3) for i in range(4)]


def _loop_mul(a, b):
    """The entrywise product by the Fp2Elem operators, the reference for the
    code kernel."""
    cols = tuple(zip(*b))
    rest = range(1, len(b))
    rows = []
    for row in a:
        out = []
        for col in cols:
            s = row[0] * col[0]
            for t in rest:
                s = s + row[t] * col[t]
            out.append(s)
        rows.append(tuple(out))
    return tuple(rows)


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


def _matrix_closure(generators):
    """Dimino's closure on ``Fp2Elem`` matrices, multiplied by ``_loop_mul``:
    the group as a set filled in walk order."""
    gens = list(generators)
    group = [identity(gens[0][0][0].p, len(gens[0]))]
    seen = set(group)
    used = []
    for g in gens:
        if g in seen:
            continue
        used.append(g)
        h = list(group)
        reps = [g]
        for r in reps:
            if r not in seen:
                coset = [_loop_mul(x, r) for x in h]
                group.extend(coset)
                seen.update(coset)
                reps.extend(_loop_mul(r, t) for t in used)
    return set(group)


def _matrix_orders(group):
    """One power walk per cyclic subgroup on ``Fp2Elem`` matrices, in the
    order of group."""
    orders = {}
    for a in group:
        if a in orders:
            continue
        e = identity(a[0][0].p, len(a))
        powers = [a]
        while powers[-1] != e:
            powers.append(_loop_mul(powers[-1], a))
        n = len(powers)
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    return orders


def _matrix_classes(group):
    """Buckets by (orders[m], trace(m)) in the order of group."""
    orders = _matrix_orders(group)
    buckets = {}
    for m in group:
        buckets.setdefault((orders[m], trace(m)), []).append(m)
    return buckets


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_mat_mul_matches_the_entrywise_loop(p, n):
    rng = random.Random(f"mat_mul/{p}/{n}")

    def random_matrix():
        return tuple(tuple(Fp2Elem(p, rng.randrange(p), rng.randrange(p)) for _ in range(n))
                     for _ in range(n))

    for _ in range(200):
        a, b = random_matrix(), random_matrix()
        assert mat_mul(a, b) == _loop_mul(a, b)


def test_mat_mul_rejects_mixed_fields_and_shapes():
    a = identity(5, 3)
    with pytest.raises(ValueError):
        mat_mul(a, identity(3, 3))
    with pytest.raises(ValueError):
        mat_mul(a, identity(5, 2))
    with pytest.raises(ValueError):
        mat_mul(a, a[:2] + (a[2][:2],))


def test_sl2_f7_closure_and_orders():
    """A third field, F_49, whose lookup rows are built on demand here."""
    gens = sl2_generators(7, (1,))
    group = closure(gens)
    assert len(group) == 336
    assert group == _bfs_closure(gens)
    orders = element_orders(group)
    assert set(orders) == group
    assert all(orders[m] == _brute_order(m) for m in group)


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


def _cover_generators():
    c = [Fp2Elem(5, c0, c1) for c0, c1 in EXTRA_INVOLUTION]
    return [sym_square(g) for g in sl2_generators(5, (1,))] + [mat([c[0:3], c[3:6], c[6:9]])]


@pytest.mark.parametrize("gens", [
    lambda: [sym_square(g) for g in sl2_generators(5, (1,))],
    lambda: [sym_square(g) for g in sl2_generators(3, (1, W9))],
    _cover_generators,
    lambda: sl2_generators(7, (1,)),
], ids=["H", "mod3-image", "cover", "SL2(F7)"])
def test_code_walks_match_the_matrix_walks(gens):
    """Same elements in the same order, same keys, bucket order and member
    order."""
    gens = gens()
    reference = _matrix_closure(gens)
    assert list(closure(gens)) == list(reference)
    group = list(reference)
    assert list(element_orders(group).items()) == list(_matrix_orders(group).items())
    assert list(classes_by_order_trace(group).items()) == list(_matrix_classes(group).items())


def test_large_field_rows_are_integer_arithmetic():
    """At p = 211 a row has 44,521 entries.  The first 2x2 product in a fresh
    interpreter builds its rows from integer formulas: well under a second
    and 40 MB of peak RSS, and equal to the entrywise loop."""
    script = textwrap.dedent("""
        import json, random, resource, sys, time
        from padic_serre.arith import Fp2Elem
        from padic_serre.matrices import mat_mul
        rng = random.Random(211)
        a, b = [[[rng.randrange(211), rng.randrange(211)] for _ in range(4)] for _ in range(2)]
        def matrix(pairs):
            x = [Fp2Elem(211, c0, c1) for c0, c1 in pairs]
            return ((x[0], x[1]), (x[2], x[3]))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        product = mat_mul(matrix(a), matrix(b))
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
    scratch, take exactly 3,439 products (1,157 + 1,428 + 854), counted at
    the code kernel every product goes through; 16,473 with a breadth-first
    closure and an order walk per element.  The cover's codes are cached
    apart from the decoded cover, so their builder is the one rebuilt."""
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
    assert len(calls) == 3439 <= 6000
