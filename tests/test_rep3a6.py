import os
import random
import re
import subprocess
import sys

import pytest

from padic_serre.arith import cube_root_of_unity, frobenius_pairs
from padic_serre.casefile import CaseFile, verify_case
from padic_serre.errors import InconsistencyError
from padic_serre.matrices import _classes, _group, charpoly, sym_square
from padic_serre.matrix_oracle import classified_cover, oracle_charpoly
from padic_serre.rep3a6 import (COVER_COARSE, TRACES, a6_mod3_class_polys, char_value,
                                class_charpolys, coarse_from_cycle_type, frob_charpoly,
                                frobenius_class, inverse_class, sl2_generators)

from bundled_json import case_json
from matrix_reference import (Fp2Elem, _loop_mul, _mat_key, _matrix_closure, _power,
                              charpoly3_reversed, decode, det3, encode, identity, lift, mat, pairs,
                              trace)


def _sym2(m):
    """``sym_square`` on a reference matrix over F_{p^2}."""
    p = m[0][0].p
    return decode(sym_square(encode(m), p), p)


def _sl2_f9():
    """SL_2(F_9) as reference matrices, closed from the transvections."""
    return _matrix_closure([decode(g, 3) for g in sl2_generators((1, 3))])


def test_coarse_from_cycle_type():
    assert coarse_from_cycle_type([5, 1]) == "5ab"
    assert coarse_from_cycle_type([2, 2, 1, 1]) == "2a"
    assert coarse_from_cycle_type([3, 1, 1, 1]) == "3ab"
    assert coarse_from_cycle_type([3, 3]) == "3ab"
    assert coarse_from_cycle_type([4, 2]) == "4a"
    assert coarse_from_cycle_type([1] * 6) == "1a"


def test_coarse_rejects_odd_and_bad_partitions():
    with pytest.raises(InconsistencyError):
        coarse_from_cycle_type([4, 1, 1])
    with pytest.raises(InconsistencyError):
        coarse_from_cycle_type([6])
    with pytest.raises(InconsistencyError):
        coarse_from_cycle_type([5, 2])


@pytest.mark.parametrize("p,cycle_type,artin_power,fine,label", [
    (5, (5, 1), 1, "unknown", "15bd"),
    (5, (1,) * 6, 1, "unknown", "3a"),
    (5, (4, 2), 1, "unknown", "12a"),
    (5, (2, 2, 1, 1), 0, "unknown", "2a"),
    (5, (3, 3), 1, "unknown", "3cd"),
    (3, (5, 1), None, "unknown", "5ab"),
    (3, (5, 1), None, "5a", "5a"),
    (3, (5, 1), None, "5b", "5b"),
    (3, (4, 2), None, "unknown", "4a"),
    (3, (3, 1, 1, 1), None, "unknown", "3ab"),
    (3, (1,) * 6, None, "unknown", "1a"),
], ids=["p5-15bd", "p5-3a", "p5-12a", "p5-2a", "p5-3cd", "p3-5ab", "p3-5a", "p3-5b", "p3-4a",
        "p3-3ab", "p3-1a"])
def test_frobenius_class_table(p, cycle_type, artin_power, fine, label):
    order = max(cycle_type)  # the element order, for every even cycle type of degree 6
    assert frobenius_class(p, cycle_type, artin_power, None, fine) == label
    assert frobenius_class(p, cycle_type, artin_power, order, fine) == label


@pytest.mark.parametrize("p,cycle_type,residue_degree,fine,message", [
    (3, (5, 1), 4, "unknown", "residue degree 4 does not match element order 5"),
    (5, (3, 3), 1, "unknown", "residue degree 1 does not match element order 3"),
    (3, (4, 2), None, "5a", "fine_order5 5a contradicts the cycle type's class 4a"),
    (5, (5, 1), None, "5b", "fine_order5 5b splits 5ab only at p = 3, not at p = 5"),
    (3, (5, 1), None, "unknown", "artin_power 0 twists the class only at p = 5, not at p = 3"),
    (7, (5, 1), None, "unknown", "no frozen class data for p = 7; only p in (3, 5) is bundled"),
], ids=["degree-p3", "degree-3cd-p5", "fine-on-4a-p3", "fine-p5", "artin-power-p3", "p7"])
def test_frobenius_class_rejects_inconsistent_rows(p, cycle_type, residue_degree, fine, message):
    with pytest.raises(InconsistencyError, match=re.escape(message)):
        frobenius_class(p, cycle_type, 0, residue_degree, fine)


def test_frobenius_class_worked_values():
    assert frobenius_class(5, (5, 1), 1, 5) == "15bd"
    assert frobenius_class(5, (3, 3), 2, 3) == "3cd"
    assert frobenius_class(5, (1, 1, 1, 1, 1, 1), 0, 1) == "1a"


def test_frobenius_class_checks_residue_degree():
    with pytest.raises(InconsistencyError, match="residue degree 4 does not match element order 5"):
        frobenius_class(5, (5, 1), 1, 4)


def test_frobenius_class_untwisted_lands_in_base_lifts():
    for cycle, f in (((5, 1), 5), ((2, 2, 1, 1), 2), ((4, 2), 4), ((1,) * 6, 1)):
        assert frobenius_class(5, cycle, 0, f) in {"1a", "2a", "4a", "5ab"}
    assert frobenius_class(5, (3, 1, 1, 1), 0, 3) == "3cd"


def test_char_values_and_inverse():
    z = Fp2Elem(5, *cube_root_of_unity(5))
    assert char_value("15bd") == pairs([Fp2Elem(5, -2, 0) * z * z])[0]
    assert char_value("3cd") == (0, 0)
    assert char_value("1a") == (3, 0)
    assert inverse_class("15bd") == "15ac"
    assert inverse_class("2a") == "2a"


def test_char_table_conjugation_compatibility():
    for cls in COVER_COARSE:
        assert lift(5, [char_value(inverse_class(cls))]) == [
            x.frobenius() for x in lift(5, [char_value(cls)])]


def test_frob_charpoly_examples():
    z = Fp2Elem(5, *cube_root_of_unity(5))
    zp = z * z
    one = Fp2Elem(5, 1, 0)
    assert frob_charpoly("15bd", 1) == pairs([one, Fp2Elem(5, 2, 0) * zp, Fp2Elem(5, 3, 0) * z,
                                              -one])
    assert frob_charpoly("1a", 1) == ((1, 0), (2, 0), (3, 0), (4, 0))
    assert frob_charpoly("2a", -1) == ((1, 0), (4, 0), (4, 0), (1, 0))


def test_frob_charpoly_reciprocal_symmetry():
    # t^3 p(1/t) = -eps^3 * conj(p)(t) on every class and sign
    for cls in COVER_COARSE:
        for eps in (1, -1):
            c = lift(5, frob_charpoly(cls, eps))
            reversed_poly = list(reversed(c))
            eps3 = _power(Fp2Elem(5, eps, 0), 3)
            conj = [x.frobenius() * (-eps3) for x in c]
            assert reversed_poly == conj


def test_sym_square_basics():
    one, zero = Fp2Elem(3, 1, 0), Fp2Elem(3, 0, 0)
    assert charpoly(sym_square((1, 0, 0, 1), 3), 3) == ((1, 0), (0, 0), (0, 0), (2, 0))
    # an order-4 element has trace 0, so its square image has trace -1
    m = mat([[zero, one], [-one, zero]])
    assert trace(_sym2(m)) == Fp2Elem(3, -1, 0)


def test_sym_square_is_multiplicative():
    rng = random.Random(60)
    elems = sorted(_sl2_f9(), key=_mat_key)
    for _ in range(80):
        a, b = rng.choice(elems), rng.choice(elems)
        assert _sym2(_loop_mul(a, b)) == _loop_mul(_sym2(a), _sym2(b))


def test_sym_square_trace_identity_and_eigenvalues():
    # det(1 - Sym2(M) t) = 1 - (tr^2 - 1) t + (tr^2 - 1) t^2 - t^3,
    # from the eigenvalue multiset {u^2, uv=1, v^2}
    elems = _sl2_f9()
    assert len(elems) == 720
    one = Fp2Elem(3, 1, 0)
    for m in elems:
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == one
        tr = trace(m)
        assert trace(_sym2(m)) == tr * tr - one
        expect = [one, -(tr * tr - one), tr * tr - one, -one]
        assert charpoly(sym_square(encode(m), 3), 3) == pairs(expect)


def test_mod3_tables_are_conjugate_pair():
    t1, t2 = a6_mod3_class_polys()
    assert set(t1) == {"1a", "2a", "3ab", "4a", "5a", "5b"}
    for cls in t1:
        assert [c.frobenius() for c in lift(3, t1[cls])] == lift(3, t2[cls])
    # unipotent classes collapse to (1 - t)^3 = 1 - t^3 in characteristic 3
    cube = ((1, 0), (0, 0), (0, 0), (2, 0))
    assert t1["1a"] == cube and t1["3ab"] == cube
    # the golden classes are swapped between the two tables and conjugate
    assert t1["5a"] != t1["5b"]
    assert t1["5a"] == t2["5b"] and t1["5b"] == t2["5a"]


def test_mod3_candidates_for_unresolved_order5():
    unresolved = class_charpolys(3, "5ab", 1)
    assert len(unresolved) == 2
    resolved = class_charpolys(3, "5a", 1)
    assert len(resolved) == 1
    assert resolved[0] in unresolved
    # a (5, 1) row of a p = 3 case file resolved to 5a reports that candidate
    payload = case_json("2-3-55")
    payload["frobenius_inputs"][0]["fine_order5"] = "5a"
    entry = verify_case(CaseFile.from_dict(payload))["frobenius"][0]
    assert entry["cycle_type"] == [5, 1] and entry["class"] == "5a" and "note" not in entry
    assert entry["charpolys"] == [[list(c) for c in resolved[0]]]


def test_matrix_oracle_agrees_with_frozen_tables():
    cover = classified_cover()
    assert sum(info["size"] for info in cover.values()) == 1080
    for cls in COVER_COARSE:
        info = cover[cls]
        assert info["trace"] == char_value(cls)
        assert info["inverse_label"] == inverse_class(cls)
        assert info["charpoly"] == frob_charpoly(cls, 1)
        assert oracle_charpoly(cls, -1) == frob_charpoly(cls, -1)


def _twisted_pairs(poly, eps):
    """det(1 - eps*A*t) as coefficient pairs, from the pairs of
    det(1 - A*t) over F_9: eps = -1 negates the odd coefficients."""
    return tuple((-c0 % 3, -c1 % 3) if eps == -1 and k % 2 else (c0, c1)
                 for k, (c0, c1) in enumerate(poly))


def test_frozen_mod3_table_matches_the_closure():
    table, conjugate = a6_mod3_class_polys()
    ok = list(TRACES[3]) == list(table)
    for label in table:
        for eps in (1, -1):
            (poly,) = class_charpolys(3, label, eps)
            ok &= poly == _twisted_pairs(table[label], eps)
            ok &= frobenius_pairs(3, poly) == _twisted_pairs(conjugate[label], eps)
    assert ok


def _inverse(g):
    """g^-1 as the last power of g before the identity."""
    one, h = identity(g[0][0].p, 3), g
    while _loop_mul(h, g) != one:
        h = _loop_mul(h, g)
    return h


def test_charpoly_is_the_trace_rule_at_both_primes():
    # det g = 1: det(1 - g t) = 1 - tr(g) t + tr(g^-1) t^2 - t^3
    cover = classified_cover()
    mod3 = _classes(_group([sym_square(g, 3) for g in sl2_generators((1, 3))], 3, 360), 3)
    reps = [decode(cover[cls]["representative"], 5) for cls in COVER_COARSE]
    reps += [decode(members[0], 3) for members in mod3.values()]
    assert len(reps) == 13 + 6
    for g in reps:
        one = Fp2Elem(g[0][0].p, 1, 0)
        assert det3(g) == one
        assert charpoly3_reversed(g) == [one, -trace(g), trace(_inverse(g)), -one]


def test_p3_case_runs_no_closure():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = ("from padic_serre.casefile import load_bundled_case, verify_case\n"
             "from padic_serre.rep3a6 import a6_mod3_class_polys\n"
             "verify_case(load_bundled_case('3-13-9'))\n"
             "print(a6_mod3_class_polys.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "0"

