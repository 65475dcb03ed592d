"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline).

Criterion 6b asserts the reported resultant-margin inequality on random
pairs.  That inequality admits counterexamples whenever the minimizing
coefficient difference sits at the constant term (see
test_krasner.py::test_margin_printed_form_fails_at_constant_term for the
smallest one), so 6b fails and is expected to fail; the weighted variant
that does hold is exercised in test_krasner.py.  Everything else passes.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from padic_serre.casefile import GOLDEN, load_bundled_case, verify_case
from padic_serre.cli import main
from padic_serre.errors import EvidenceError
from padic_serre.galois_local import LevelDatum, RamFiltration, level_exponent, level
from padic_serre.hecke import EigenvalueRecord, check_attached
from padic_serre.krasner import (
    certify_same_extension,
    precision_report,
    resultant_margin,
)
from padic_serre.matrices import charpoly, sym_square
from padic_serre.matrix_oracle import classified_cover, oracle_charpoly
from padic_serre.polynomial import IntPoly, cycle_type_mod_ell, discriminant, newton_polygon
from padic_serre.rep3a6 import (COVER_COARSE, a6_mod3_class_polys, char_value, frob_charpoly,
                                frobenius_class, inverse_class, sl2_generators)
from padic_serre.weights import Triple, p_restrict

from helpers import slope_multiset, solve_record
from matrix_reference import Fp2Elem, _mat_key, _matrix_closure, decode, encode, lift, pairs, trace

X3M2 = IntPoly([-2, 0, 0, 1])
T_5_17 = IntPoly([-13, -11, 5, 0, 0, -2, 1])


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_1_precision_caveat():
    t0 = time.perf_counter()
    rep = precision_report(X3M2, 2, "prop1bis")
    ok = (rep.d, rep.a) == (2, 1) and rep.bound_prop1bis == Fraction(2, 3) and rep.k_prop1bis == 1
    rejected = False
    try:
        certify_same_extension(X3M2, IntPoly([0, 0, 0, 1]), 2,
                               ("eisenstein-after-shift", 0), ("eisenstein-after-shift", 0))
    except EvidenceError as exc:
        rejected = exc.which == "g"
    elapsed = time.perf_counter() - t0
    ok = ok and rejected and elapsed < 1.0
    _report("1 (caveat reproduction)", ok, f"d=2 a=1 bound=2/3 k=1, x^3 rejected; {elapsed:.3f}s")
    assert ok


def test_criterion_2_level_formula():
    t0 = time.perf_counter()
    wild = RamFiltration(((12, 0),) + ((4, 0),) * 5)
    values = (
        level_exponent(wild),
        level_exponent(RamFiltration(((3, 1),))),
        level_exponent(RamFiltration(((2, 1),))),
        level_exponent(RamFiltration(((2, 2),))),
    )
    elapsed = time.perf_counter() - t0
    ok = values == (8, 2, 2, 1) and elapsed < 1.0
    _report("2 (level exponents)", ok, f"n2=8 n13=2 n17=2/1; {elapsed:.3f}s")
    assert ok


def test_criterion_3_golden_sweep():
    t0 = time.perf_counter()
    expected = {
        "2-3-55": ({"2": 8}, "trivial", [[2, 1, 0]]),
        "2-3-57": ({"2": 7}, "psi8", [[5, 3, 1]]),
        "2-3-58": ({"2": 7}, "omega4*psi8", [[5, 3, 1]]),
        "3-7-3": ({"7": 2}, "trivial", [[5, 3, 1]]),
        "3-13-9": ({"13": 2}, "trivial", [[5, 3, 1]]),
        "5-17-1": ({"17": 1}, "eps17", [[6, 3, 0]]),
    }
    ok = True
    for name in GOLDEN:
        report = verify_case(load_bundled_case(name))
        lv, neb, wts = expected[name]
        ok &= report["level"]["exponents"] == lv
        ok &= report["nebentype"]["kind"] == neb
        ok &= report["weights"] == wts
        ok &= not report["golden"]["mismatches"]
        ok &= main(["verify-case", name, "--json-out", "/dev/null"]) == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("3 (golden case sweep)", ok, f"six cases exact; {elapsed:.2f}s")
    assert ok


def test_criterion_4_weight_engine():
    got = (
        p_restrict(0, 0, 0, 3),
        p_restrict(0, 0, 0, 5),
        p_restrict(1, 0, 1, 3, ("tres", "tres")),
        p_restrict(1, 0, 1, 3, ("peu", "peu")),
    )
    want = (
        {Triple(2, 1, 0)},
        {Triple(6, 3, 0)},
        {Triple(5, 3, 1)},
        {Triple(5, 3, 1), Triple(3, 3, 1), Triple(3, 1, 1), Triple(1, 1, 1)},
    )
    ok = got == want
    _report("4 (weight engine)", ok, "(2,1,0) (6,3,0) (5,3,1) and the 4-element split set")
    assert ok


def test_criterion_5_frobenius_pipeline():
    cls = frobenius_class(5, (5, 1), 1, 5)
    ct = cycle_type_mod_ell(T_5_17, 2)
    ok = cls == "15bd" and ct == (5, 1)
    _report("5 (Frobenius pipeline)", ok, f"class={cls} cycle-type={ct}")
    assert ok


# Criterion 6: six property sweeps, each a function returning its counts.
# The module-scoped suite6 fixture runs each sweep at most once and times
# it, so the per-sweep tests and the runtime total share one run, and the
# total also holds when it is selected on its own.


def _sweep_6a():
    rng = random.Random(600)
    checked = failures = 0
    while checked < 1000:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 4)
        coeffs = [p * rng.randint(-6, 6) for _ in range(deg)]
        coeffs[0] = p * rng.choice([u for u in range(-6, 7) if u % p])
        f = IntPoly(coeffs + [1])
        if discriminant(f) == 0:
            continue
        checked += 1
        rep = precision_report(f, p, "prop1")
        if rep.lam > Fraction(rep.d - (rep.n - 2) * rep.a, rep.n):
            failures += 1
    return checked, failures


def _sweep_6b():
    rng = random.Random(601)
    checked = failures = 0
    witness = None
    while checked < 10000:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 4)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        g = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if f.constant == 0:
            continue
        checked += 1
        lhs, rhs = resultant_margin(f, g, p)
        if lhs < rhs:
            failures += 1
            if witness is None:
                witness = (p, f, g, lhs, rhs)
    return checked, failures, witness


def _sweep_6c():
    rng = random.Random(602)
    checked = failures = 0
    while checked < 1000:
        p = rng.choice([2, 3, 5])
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        checked += 1
        lhs = sorted(slope_multiset(newton_polygon(f * g, p)))
        rhs = sorted(slope_multiset(newton_polygon(f, p))
                     + slope_multiset(newton_polygon(g, p)))
        if lhs != rhs:
            failures += 1
    return checked, failures


def _sweep_6d():
    rng = random.Random(603)
    one = Fp2Elem(3, 1, 0)
    sl2_f9 = _matrix_closure([decode(g, 3) for g in sl2_generators((1, 3))])
    elems = sorted(sl2_f9, key=_mat_key)
    failures = 0
    for _ in range(1000):
        m = rng.choice(elems)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == one
        cp = charpoly(sym_square(encode(m), 3), 3)
        tr = trace(m)
        if cp[1] != pairs([-(tr * tr - one)])[0]:
            failures += 1
    return failures


def _sweep_6e():
    t1, t2 = a6_mod3_class_polys()
    return all([c.frobenius() for c in lift(3, t1[cls])] == lift(3, t2[cls]) for cls in t1)


def _sweep_6f():
    rng = random.Random(606)
    failures = 0
    for _ in range(1000):
        p = rng.choice([3, 5])
        ells = [ell for ell in (2, 3, 7, 11, 13) if ell % p]
        polys = {}
        for ell in ells:
            polys[ell] = [[(1, 0)] + [(rng.randrange(p), rng.randrange(p)) for _ in range(3)]]
        records = [solve_record(ell, polys[ell][0], p) for ell in ells]
        if check_attached(records, polys).overall != "attached":
            failures += 1
    return failures


_SUITE6 = {"a": _sweep_6a, "b": _sweep_6b, "c": _sweep_6c,
           "d": _sweep_6d, "e": _sweep_6e, "f": _sweep_6f}


@pytest.fixture(scope="module")
def suite6():
    """key -> (sweep result, wall seconds), each sweep run once per module."""
    @functools.lru_cache(maxsize=None)
    def run(key):
        t0 = time.perf_counter()
        result = _SUITE6[key]()
        return result, time.perf_counter() - t0
    return run


def test_criterion_6a_lambda_bound_sweep(suite6):
    (checked, failures), seconds = suite6("a")
    ok = failures == 0
    _report("6a (root-separation bound)", ok,
            f"{checked} polynomials, {failures} failures; {seconds:.2f}s")
    assert ok


def test_criterion_6b_resultant_margin_sweep(suite6):
    (checked, failures, witness), seconds = suite6("b")
    ok = failures == 0
    _report("6b (resultant margin inequality)", ok,
            f"{checked} pairs, {failures} failures; first witness {witness}; "
            f"{seconds:.2f}s")
    assert ok, (
        f"the stated inequality lhs >= a/n + min ord(diff) fails on {failures} of "
        f"{checked} random pairs (e.g. {witness}); the constant-term difference "
        "carries no root power, so the a/n term is not absorbable -- see the "
        "weighted margin for the bound that does hold"
    )


def test_criterion_6c_polygon_additivity_sweep(suite6):
    (checked, failures), seconds = suite6("c")
    ok = failures == 0
    _report("6c (polygon additivity)", ok,
            f"{checked} products, {failures} failures; {seconds:.2f}s")
    assert ok


def test_criterion_6d_symmetric_square_trace_sweep(suite6):
    failures, seconds = suite6("d")
    ok = failures == 0
    _report("6d (symmetric-square trace identity)", ok,
            f"1000 draws, {failures} failures; {seconds:.2f}s")
    assert ok


def test_criterion_6e_mod3_tables_conjugate(suite6):
    ok, seconds = suite6("e")
    _report("6e (conjugate table pair)", ok, f"{seconds:.2f}s")
    assert ok


def test_criterion_6f_hecke_round_trip_sweep(suite6):
    failures, seconds = suite6("f")
    ok = failures == 0
    _report("6f (Hecke round trip)", ok,
            f"1000 systems, {failures} failures; {seconds:.2f}s")
    assert ok


def test_criterion_6_total_runtime(suite6):
    seconds = [suite6(key)[1] for key in _SUITE6]
    total = sum(seconds)
    ok = len(seconds) == 6 and total < 60.0
    _report("6 (property-suite runtime)", ok, f"total {total:.2f}s over {len(seconds)} suites")
    assert ok


def test_criterion_7_matrix_oracle_agreement():
    cover = classified_cover()
    ok = True
    for cls in COVER_COARSE:
        info = cover[cls]
        ok &= info["trace"] == char_value(cls)
        ok &= info["inverse_label"] == inverse_class(cls)
        ok &= info["charpoly"] == frob_charpoly(cls, 1)
        ok &= oracle_charpoly(cls, -1) == frob_charpoly(cls, -1)
    _report("7 (matrix oracle agreement)", ok, "all 13 coarse classes exact")
    assert ok


def test_criterion_8_attachment_discriminates():
    report = verify_case(load_bundled_case("5-17-1"), ell_max=47)
    frob_polys = {entry["ell"]: entry["charpolys"] for entry in report["frobenius"]}
    records = [solve_record(ell, polys[0], 5) for ell, polys in sorted(frob_polys.items())]
    verdict = check_attached(records, frob_polys)
    ok = verdict.overall == "attached"
    # every single-coefficient perturbation must be caught at its prime
    rng = random.Random(608)
    for i, rec in enumerate(records):
        for slot in range(3):
            bump = Fp2Elem(5, rng.randrange(1, 5), rng.randrange(5))
            a = lift(5, (rec.a1, rec.a2, rec.a3))
            a[slot] = a[slot] + bump
            mutated = records[:i] + [EigenvalueRecord(rec.ell, *pairs(a), 5)] + records[i + 1:]
            v = check_attached(mutated, frob_polys)
            ok &= v.overall == "not-attached" and v.per_ell[rec.ell] == "mismatch"
            ok &= all(st == "match" for ell2, st in v.per_ell.items() if ell2 != rec.ell)
    _report("8 (attachment discrimination)", ok,
            f"{len(records)} primes up to 47; every perturbation flagged")
    assert ok
