import random

import pytest

from padic_serre.arith import frobenius_pairs
from padic_serre.errors import InconsistencyError, SchemaError
from padic_serre.hecke import EigenvalueRecord, check_attached, hecke_poly

from helpers import solve_record
from matrix_reference import Fp2Elem, _power, lift, pairs


def _random_cubic(rng, p):
    return [(1, 0)] + [(rng.randrange(p), rng.randrange(p)) for _ in range(3)]


def test_hecke_poly_trivial_representation():
    ell = 7
    inv = _power(Fp2Elem(5, 7, 0), 5 * 5 - 2)
    rec = EigenvalueRecord(ell, *pairs([Fp2Elem(5, 3, 0), Fp2Elem(5, 3, 0) * inv, _power(inv, 3)]),
                           5)
    assert hecke_poly(rec, 5) == ((1, 0), (2, 0), (3, 0), (4, 0))


def test_hecke_poly_coefficient_pattern():
    # exponents ell^(k(k-1)/2) for k = 0..3 are 1, 1, ell, ell^3, and the
    # polynomial is linear in each eigenvalue
    rng = random.Random(70)
    for _ in range(100):
        ell = rng.choice([2, 3, 7, 11, 13])
        rec = EigenvalueRecord(ell, *_random_cubic(rng, 5)[1:], 5)
        base = lift(5, hecke_poly(rec, 5))
        delta = Fp2Elem(5, rng.randrange(1, 5), rng.randrange(5))
        bumped = EigenvalueRecord(ell, rec.a1, *pairs([Fp2Elem(5, *rec.a2) + delta]), rec.a3, 5)
        diff = [b - a for a, b in zip(base, lift(5, hecke_poly(bumped, 5)))]
        li = Fp2Elem(5, ell, 0)
        assert diff == [Fp2Elem(5, 0, 0), Fp2Elem(5, 0, 0), li * delta, Fp2Elem(5, 0, 0)]


def test_hecke_poly_rejects_ell_divisible_by_p():
    rec = EigenvalueRecord(5, (1, 0), (1, 0), (1, 0), 5)
    with pytest.raises(InconsistencyError):
        hecke_poly(rec, 5)


@pytest.mark.parametrize("p", [3, 5, 1_000_003])
def test_round_trip_attached(p):
    rng = random.Random(71 + p)
    ells = [ell for ell in (2, 3, 7, 11, 13, 17, 19) if ell % p][:5]
    polys = {ell: [_random_cubic(rng, p)] for ell in ells}
    records = [solve_record(ell, polys[ell][0], p) for ell in ells]
    verdict = check_attached(records, polys)
    assert verdict.overall == "attached"
    assert all(status == "match" for status in verdict.per_ell.values())


def test_perturbation_detected():
    rng = random.Random(72)
    ells = [2, 3, 7]
    polys = {ell: [_random_cubic(rng, 5)] for ell in ells}
    records = [solve_record(ell, polys[ell][0], 5) for ell in ells]
    bad = records[1]
    records[1] = EigenvalueRecord(bad.ell, (bad.a1[0] + 1, bad.a1[1]), bad.a2, bad.a3, 5)
    verdict = check_attached(records, polys)
    assert verdict.overall == "not-attached"
    assert verdict.per_ell[3] == "mismatch"
    assert verdict.per_ell[2] == "match" and verdict.per_ell[7] == "match"


def test_global_conjugation_detected():
    rng = random.Random(73)
    ells = [2, 3, 7, 11]
    polys = {}
    for ell in ells:
        cubic = _random_cubic(rng, 5)
        while frobenius_pairs(5, cubic) == tuple(cubic):
            cubic = _random_cubic(rng, 5)
        polys[ell] = [cubic]
    records = [solve_record(ell, polys[ell][0], 5).conjugate() for ell in ells]
    verdict = check_attached(records, polys)
    assert verdict.overall == "attached-up-to-conjugacy"
    assert all(status == "conjugate-match" for status in verdict.per_ell.values())


def test_verdict_equivariance_under_conjugation():
    rng = random.Random(74)
    for _ in range(50):
        ells = [2, 3, 7]
        polys = {ell: [_random_cubic(rng, 5)] for ell in ells}
        records = [solve_record(ell, polys[ell][0], 5) for ell in ells]
        if rng.random() < 0.5:
            i = rng.randrange(3)
            r = records[i]
            records[i] = EigenvalueRecord(r.ell, r.a1, (r.a2[0] + 1, r.a2[1]), r.a3, 5)
        before = check_attached(records, polys)
        conj_polys = {ell: [frobenius_pairs(5, c) for c in polys[ell]] for ell in ells}
        conj_records = [r.conjugate() for r in records]
        after = check_attached(conj_records, conj_polys)
        assert before.overall == after.overall
        assert before.per_ell == after.per_ell


def test_two_candidate_entries():
    rng = random.Random(75)
    cubic = _random_cubic(rng, 5)
    other = _random_cubic(rng, 5)
    polys = {7: [other, cubic]}
    rec = solve_record(7, cubic, 5)
    verdict = check_attached([rec], polys)
    assert verdict.overall == "attached"
    assert verdict.indeterminate_ells == (7,)


def test_missing_ell_rejected():
    rec = solve_record(7, [(1, 0)] + [(0, 0)] * 3, 5)
    with pytest.raises(InconsistencyError):
        check_attached([rec], {11: [[(1, 0)] + [(0, 0)] * 3]})


def test_candidates_are_read_as_integer_pairs_mod_p():
    # tuples, JSON lists and unreduced integers name the same cubic
    rng = random.Random(76)
    for _ in range(50):
        cubic = _random_cubic(rng, 5)
        records = [solve_record(7, cubic, 5)]
        shifted = [[c0 + 5 * rng.randrange(-3, 4), c1 - 5 * rng.randrange(4)] for c0, c1 in cubic]
        for form in (tuple(cubic), [list(c) for c in cubic], shifted):
            assert check_attached(records, {7: [form]}).overall == "attached"
        conj = frobenius_pairs(5, cubic)
        if conj != tuple(cubic):
            shifted = [[c0 + 5, c1 + 10] for c0, c1 in conj]
            verdict = check_attached(records, {7: [shifted]})
            assert verdict.per_ell == {7: "conjugate-match"}


def test_solve_record_requires_unit_constant():
    with pytest.raises(InconsistencyError):
        solve_record(7, [(2, 0)] + [(0, 0)] * 3, 5)


def test_record_json_round_trip():
    rec = EigenvalueRecord(7, (1, 2), (3, 4), (0, 1), 5)
    assert EigenvalueRecord.from_json(rec.to_json(), 5) == rec


@pytest.mark.parametrize("values", [[[1, 0]], [[1, 0]] * 4, []])
def test_record_without_three_values_is_a_schema_error(values):
    with pytest.raises(SchemaError):
        EigenvalueRecord.from_json({"ell": 2, "a": values}, 5)
