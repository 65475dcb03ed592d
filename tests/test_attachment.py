"""check_attached, which compares coefficient pairs, against a reference
that compares F_{p^2} elements: the Hecke cubic by the arithmetic of the
tests' ``Fp2Elem``, its coefficientwise Frobenius and list equality, as the
check read before it worked in pairs."""

import random

import pytest

from padic_serre.hecke import EigenvalueRecord, check_attached, hecke_poly
from padic_serre.rep3a6 import TRACES, class_charpolys

from helpers import solve_record
from matrix_reference import Fp2Elem, lift, pairs

SEED = 30
MODES = ("straight", "conjugated", "perturbed")
ELLS = (2, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _reference(records, frob_polys) -> tuple[dict, str, tuple]:
    per_ell, indeterminate, direct, conjugate = {}, [], [], []
    for rec in sorted(records, key=lambda r: r.ell):
        ell = Fp2Elem(rec.p, rec.ell, 0)  # the Hecke cubic by F_{p^2} arithmetic
        a1, a2, a3 = lift(rec.p, (rec.a1, rec.a2, rec.a3))
        h = [Fp2Elem(rec.p, 1, 0), -a1, a2 * ell, -(a3 * ell * ell * ell)]
        assert hecke_poly(rec) == pairs(h)
        candidates = [lift(rec.p, cubic) for cubic in frob_polys[rec.ell]]
        if len(candidates) > 1:
            indeterminate.append(rec.ell)
        direct.append(h in candidates)
        conjugate.append([c.frobenius() for c in h] in candidates)
        per_ell[rec.ell] = ("match" if direct[-1] else
                            "conjugate-match" if conjugate[-1] else "mismatch")
    overall = ("attached" if all(direct) else
               "attached-up-to-conjugacy" if all(conjugate) else "not-attached")
    return per_ell, overall, tuple(indeterminate)


def _row(rng, p, ell):
    """Candidate cubics at ell, one or two, and the record of one mode."""
    if p == 3 and rng.random() < 0.4:
        candidates = class_charpolys(3, "5ab", rng.choice((1, -1)))
    else:
        labels = rng.sample(sorted(TRACES[p]), rng.choice((1, 1, 2)))
        candidates = [class_charpolys(p, label, rng.choice((1, -1)))[0] for label in labels]
    rec = solve_record(ell, rng.choice(candidates), p)
    mode = rng.choice(MODES)
    if mode == "conjugated":
        rec = rec.conjugate()
    elif mode == "perturbed":
        a = lift(p, (rec.a1, rec.a2, rec.a3))
        a[rng.randrange(3)] += Fp2Elem(p, rng.randrange(1, p), rng.randrange(p))
        rec = EigenvalueRecord(ell, *pairs(a), p)
    return candidates, rec


@pytest.mark.parametrize("p", [3, 5])
def test_check_attached_matches_the_element_reference(p):
    rng = random.Random(f"{SEED}/{p}")
    verdicts = set()
    for _ in range(300):
        ells = rng.sample(ELLS, rng.randrange(1, 6))
        rows = {ell: _row(rng, p, ell) for ell in ells}
        frob_polys = {ell: candidates for ell, (candidates, _) in rows.items()}
        records = [rec for _, rec in rows.values()]
        if rng.random() < 0.5:  # lists of lists, as a report's JSON holds them
            frob_polys = {ell: [[list(c) for c in cubic] for cubic in cs]
                          for ell, cs in frob_polys.items()}
        verdict = check_attached(records, frob_polys)
        assert (verdict.per_ell, verdict.overall, verdict.indeterminate_ells) == \
            _reference(records, frob_polys)
        verdicts.add(verdict.overall)
    assert verdicts == {"attached", "attached-up-to-conjugacy", "not-attached"}
