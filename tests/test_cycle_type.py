"""cycle_type_mod_ell against an independent brute-force count of the
irreducible factors mod ell, its exact error contract, and the number of
integer discriminants the Frobenius section computes."""

import itertools
import random

import pytest

from padic_serre import casefile, polynomial
from padic_serre.casefile import GOLDEN, load_bundled_case, verify_case
from padic_serre.errors import InconsistencyError
from padic_serre.polynomial import IntPoly, cycle_type_mod_ell, discriminant


def _divides(m, t, ell):
    """Whether the monic m divides t over F_ell, by schoolbook division."""
    t = [c % ell for c in t]
    k = len(m) - 1
    for top in range(len(t) - 1, k - 1, -1):
        c = t[top]
        for i in range(k + 1):
            t[top - k + i] = (t[top - k + i] - c * m[i]) % ell
    return not any(t)


def _has_root(m, ell):
    return any(sum(c * x**i for i, c in enumerate(m)) % ell == 0 for x in range(ell))


def _brute_force_cycle_type(t, ell):
    """Count the monic irreducibles of degree 1, 2, 3 dividing t mod ell (a
    monic polynomial of degree at most 3 is irreducible iff it has no
    root); for degree at most 6 at most one factor is left over."""
    parts = []
    for d in (1, 2, 3):
        for low in itertools.product(range(ell), repeat=d):
            m = list(low) + [1]
            if (d == 1 or not _has_root(m, ell)) and _divides(m, t, ell):
                parts.append(d)
    rest = len(t) - 1 - sum(parts)
    return tuple(sorted(parts + ([rest] if rest else []), reverse=True))


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_cycle_type_matches_brute_force(ell):
    rng = random.Random(f"cycle-type/{ell}")
    checked = 0
    while checked < 60:
        n = rng.randint(1, 6)
        t = [rng.randint(-20, 20) for _ in range(n)] + [rng.choice([1, -1, rng.randint(-9, 9)])]
        f = IntPoly(t)
        if f.degree < 1 or f.leading % ell == 0:
            continue
        if f.degree >= 2 and discriminant(f) % ell == 0:
            continue
        inv = pow(f.leading, -1, ell)
        assert cycle_type_mod_ell(f, ell) == _brute_force_cycle_type(
            [c * inv % ell for c in f.coeffs], ell), (t, ell)
        checked += 1


@pytest.mark.parametrize("coeffs,ell,message", [
    ([1, -1, -1, 1], 3, "ramified or non-squarefree reduction"),  # (x - 1)^2 (x + 1)
    ([1, 0, 2], 2, "ramified or non-squarefree reduction"),  # ell | lc, disc = -8
    ([1, 1, 3], 3, "leading coefficient vanishes mod ell"),  # ell | lc, disc = -11
])
def test_cycle_type_errors_are_pinned(coeffs, ell, message):
    with pytest.raises(InconsistencyError) as info:
        cycle_type_mod_ell(IntPoly(coeffs), ell)
    assert type(info.value) is InconsistencyError
    assert str(info.value) == message


def _counting(monkeypatch, module):
    calls = []

    def counted(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(module, "discriminant", counted)
    return calls


def test_verify_case_computes_one_discriminant(monkeypatch):
    calls = _counting(monkeypatch, casefile)
    for name in GOLDEN:
        before = len(calls)
        verify_case(load_bundled_case(name))
        assert len(calls) - before <= 1, name
    assert calls


def test_cycle_type_needs_no_integer_discriminant_when_lc_is_a_unit(monkeypatch):
    calls = _counting(monkeypatch, polynomial)
    sextic = load_bundled_case("5-17-1").sextic
    for ell in (2, 3, 7, 11, 13, 47):
        cycle_type_mod_ell(sextic, ell)
    with pytest.raises(InconsistencyError):
        cycle_type_mod_ell(IntPoly([1, -1, -1, 1]), 3)
    assert calls == []
    with pytest.raises(InconsistencyError):
        cycle_type_mod_ell(IntPoly([1, 1, 3]), 3)
    assert len(calls) == 1
