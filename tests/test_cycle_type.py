"""cycle_type_mod_ell against an independent brute-force count of the
irreducible factors mod ell and against a splitting distinct-degree
factorization, its exact error contract, the batch cycle_types against the
same reference one ell at a time, None exactly at the primes of the
discriminant, and the number of integer discriminants a call and the
Frobenius section compute."""

import itertools
import random

import pytest

from padic_serre import polynomial
from padic_serre.casefile import GOLDEN, load_bundled_case, verify_case
from padic_serre.errors import InconsistencyError
from padic_serre.polynomial import IntPoly, cycle_type_mod_ell, cycle_types, discriminant


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


# -- the counting pass against a splitting reference -----------------------

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fp_divmod(a, m, ell):
    """Quotient and remainder of a by the monic m over F_ell."""
    a = list(a)
    k = len(m) - 1
    for top in range(len(a) - 1, k - 1, -1):
        c = a[top] = a[top] % ell
        if c:
            for i in range(k):
                a[top - k + i] -= c * m[i]
    return a[k:], _fp_trim([x % ell for x in a[:k]])


def _fp_gcd(a, b, ell):
    """Monic gcd of a monic a and any b."""
    while b:
        inv = pow(b[-1], -1, ell)
        b = [c * inv % ell for c in b]
        a, b = b, _fp_divmod(a, b, ell)[1]
    return a


def _frobenius_rows(r, ell):
    """x^(ell*i) mod r for i < deg r, by repeated squaring."""
    x_ell, base, e = [1], [0, 1], ell
    while e:
        if e & 1:
            x_ell = _fp_divmod(_fp_mul(x_ell, base), r, ell)[1]
        base = _fp_divmod(_fp_mul(base, base), r, ell)[1]
        e >>= 1
    rows = [[1]]
    while len(rows) < len(r) - 1:
        rows.append(_fp_divmod(_fp_mul(rows[-1], x_ell), r, ell)[1])
    return rows


def _splitting_cycle_type(T, ell):
    """Reference: distinct-degree factorization that divides each
    gcd(r, x^(ell^d) - x) out of r and reduces the Frobenius rows modulo
    what is left, with cycle_type_mod_ell's error contract."""
    if T.leading % ell == 0:
        if T.degree >= 2 and discriminant(T) % ell == 0:
            raise InconsistencyError("ramified or non-squarefree reduction")
        raise InconsistencyError("leading coefficient vanishes mod ell")
    inv = pow(T.leading, -1, ell)
    r = [c * inv % ell for c in T.coeffs]
    if len(_fp_gcd(r, _fp_trim([i * c % ell for i, c in enumerate(r)][1:]), ell)) > 1:
        raise InconsistencyError("ramified or non-squarefree reduction")
    rows = _frobenius_rows(r, ell)
    parts, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(r) - 1:
        d += 1
        acc = [0] * (len(r) - 1)
        for c, row in zip(h, rows):
            for j, y in enumerate(row):
                acc[j] += c * y
        h = _fp_trim([c % ell for c in acc])
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % ell
        g = _fp_gcd(r, _fp_trim(diff), ell)
        if len(g) > 1:
            parts.extend([d] * ((len(g) - 1) // d))
            r = _fp_divmod(r, g, ell)[0]
            rows = [_fp_divmod(row, r, ell)[1] for row in rows[: len(r) - 1]]
            h = _fp_divmod(h, r, ell)[1]
    if len(r) > 1:
        parts.append(len(r) - 1)
    return tuple(sorted(parts, reverse=True))


def _outcome(fn, f, ell):
    try:
        return fn(f, ell)
    except InconsistencyError as exc:
        assert type(exc) is InconsistencyError
        return str(exc)


def _differential_input(rng, ell):
    """A polynomial of degree 1-9: a product of random monic factors mod
    ell, one of them squared now and then so that the reduction is not
    squarefree, lifted with noise in multiples of ell; or plain random
    integers; a leading coefficient divisible by ell now and then."""
    n = rng.randint(1, 9)
    if rng.random() < 0.6:
        factors = []
        if n > 1 and rng.random() < 0.2:
            m = [rng.randrange(ell) for _ in range(rng.randint(1, n // 2))] + [1]
            factors += [m, m]
        while (deg := sum(len(m) - 1 for m in factors)) < n:
            factors.append([rng.randrange(ell) for _ in range(rng.randint(1, min(4, n - deg)))] + [1])
        f = IntPoly([1])
        for m in factors:
            f = f * IntPoly(m)
        coeffs = [c + ell * rng.randint(-3, 3) for c in f.coeffs]
    else:
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(n)] + [rng.choice([1, -1, 3])]
    if rng.random() < 0.1:
        coeffs[-1] = ell * rng.randint(1, 3)
    return IntPoly(coeffs)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 47, 101, 1_000_003])
def test_counting_pass_matches_splitting_reference(ell):
    rng = random.Random(f"ddf/{ell}")
    outcomes = set()
    for _ in range(250):
        f = _differential_input(rng, ell)
        if f.degree < 1:
            continue
        want = _outcome(_splitting_cycle_type, f, ell)
        assert _outcome(cycle_type_mod_ell, f, ell) == want, (f, ell)
        outcomes.add(want)
    assert "ramified or non-squarefree reduction" in outcomes
    assert "leading coefficient vanishes mod ell" in outcomes
    assert sum(isinstance(o, tuple) and len(o) >= 3 for o in outcomes) >= 5


def _looped(f, ells):
    """What a loop of single calls gives: the splitting reference's cycle
    type at each ell, None where cycle_type_mod_ell finds a ramified or
    non-squarefree reduction with a unit leading coefficient, or the type
    and message of the first other error it raises."""
    out = []
    for ell in ells:
        try:
            cycle_type_mod_ell(f, ell)
        except (InconsistencyError, ValueError) as exc:
            if str(exc) == "ramified or non-squarefree reduction" and f.leading % ell:
                out.append(None)
                continue
            return type(exc), str(exc)
        out.append(_splitting_cycle_type(f, ell))
    return out


def _batch_input(rng, ells):
    """A polynomial of degree 1-12 with random integer coefficients, or, now
    and then, the lift of a product mod one ell of the batch with a squared
    factor, so that only that ell sees a repeated factor; a leading
    coefficient divisible by an ell of the batch now and then."""
    n, ell = rng.randint(1, 12), rng.choice(ells)
    coeffs = [rng.randint(-1000, 1000) for _ in range(n)] + [rng.choice([1, -1, 3, 7])]
    if n >= 2 and rng.random() < 0.3:
        m = [rng.randrange(ell) for _ in range(rng.randint(1, n // 2))] + [1]
        rest = [rng.randrange(ell) for _ in range(n - 2 * (len(m) - 1))] + [1]
        product = IntPoly(m) * IntPoly(m) * IntPoly(rest)
        coeffs = [c + ell * rng.randint(-3, 3) for c in product.coeffs]
    if rng.random() < 0.1:
        coeffs[-1] = ell * rng.randint(1, 3)
    return IntPoly(coeffs)


def test_batch_matches_the_per_ell_reference():
    """Batches that mix ell <= deg with ell > deg, repeat an ell, put
    1,000,003 beside 2, hold a number that is not prime or run past the 32
    ells of one product modulus give, ell by ell, the splitting reference's
    cycle types and None at a non-squarefree reduction, or the first error
    of a loop."""
    rng = random.Random("cycle-types/batch")
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    more = [ell for ell in range(53, 400) if all(ell % q for q in range(2, ell))]
    values, errors, nones = [], set(), 0
    for _ in range(300):
        ells = rng.sample(primes, rng.randint(1, 6))
        if rng.random() < 0.3:
            ells.append(rng.choice(ells))
        if rng.random() < 0.25:
            i = rng.randrange(len(ells) + 1)
            ells[i:i] = [2, 1_000_003]
        if rng.random() < 0.05:
            ells += rng.sample(more, 33)
        if rng.random() < 0.05:
            ells.insert(rng.randrange(len(ells) + 1), rng.choice([1, 4, 9]))
        f = _batch_input(rng, [ell for ell in ells if ell in primes])
        want = _looped(f, ells)
        try:
            got = cycle_types(f, ells)
        except (InconsistencyError, ValueError) as exc:
            got = type(exc), str(exc)
        assert got == want, (f, ells)
        if isinstance(want, list):
            values.append((f.degree, ells))
            nones += want.count(None)
        else:
            errors.add(want)
    assert errors == {(InconsistencyError, "ramified or non-squarefree reduction"),
                      (InconsistencyError, "leading coefficient vanishes mod ell"),
                      (ValueError, "1 is not prime"), (ValueError, "4 is not prime"),
                      (ValueError, "9 is not prime")}
    assert len(values) >= 100
    assert nones
    assert any(min(ells) <= n < max(ells) for n, ells in values)
    assert any(2 in ells and 1_000_003 in ells for n, ells in values)
    assert any(len(set(ells)) < len(ells) for n, ells in values)
    assert any(len(ells) > 32 for n, ells in values)


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


def test_none_exactly_at_the_primes_of_the_discriminant():
    """The monic 5-17-1 sextic at every prime below 100: None at the primes
    dividing its discriminant, the splitting reference's type elsewhere."""
    sextic = load_bundled_case("5-17-1").sextic
    primes = [ell for ell in range(2, 100) if all(ell % q for q in range(2, ell))]
    disc, got = discriminant(sextic), cycle_types(sextic, primes)
    assert sextic.is_monic()
    assert [ell for ell, ct in zip(primes, got) if ct is None] == [
        ell for ell in primes if disc % ell == 0] != []
    for ell, ct in zip(primes, got):
        if ct is not None:
            assert ct == _splitting_cycle_type(sextic, ell), ell


def _counting(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(polynomial, "discriminant", counted)
    return calls


def test_verify_case_computes_one_discriminant(monkeypatch):
    calls = _counting(monkeypatch)
    for name in GOLDEN:
        before = len(calls)
        verify_case(load_bundled_case(name))
        assert len(calls) - before == 1, name


def test_cycle_types_computes_at_most_one_discriminant(monkeypatch):
    """One discriminant per call, whatever the batch size (70 ells run as
    three products mod m), none at degree 1 or before the first prime, and
    one for a single call that raises at ell | lc."""
    calls = _counting(monkeypatch)
    sextic = load_bundled_case("5-17-1").sextic
    primes = [ell for ell in range(2, 400) if all(ell % q for q in range(2, ell))][:70]
    cycle_types(sextic, primes)
    assert len(calls) == 1
    cycle_types(IntPoly([3, 1]), primes)
    with pytest.raises(ValueError):
        cycle_types(sextic, [4, 2])
    assert len(calls) == 1
    with pytest.raises(InconsistencyError):
        cycle_type_mod_ell(IntPoly([1, 1, 3]), 3)
    assert len(calls) == 2
