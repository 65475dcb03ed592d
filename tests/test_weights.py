import json
import random
import signal
from itertools import product

import pytest

from padic_serre.arith import _PRIME_LIMIT, is_prime, legendre_symbol
from padic_serre.cli import main
from padic_serre.errors import InconsistencyError
from padic_serre.weights import (
    DirichletCharacter,
    InertiaProfile,
    Triple,
    is_p_restricted,
    nebentype_factor,
    p_restrict,
    predicted_weights,
)


def _set(*triples):
    return {Triple(*t) for t in triples}


def test_p_restrict_unipotent_cases():
    assert p_restrict(0, 0, 0, 3) == _set((2, 1, 0))
    assert p_restrict(0, 0, 0, 5) == _set((6, 3, 0))


def test_p_restrict_split_blocks():
    assert p_restrict(1, 0, 1, 3, ("tres", "tres")) == _set((5, 3, 1))
    assert p_restrict(1, 0, 1, 3, ("peu", "peu")) == _set(
        (5, 3, 1), (3, 3, 1), (3, 1, 1), (1, 1, 1)
    )


def test_p_restrict_mixed_flags():
    top_only = p_restrict(1, 0, 1, 3, ("tres", "peu"))
    assert top_only == _set((5, 3, 1), (3, 1, 1))
    bottom_only = p_restrict(1, 0, 1, 3, ("peu", "tres"))
    assert bottom_only == _set((5, 3, 1), (3, 3, 1))


def test_p_restrict_rejects_bad_flags():
    with pytest.raises(ValueError):
        p_restrict(0, 0, 0, 3, ("sometimes", "never"))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_restrict_exhaustive_properties(p):
    m = p - 1
    for A, B, C in product(range(m), repeat=3):
        out = p_restrict(A, B, C, p)
        assert out
        ambiguous_top = (A - B - 1) % m == 0
        ambiguous_bottom = (B - C - 1) % m == 0
        expected_size = (2 if ambiguous_top else 1) * (2 if ambiguous_bottom else 1)
        assert len(out) == expected_size
        for t in out:
            assert is_p_restricted(t, p)
            assert (t.a - (A - 2)) % m == 0
            assert (t.b - (B - 1)) % m == 0
            assert (t.c - C) % m == 0
        if not ambiguous_top and not ambiguous_bottom:
            assert len(out) == 1


def test_predicted_weights_niveau1():
    uni = InertiaProfile(niveau=1, triples=((0, 0, 0),))
    assert predicted_weights(uni, 3) == _set((2, 1, 0))
    assert predicted_weights(uni, 5) == _set((6, 3, 0))
    split = InertiaProfile(niveau=1, triples=((1, 0, 1),), flags=("tres", "tres"))
    assert predicted_weights(split, 3) == _set((5, 3, 1))


def _niveau2_oracle(k, m, p):
    # independent enumeration straight from the definition, over the
    # unordered conjugate pair of exponents
    out = set()
    mod = p * p - 1
    for mu in {m % mod, m * p % mod}:
        for r in range(mod):
            for s in range(mod):
                if (r + s * p - mu) % mod == 0 and 0 <= r - s <= p - 1:
                    for A, B, C in ((k, r, s), (r, k, s), (r, s, k)):
                        out |= p_restrict(A, B, C, p)
    return out


def test_predicted_weights_niveau2_example():
    profile = InertiaProfile(niveau=2, k=0, m=1)
    got = predicted_weights(profile, 5)
    assert got == _niveau2_oracle(0, 1, 5)
    # hand reduction: decompositions (r,s) = (4j+1, 4j) give residue classes
    # (2,0,0) and (3,3,0) mod 4, with one split-block ambiguity each
    assert got == _set((2, 0, 0), (6, 4, 0), (3, 3, 0), (7, 3, 0))


def test_predicted_weights_niveau2_frobenius_invariance():
    rng = random.Random(50)
    for p in (3, 5):
        for _ in range(20):
            m = rng.randrange(p * p - 1)
            if (m * p - m) % (p * p - 1) == 0:
                continue  # not genuinely niveau 2
            k = rng.randrange(p - 1)
            w1 = predicted_weights(InertiaProfile(niveau=2, k=k, m=m), p)
            w2 = predicted_weights(InertiaProfile(niveau=2, k=k, m=(m * p) % (p * p - 1)), p)
            assert w1 == w2


def test_predicted_weights_niveau2_resolves_through_conjugate():
    # m = 5 itself admits no (r, s) split at p = 5, but its conjugate 5m = 1
    # does; the unordered pair must behave like m = 1
    via_conjugate = predicted_weights(InertiaProfile(niveau=2, k=0, m=5), 5)
    direct = predicted_weights(InertiaProfile(niveau=2, k=0, m=1), 5)
    assert via_conjugate == direct


def test_predicted_weights_niveau2_rejects_degenerate_m():
    with pytest.raises(InconsistencyError):
        predicted_weights(InertiaProfile(niveau=2, k=0, m=0), 5)


def _niveau3_oracle(m, p):
    out = set()
    mod = p**3 - 1
    for mu in {m % mod, m * p % mod, m * p * p % mod}:
        for t in range(mod):
            for d1 in range(p):
                for d2 in range(p):
                    r, s = t + d1, t + d2
                    if (r + s * p + t * p * p - mu) % mod == 0:
                        A, B, _ = sorted((r, s, t), reverse=True)
                        out |= p_restrict(A, B, t, p)
    return out


def test_predicted_weights_niveau3_small():
    p = 2
    for m in (1, 3):
        orbit = {m % 7, (2 * m) % 7, (4 * m) % 7}
        if len(orbit) != 3:
            continue
        profile = InertiaProfile(niveau=3, m=m)
        got = predicted_weights(profile, p)
        assert got == _niveau3_oracle(m, p)
        twisted = predicted_weights(InertiaProfile(niveau=3, m=(2 * m) % 7), p)
        assert got == twisted


def test_predicted_weights_niveau3_rejects_short_orbit():
    with pytest.raises(InconsistencyError):
        predicted_weights(InertiaProfile(niveau=3, m=0), 2)


def _niveau2_scan(k, m, p):
    # enumeration over s, O(p^2): the reference for the digit rule at niveau 2
    out = set()
    mod = p * p - 1
    k = k % (p - 1)
    for mu in {m % mod, m * p % mod}:
        for s in range(mod):
            r = (mu - s * p) % mod
            if 0 <= r - s <= p - 1:
                for A, B, C in ((k, r, s), (r, k, s), (r, s, k)):
                    out |= p_restrict(A, B, C, p)
    return out


def _reference_weights(profile, p):
    """predicted_weights by enumeration: the genuine-niveau checks, then
    the scan over s at niveau 2 and the O(p^5) oracle at niveau 3."""
    m = profile.m
    if profile.niveau == 2:
        if (m * p - m) % (p * p - 1) == 0:
            raise InconsistencyError("m is fixed by x -> p*x: not genuinely niveau 2")
        out = _niveau2_scan(profile.k, m, p)
    else:
        mod = p**3 - 1
        if len({m % mod, m * p % mod, m * p * p % mod}) != 3:
            raise InconsistencyError("m does not have a full orbit: not genuinely niveau 3")
        out = _niveau3_oracle(m, p)
    if not out:
        raise InconsistencyError("decomposition impossible")
    return out


def _seeded_profiles():
    """208 profiles: 20 per prime at niveau 2, and at niveau 3 20 per prime
    up to 7 and 4 at 11 and 13 (the oracle is O(p^5)).  m cycles through a
    residue, a negative value, a value past p^h - 1 and a multiple of
    1 + p + ... + p^(h-1), whose orbit is degenerate; k is any integer."""
    rng = random.Random(20041012)
    for p in (2, 3, 5, 7, 11, 13):
        for niveau, count in ((2, 20), (3, 20 if p <= 7 else 4)):
            mod = p**niveau - 1
            for i in range(count):
                m = (rng.randrange(mod), rng.randrange(-5 * mod, 0),
                     rng.randrange(mod, 5 * mod),
                     mod // (p - 1) * rng.randrange(-2, 2 * p))[i % 4]
                k = rng.randrange(-3 * p, 3 * p) if niveau == 2 else None
                yield p, InertiaProfile(niveau=niveau, k=k, m=m)


def _outcome(fn, profile, p):
    try:
        return fn(profile, p)
    except Exception as exc:
        return type(exc), str(exc)


def test_predicted_weights_match_the_enumerations():
    profiles = list(_seeded_profiles())
    assert len(profiles) >= 200
    outcomes = []
    for p, profile in profiles:
        got = _outcome(predicted_weights, profile, p)
        assert got == _outcome(_reference_weights, profile, p), (p, profile)
        outcomes.append(got if isinstance(got, tuple) else "weights")
    assert set(outcomes) == {
        "weights",
        (InconsistencyError, "m is fixed by x -> p*x: not genuinely niveau 2"),
        (InconsistencyError, "m does not have a full orbit: not genuinely niveau 3"),
    }


#: The largest prime that ``is_prime`` decides, 168 below its limit.
LARGEST_PRIME = next(n for n in range(_PRIME_LIMIT - 1, 0, -1) if is_prime(n))


@pytest.mark.parametrize("profile,p", [
    ({"niveau": 3, "m": 123456789}, 1009),
    ({"niveau": 2, "k": 7, "m": 98765432123}, 100003),
    ({"niveau": 3, "m": 123456789}, 10**12 + 39),
    ({"niveau": 3, "m": 123456789}, LARGEST_PRIME),
], ids=["niveau-3-p-1009", "niveau-2-p-100003", "niveau-3-p-13-digits",
        "niveau-3-largest-prime"])
def test_weights_command_at_large_p_within_2_s(tmp_path, capsys, profile, p):
    def expire(signum, frame):
        raise TimeoutError(f"weights at p = {p} ran past 2 s")

    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code = main(["weights", str(path), "--p", str(p)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 3)
    if code == 0:
        assert json.loads(capsys.readouterr().out)["weights"]


def test_sign_at_examples():
    eps17 = DirichletCharacter(3, frozenset({"eps17"}))
    assert pow(2, 8, 17) == 1  # 2 is a square mod 17
    assert eps17.sign_at(2) == 1
    omega4 = DirichletCharacter(3, frozenset({"omega4"}))
    assert omega4.sign_at(3) == -1
    psi8 = DirichletCharacter(3, frozenset({"psi8"}))
    assert psi8.sign_at(7) == 1


def test_char_conductors():
    assert DirichletCharacter(3).conductor == 1
    assert DirichletCharacter(3, frozenset({"eps17"})).conductor == 17
    assert DirichletCharacter(3, frozenset({"omega4", "psi8"})).conductor == 8
    assert DirichletCharacter(3, frozenset({"eps17", "psi8"})).conductor == 136
    assert DirichletCharacter(3, frozenset({"omega4", "psi8"})).kind == "omega4*psi8"


def test_sign_at_rejects_conductor_divisors():
    psi8 = DirichletCharacter(3, frozenset({"psi8"}))
    with pytest.raises(InconsistencyError):
        psi8.sign_at(2)


def test_legendre_multiplicativity():
    rng = random.Random(51)
    primes = [p for p in range(3, 500) if all(p % d for d in range(2, p))]
    for _ in range(1000):
        l1, l2 = rng.choice(primes), rng.choice(primes)
        if l1 == 17 or l2 == 17:
            continue
        assert legendre_symbol(l1 * l2, 17) == legendre_symbol(l1, 17) * legendre_symbol(l2, 17)


def test_nebentype_factor():
    eps17 = DirichletCharacter(3, frozenset({"eps17"}))
    assert nebentype_factor(0, eps17, 17)[0] is eps17
    trivial = DirichletCharacter(3)
    assert nebentype_factor(5, trivial, 12)[0] is trivial
    psi8 = DirichletCharacter(3, frozenset({"psi8"}))
    nebentype_factor(0, psi8, 2**7)
    with pytest.raises(InconsistencyError):
        nebentype_factor(0, psi8, 2**2)
