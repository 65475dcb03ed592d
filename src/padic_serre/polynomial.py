"""Exact integer polynomial algebra.

An ``IntPoly`` is a read-only ``Record`` of one tuple of integers,
``coeffs[i]`` the coefficient of x^i; trailing zeros are stripped so the
leading coefficient is nonzero (the zero polynomial has an empty tuple).

Provides resultants (fraction-free Sylvester determinants), discriminants,
shifts f(x+a), p-adic Newton polygons, the root-difference polynomial whose
slopes are the pairwise root-distance valuations, and cycle types by a
distinct-degree factorization that counts the factors of each degree and
never splits them off, for many ells from one Frobenius matrix Q (rows
x^(ell*i) mod r) over Z/(product of the ells), which the CRT splits into
each F_ell[x]/(r): for ell > deg r the counts of degree 1 and 2 are Tr Q
and Tr Q^2 mod ell, the others degrees of gcds; r is squarefree when ell
does not divide disc(T), computed once per call.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import mul

from .arith import Record, _require_prime, ord_p
from .errors import InconsistencyError, json_int


class IntPoly(Record):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(tuple(cs))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        if self.is_zero():
            return "IntPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = abs(c)
            body = term if (mag == 1 and i) else (f"{mag}*{term}" if i else f"{mag}")
            parts.append(("- " if c < 0 else "+ " if parts else "") + body)
        return "IntPoly(" + " ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, a: int) -> "IntPoly":
        """The polynomial f(x+a), computed exactly by in-place Taylor steps."""
        cs = list(self.coeffs)
        n = len(cs)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                cs[i] += a * cs[i + 1]
        return IntPoly(cs)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[str]:
        """Decimal coefficient strings, constant term first."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, payload) -> "IntPoly":
        """Coefficients must be ints or decimal strings; floats and bools
        are rejected rather than silently truncated."""
        if not isinstance(payload, list):
            raise ValueError("polynomial payload must be a list of coefficients")
        return cls([json_int(c) for c in payload])


# ---------------------------------------------------------------------------
# resultants and discriminants


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant; all divisions below are exact."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Sylvester-matrix resultant of two nonzero integer polynomials."""
    if f.is_zero() or g.is_zero():
        raise InconsistencyError("resultant requires nonzero polynomials")
    n, m = f.degree, g.degree
    if n == 0:
        return f.constant**m
    if m == 0:
        return g.constant**n
    size = n + m
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + fd + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gd + [0] * (size - m - 1 - i))
    return _bareiss_det(rows)


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f.leading)
    if rem:
        raise AssertionError("discriminant division not exact")
    return q


# ---------------------------------------------------------------------------
# Newton polygons


class NewtonPolygon(Record):
    """Slope/multiplicity pairs (slopes strictly increasing) plus the
    multiplicity of the infinite slope coming from trailing zero
    coefficients (roots at 0)."""

    __slots__ = ("segments", "infinite_mult")

    def __init__(self, segments: tuple[tuple[Fraction, int], ...], infinite_mult: int = 0):
        self._set(segments, infinite_mult)

    def largest_finite_slope(self) -> Fraction:
        if not self.segments:
            raise InconsistencyError("polygon has no finite slope")
        return self.segments[-1][0]

    def to_json(self) -> dict:
        return {
            "segments": [{"slope": str(s), "multiplicity": m} for s, m in self.segments],
            "infinite_multiplicity": self.infinite_mult,
        }


def newton_polygon(f: IntPoly, p: int) -> NewtonPolygon:
    """Lower convex hull of (i, ord_p of the x^(n-i) coefficient).

    Slopes are the valuations of the roots, counted with multiplicity;
    a factor x^t shows up as infinite-slope multiplicity t.
    """
    if f.is_zero():
        raise InconsistencyError("newton polygon of the zero polynomial")
    n = f.degree
    t = 0
    while f.coeffs[t] == 0:
        t += 1
    # x-coordinate measured from the leading coefficient
    pts = [(n - j, ord_p(c, p)) for j in range(n, t - 1, -1) if (c := f.coeffs[j]) != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it sits on or above the chord hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(tuple(segments), t)


# ---------------------------------------------------------------------------
# root differences


def _interpolate_int(ys: list[int]) -> list[int]:
    """Coefficients of the polynomial of degree < k = len(ys) taking the
    values ys at t = 0..k-1, in integers: Newton's forward form
    sum_j D^j y_0 * t(t-1)...(t-j+1)/j!, scaled by (k-1)! so that every
    term is an integer, expanded by Horner and divided back exactly;
    asserts the result has integer coefficients."""
    k = len(ys)
    diffs = list(ys)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    # acc <- acc*(x - j) + D^j y_0 * (k-1)!/j!, for j = k-1 down to 0
    acc: list[int] = []
    weight = 1
    for j in range(k - 1, -1, -1):
        acc.insert(0, 0)
        for d in range(len(acc) - 1):
            acc[d] -= j * acc[d + 1]
        acc[0] += diffs[j] * weight
        weight *= j
    scale = factorial(k - 1)
    ints = [divmod(c, scale) for c in acc]
    if any(rem for _, rem in ints):
        raise AssertionError("interpolation produced a non-integer coefficient")
    return [q for q, _ in ints]


def root_diff_poly(f: IntPoly) -> IntPoly:
    """Polynomial of degree n(n-1) whose roots are the differences of the
    roots of f (i != j), via Res_y(f(y), f(x+y)) with the exact x^n factor
    removed.  Its Newton polygon at p lists the valuations ord_p(a_i - a_j).
    """
    n = f.degree
    if n < 2 or not f.is_monic():
        raise ValueError("root_diff_poly needs a monic polynomial of degree >= 2")
    full = _interpolate_int([resultant(f, f.shift(t)) for t in range(n * n + 1)])
    if any(full[:n]) or len(full) != n * n + 1:
        raise AssertionError("resultant lacks the expected x^n factor")
    if full[n] == 0:  # +-disc f: a repeated root leaves a further factor x
        raise InconsistencyError("polynomial is not squarefree")
    return IntPoly(full[n:])


# ---------------------------------------------------------------------------
# factorization degrees mod ell


def _mulmod(a: list[int], b: list[int], r: list[int], ell: int) -> list[int]:
    """a*b mod the monic r over F_ell, as deg r coefficients: the integer
    product, then one reduction step per degree from the top down."""
    n = len(r) - 1
    low = r[:n]
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    for top in range(2 * n - 2, n - 1, -1):
        c = prod[top] % ell
        if c:
            for j, m in enumerate(low, top - n):
                prod[j] -= c * m
    return [c % ell for c in prod[:n]]


def _gcd_degree(a: list[int], b: list[int], ell: int) -> int:
    """deg gcd(a, b) over F_ell, by Euclid's remainders alone; a is reduced
    with a unit leading coefficient, b may hold any integers."""
    while True:
        b = [c % ell for c in b]
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) - 1
        inv, k = pow(b[-1], -1, ell), len(b) - 1
        a = list(a)
        for top in range(len(a) - 1, k - 1, -1):
            c = a[top] * inv % ell
            if c:
                for j, m in enumerate(b[:k], top - k):
                    a[j] -= c * m
        a, b = b, a[:k]


def cycle_types(T: IntPoly, ells) -> list[tuple[int, ...] | None]:
    """``cycle_type_mod_ell`` at each ell, raising in the order of ells, but None
    where ell divides disc(T) (computed once) and not lc(T).  ``_frobenius_types``
    gets 32 ells at a time: products mod m grow faster than the ells they serve."""
    ells, n, disc = tuple(ells), T.degree, None
    for ell in ells:
        _require_prime(ell)
        if n < 1:
            raise ValueError("constant polynomial has no cycle type")
        if disc is None:
            disc = discriminant(T) if n >= 2 else 1
        if T.leading % ell == 0:
            raise InconsistencyError("ramified or non-squarefree reduction" if disc % ell == 0
                                     else "leading coefficient vanishes mod ell")
    batch, found = list(dict.fromkeys(ell for ell in ells if disc % ell)), {}
    for i in range(0, len(batch), 32):
        found.update(zip(batch[i:i + 32], _frobenius_types(T, batch[i:i + 32])))
    return [found.get(ell) for ell in ells]


def _frobenius_types(T: IntPoly, ells: list[int]) -> list[tuple[int, ...]]:
    """The cycle types at distinct primes ells prime to lc(T) disc(T), from one
    Frobenius matrix Q over Z/m, m their product, split by the CRT into the
    F_ell[x]/(r).  x^ell is one power for all ells: square, then move the
    components whose ell has the bit set to x*X, as X + s*(x*X - X), s the
    sum of their CRT idempotents.  For ell > deg T, N_1 and N_2 are Tr Q and
    Tr Q^2 mod ell: Frobenius permutes a normal basis of each factor's field,
    and N_d <= deg T < ell."""
    n = T.degree
    if n == 1:
        return [(1,)] * len(ells)
    m = prod(ells)
    inv = pow(T.leading, -1, m)
    r = [c * inv % m for c in T.coeffs]
    moves = [0] * max(ells).bit_length()  # the idempotents of the ells with bit b set
    for ell in ells:
        e = m // ell * pow(m // ell, -1, ell)
        for b in range(ell.bit_length()):
            moves[b] += e * (ell >> b & 1)
    x_ell = [1 - moves[-1], moves[-1]] + [0] * (n - 2)  # 1 moved at the top bit
    for s in reversed(moves[:-1]):
        x_ell = _mulmod(x_ell, x_ell, r, m)
        if s:  # times x is a shift and one reduction step
            x_ell = [(a + s * (lo - x_ell[-1] * c - a)) % m
                     for a, lo, c in zip(x_ell, [0] + x_ell, r)]
    rows = [[1] + [0] * (n - 1), x_ell]
    while len(rows) < n:
        rows.append(_mulmod(rows[-1], x_ell, r, m))
    cols = list(zip(*rows))
    traces = () if max(ells) <= n else (  # Tr Q^d, d = 0, 1, 2
        n, sum(row[i] for i, row in enumerate(rows)),
        sum(sum(map(mul, row, col)) for row, col in zip(rows, cols)))
    powers, out = [[0, 1] + [0] * (n - 2)], []  # x^(ell^d) mod r, d = 0, 1, ...
    for ell in ells:
        parts, d = [], 0
        while 2 * (d + 1) <= n - sum(parts):
            d += 1
            if ell > n and d <= 2:
                found = traces[d] % ell
            else:
                while len(powers) <= d:
                    powers.append([sum(map(mul, powers[-1], col)) % m for col in cols])
                h = powers[d]
                found = _gcd_degree([c % ell for c in r], [h[0], h[1] - 1] + h[2:], ell)
            parts += [d] * ((found - sum(e for e in parts if d % e == 0)) // d)
        if sum(parts) < n:
            parts.append(n - sum(parts))
        out.append(tuple(sorted(parts, reverse=True)))
    return out


def cycle_type_mod_ell(T: IntPoly, ell: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of T mod ell, sorted descending:
    ``cycle_types(T, (ell,))[0]``, a distinct-degree factorization (Cohen,
    GTM 138, 3.4.3) that never splits.  N_d, the number of roots of r = T
    mod ell in F_(ell^d), is deg gcd(r, x^(ell^d) - x) and the sum of e*c_e
    over e | d, c_e the number of degree-e factors, so c_d follows from N_d
    and the counts below d; once 2d exceeds the degree left, the rest is one
    factor.  r must be squarefree: ell must not divide disc(T)."""
    if (found := cycle_types(T, (ell,))[0]) is None:
        raise InconsistencyError("ramified or non-squarefree reduction")
    return found
