"""Exact integer polynomial algebra.

A polynomial is a tuple of arbitrary-precision integer coefficients,
``coeffs[i]`` the coefficient of x^i; trailing zeros are stripped so the
leading coefficient is nonzero (the zero polynomial has an empty tuple).

Provides resultants (fraction-free Sylvester determinants), discriminants,
shifts f(x+a), p-adic Newton polygons, the root-difference polynomial whose
slopes are the pairwise root-distance valuations, and cycle types via
distinct-degree factorization over F_ell.  The cycle type works mod ell
throughout: squarefreeness is gcd(r, r') = 1 in F_ell[x] (the integer
discriminant is only computed when ell divides the leading coefficient), and
Frobenius acts on F_ell[x]/(r) through precomputed rows x^(ell*i) mod r.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .arith import Record, is_prime, ord_p
from .errors import InconsistencyError, json_int


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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

    def __call__(self, x):
        """Evaluate by Horner; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.segments) + self.infinite_mult

    def largest_finite_slope(self) -> Fraction:
        if not self.segments:
            raise InconsistencyError("polygon has no finite slope")
        return self.segments[-1][0]

    def slope_multiset(self) -> list[Fraction]:
        out: list[Fraction] = []
        for s, m in self.segments:
            out.extend([s] * m)
        return out

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


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list[int], b: list[int]) -> list[int]:
    """Integer product; the caller reduces it with _fp_divmod."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fp_divmod(a: list[int], m: list[int], ell: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic m over F_ell, taking one
    % ell per coefficient; the quotient is left in the top of a."""
    a = list(a)
    k = len(m) - 1
    for top in range(len(a) - 1, k - 1, -1):
        c = a[top] = a[top] % ell
        if c:
            for i in range(k):
                a[top - k + i] -= c * m[i]
    return a[k:], _fp_trim([x % ell for x in a[:k]])


def _fp_gcd(a: list[int], b: list[int], ell: int) -> list[int]:
    """Monic gcd of a monic a and any b."""
    while b:
        inv = pow(b[-1], -1, ell)
        b = [c * inv % ell for c in b]
        a, b = b, _fp_divmod(a, b, ell)[1]
    return a


def _frobenius_rows(r: list[int], ell: int) -> list[list[int]]:
    """x^(ell*i) mod r for i < deg r: h -> h^ell on F_ell[x]/(r) is the
    linear map sending x^i to row i."""
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


def cycle_type_mod_ell(T: IntPoly, ell: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of T mod ell, sorted descending.

    Uses distinct-degree factorization (gcds with x^(ell^d) - x); the
    factors themselves are never needed.  Requires the reduction to stay
    squarefree.  When ell does not divide lc(T) that is decided in
    F_ell[x] as gcd(r, r') = 1, equivalent to ell not dividing disc(T);
    only when ell | lc(T) is the integer discriminant computed, to choose
    the error message.  Each step applies Frobenius h -> h^ell through
    the precomputed rows x^(ell*i) mod r, which are reduced modulo r
    again whenever a factor is split off.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if T.degree < 1:
        raise ValueError("constant polynomial has no cycle type")
    if T.leading % ell == 0:
        if T.degree >= 2 and discriminant(T) % ell == 0:
            raise InconsistencyError("ramified or non-squarefree reduction")
        raise InconsistencyError("leading coefficient vanishes mod ell")
    inv = pow(T.leading, -1, ell)
    r = [c * inv % ell for c in T.coeffs]
    if len(_fp_gcd(r, _fp_trim([i * c % ell for i, c in enumerate(r)][1:]), ell)) > 1:
        raise InconsistencyError("ramified or non-squarefree reduction")
    rows = _frobenius_rows(r, ell)
    parts: list[int] = []
    h = [0, 1]  # x
    d = 0
    while 2 * (d + 1) <= len(r) - 1:
        d += 1
        acc = [0] * (len(r) - 1)
        for c, row in zip(h, rows):
            if c:
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
