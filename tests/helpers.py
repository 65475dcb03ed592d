"""Helpers that only the tests call: the eigenvalue record whose Hecke
polynomial is a given cubic, Horner evaluation of an ``IntPoly``, and the
slopes and total multiplicity of a Newton polygon."""

from padic_serre.errors import InconsistencyError
from padic_serre.hecke import EigenvalueRecord


def solve_record(ell, cubic, p):
    """Invert ``hecke_poly`` coefficientwise: the eigenvalue record whose
    Hecke polynomial is the given cubic of coefficient pairs (c0, c1), as
    ``class_charpolys`` and a report's charpolys give them (constant
    coefficient must be 1)."""
    if len(cubic) != 4 or (cubic[0][0] % p, cubic[0][1] % p) != (1, 0):
        raise InconsistencyError("cubic must have constant coefficient 1")
    ell_mod = ell % p
    if ell_mod == 0:
        raise InconsistencyError(f"ell = {ell} is divisible by p = {p}")
    # a1 = -c1, a2 = c2 / ell, a3 = -c3 / ell^3
    scales = (-1, pow(ell_mod, -1, p), -pow(ell_mod, -3, p))
    return EigenvalueRecord(ell, *[(c0 * s, c1 * s) for (c0, c1), s in zip(cubic[1:], scales)], p)


def evaluate(f, x):
    """f(x) by Horner; exact for int and Fraction arguments."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def slope_multiset(polygon):
    """Each finite slope repeated by its multiplicity."""
    return [s for s, m in polygon.segments for _ in range(m)]


def total_multiplicity(polygon):
    return sum(m for _, m in polygon.segments) + polygon.infinite_mult
