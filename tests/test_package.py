import os
import pickle
import subprocess
import sys
import types

import pytest

import padic_serre
from padic_serre import Fp2Elem, IntPoly, LevelDatum, NewtonPolygon, RamFiltration
from padic_serre.arith import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_all_exports_resolve_to_non_module_attributes():
    assert padic_serre.__all__
    for name in padic_serre.__all__:
        value = getattr(padic_serre, name)
        assert not isinstance(value, types.ModuleType), name


def test_cli_import_stays_lean():
    # -S: no site hooks, which may preload any of these on their own
    probe = ("import sys, padic_serre.cli; print(' '.join(m for m in"
             " ('dataclasses', 'inspect', 'importlib.resources') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert proc.stdout.split() == []


def test_records_are_read_only_values():
    datum = LevelDatum(13, RamFiltration(((3, 1),)))
    assert datum == LevelDatum(13, RamFiltration(((3, 1),), dim=3))
    assert hash(datum) == hash(LevelDatum(13, RamFiltration(((3, 1),))))
    assert datum != LevelDatum(7, RamFiltration(((3, 1),)))
    assert pickle.loads(pickle.dumps(datum)) == datum
    assert repr(NewtonPolygon(())) == "NewtonPolygon(segments=(), infinite_mult=0)"
    assert datum.__eq__((13, RamFiltration(((3, 1),)))) is NotImplemented
    with pytest.raises(AttributeError):
        datum.q = 7
    with pytest.raises(AttributeError):
        del datum.filtration
    x = Fp2Elem(5, 7, -1)
    assert isinstance(x, Record) and x == Fp2Elem(5, 2, 4) and hash(x) == hash((5, 2, 4))
    assert pickle.loads(pickle.dumps(x)) == x and repr(x) == "(2 + 4*w mod 5)"
    with pytest.raises(AttributeError):
        x.c0 = 0
    f = IntPoly([-6, 1, 0])
    assert isinstance(f, Record) and f == IntPoly([-6, 1]) and hash(f) == hash(IntPoly([-6, 1]))
    assert pickle.loads(pickle.dumps(f)) == f and repr(f) == "IntPoly(x - 6)"
    with pytest.raises(AttributeError):
        f.coeffs = (1,)
