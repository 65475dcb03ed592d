import os
import pickle
import subprocess
import sys
import types

import pytest

import padic_serre
from padic_serre import EigenvalueRecord, IntPoly, LevelDatum, NewtonPolygon, RamFiltration
from padic_serre.arith import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_all_exports_resolve_to_non_module_attributes():
    assert padic_serre.__all__
    for name in padic_serre.__all__:
        value = getattr(padic_serre, name)
        assert not isinstance(value, types.ModuleType), name


def test_public_api_is_pinned():
    assert padic_serre.__all__ == [
        "AttachmentVerdict", "Certificate", "DirichletCharacter", "EigenvalueRecord",
        "EvidenceError", "InconsistencyError", "InertiaProfile", "IntPoly",
        "LevelDatum", "NewtonPolygon", "ORD_INFINITY", "PadicSerreError", "PrecisionReport",
        "RamFiltration", "SchemaError", "Triple", "a6_mod3_class_polys",
        "certify_same_extension", "char_value", "check_attached",
        "coarse_from_cycle_type", "cube_root_of_unity", "cycle_type_mod_ell", "discriminant",
        "frob_charpoly", "frobenius_class", "hecke_poly", "inverse_class", "is_eisenstein",
        "level", "level_exponent", "nebentype_factor", "newton_polygon", "ord_p", "p_restrict",
        "precision_k", "precision_report", "predicted_weights", "resultant", "resultant_margin",
        "root_diff_poly", "weighted_resultant_margin",
    ]


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
    x = EigenvalueRecord(7, (7, -1), (0, 5), (1, 0), 5)
    assert isinstance(x, Record) and x == EigenvalueRecord(7, (2, 4), (0, 0), (1, 0), 5)
    assert hash(x) == hash((7, (2, 4), (0, 0), (1, 0), 5)) and pickle.loads(pickle.dumps(x)) == x
    assert repr(x) == "EigenvalueRecord(ell=7, a1=(2, 4), a2=(0, 0), a3=(1, 0), p=5)"
    with pytest.raises(AttributeError):
        x.a1 = (0, 0)
    f = IntPoly([-6, 1, 0])
    assert isinstance(f, Record) and f == IntPoly([-6, 1]) and hash(f) == hash(IntPoly([-6, 1]))
    assert pickle.loads(pickle.dumps(f)) == f and repr(f) == "IntPoly(x - 6)"
    with pytest.raises(AttributeError):
        f.coeffs = (1,)
