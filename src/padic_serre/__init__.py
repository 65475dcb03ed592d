"""Exact-arithmetic toolkit for p-adic polynomial analysis, same-extension
precision certificates, level/weight prediction for mod-p Galois data, and
Hecke-polynomial attachment checks."""

from types import ModuleType as _ModuleType

from .arith import (
    ORD_INFINITY,
    cube_root_of_unity,
    ord_p,
)
from .errors import (
    EvidenceError,
    InconsistencyError,
    PadicSerreError,
    SchemaError,
)
from .galois_local import LevelDatum, RamFiltration, level, level_exponent
from .hecke import AttachmentVerdict, EigenvalueRecord, check_attached, hecke_poly
from .krasner import (
    Certificate,
    PrecisionReport,
    certify_same_extension,
    is_eisenstein,
    precision_k,
    precision_report,
    resultant_margin,
    weighted_resultant_margin,
)
from .polynomial import (
    IntPoly,
    NewtonPolygon,
    cycle_type_mod_ell,
    discriminant,
    newton_polygon,
    resultant,
    root_diff_poly,
)
from .rep3a6 import (
    a6_mod3_class_polys,
    char_value,
    coarse_from_cycle_type,
    frob_charpoly,
    frobenius_class,
    inverse_class,
)
from .weights import (
    DirichletCharacter,
    InertiaProfile,
    Triple,
    nebentype_factor,
    p_restrict,
    predicted_weights,
)

__all__ = sorted(
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
