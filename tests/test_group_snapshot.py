"""Behaviour lock for the group layer: the explicit triple cover, its
classification, the oracle charpolys, both mod-3 tables and the iteration
order of the mod-3 symmetric-square image are pinned by SHA-256 digests of
their reprs.  The image is the set of the reference closure, whose walk
``test_code_walks_match_the_matrix_walks`` proves equal to Dimino's walk on
codes; set iteration order follows element hashes, so the last digest also
pins ``hash(Fp2Elem)``.  The digests are of the reference's ``Fp2Elem``
values, rebuilt here from the pairs and codes the package returns.  A change
to the field or matrix arithmetic that alters any element, representative
or ordering fails here."""

import hashlib

from padic_serre.matrices import sym_square
from padic_serre.matrix_oracle import _cover_codes, classified_cover, oracle_charpoly
from padic_serre.rep3a6 import COVER_COARSE, a6_mod3_class_polys, sl2_generators

from matrix_reference import Fp2Elem, _matrix_closure, decode, lift

GROUP_SHA256 = {
    "triple_cover_group": "6837f1a63d1052a63e3921e0ed9134c237ff75b3ddc47d443f4034019a2711e7",
    "classified_cover": "567bd9b08193daada7127f53e734390cf4e5807ed36c81e6be9433731ef9cf11",
    "oracle_charpoly_minus": "0f0b8f726af115792ed5cc1101091a5cf28d4db91037e96d88f4d235fd49da5d",
    "a6_mod3_class_polys": "0fff4cb161194a730a06fb9ef2854cd60514a4e592018abbda050fe3528d91f3",
    "sym_square_group_3": "fff65305aa933af928ccc606a8be5d6a817db7af76152b14f397c23d56834411",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _snapshots() -> dict:
    cover = {label: dict(info, trace=Fp2Elem(5, *info["trace"]), charpoly=lift(5, info["charpoly"]),
                         representative=decode(info["representative"], 5))
             for label, info in classified_cover().items()}
    return {
        "triple_cover_group": [decode(a, 5) for a in _cover_codes()],
        "classified_cover": cover,
        "oracle_charpoly_minus": [(label, lift(5, oracle_charpoly(label, -1)))
                                  for label in COVER_COARSE],
        "a6_mod3_class_polys": tuple({label: lift(3, poly) for label, poly in table.items()}
                                     for table in a6_mod3_class_polys()),
        "sym_square_group_3": list(set(
            _matrix_closure([decode(sym_square(g, 3), 3) for g in sl2_generators((1, 3))]))),
    }


def test_group_layer_is_unchanged():
    digests = {name: _digest(value) for name, value in _snapshots().items()}
    assert digests == GROUP_SHA256
