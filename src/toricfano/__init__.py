"""Exact-arithmetic toolkit for smooth toric Fano 4-folds.

Builds fans from primitive collections or from ray geometry, computes
intersection numbers of the second Chern character of the tangent bundle
with all invariant surfaces, and classifies each variety as 2-Fano, nef or
neither. Ships a validated database of 67 varieties and a command line
front end (``toricfano``).
"""

from .atlas import (
    AtlasDatabase,
    AtlasParseError,
    REFERENCE_TABLE,
    VarietyAnalysis,
    VarietyRecord,
    analyse,
    parse,
    record_fan,
    render,
    shipped_database,
    validate_record,
)
from .chern import (
    Ch2Report,
    anticanonical_degree,
    ch2_dot_surface,
    classify,
    divisor_dot_curve,
    divisor_dot_surface,
    dual_functional,
)
from .fan import (
    Fan,
    FanError,
    PrimitiveRelation,
    build_fan,
    build_fan_from_rays,
    lattice_equivalent,
    minimal_nonfaces,
    primitive_relation,
    reconstruct_rays,
    validate_fan,
)

__version__ = "0.1.0"
