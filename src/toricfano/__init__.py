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
    VarietyAnalysis,
    VarietyRecord,
    analyse,
    analyse_each,
    parse,
    record_fan,
    render,
    shipped_database,
    validate_record,
)
from .chern import (
    Ch2Report,
    ch2_dot_surface,
    classify,
    divisor_dot_curve,
    divisor_dot_surface,
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


def __getattr__(name: str):
    """Forward ``REFERENCE_TABLE`` from :mod:`toricfano.atlas`, which builds
    it on first access."""
    if name == "REFERENCE_TABLE":
        return atlas.REFERENCE_TABLE
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
