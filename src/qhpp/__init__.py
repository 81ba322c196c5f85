"""Exact arithmetic for Hirzebruch-Jung continued fractions, blow-ups of the
plane at the divisor-class level, chain contractions, and the canonical-class
trichotomy of the resulting rank-one rational surfaces."""

from .contraction import ContractionPlan, KClass, QhppReport, contract
from .families import (
    FAMILY_IDS,
    BuildCheckError,
    FamilyBuild,
    build,
    build_S1,
    build_S1_variant,
    build_S3,
    build_S3_variant,
    build_T,
)
from .hjcf import (
    CyclicSingularity,
    HJFraction,
    PartialOrders,
    bump_determinant,
    determinant,
    discrepancy_coefficients,
    evaluate,
    expand,
    make_pattern,
    normalize_type,
    partial_orders,
    pattern_determinant,
    reverse,
)
from .kollar import KollarParams, KollarWeights, NonPrimitiveWeights, singularity_types, weights
from .lattice import BlowupStep, ChainShapeError, CurveClass, DualGraph, SurfaceModel

__version__ = "0.1.0"

__all__ = [
    "BlowupStep",
    "BuildCheckError",
    "ChainShapeError",
    "ContractionPlan",
    "CurveClass",
    "CyclicSingularity",
    "DualGraph",
    "FAMILY_IDS",
    "FamilyBuild",
    "HJFraction",
    "KClass",
    "KollarParams",
    "KollarWeights",
    "NonPrimitiveWeights",
    "PartialOrders",
    "QhppReport",
    "SurfaceModel",
    "build",
    "build_S1",
    "build_S1_variant",
    "build_S3",
    "build_S3_variant",
    "build_T",
    "bump_determinant",
    "contract",
    "determinant",
    "discrepancy_coefficients",
    "evaluate",
    "expand",
    "make_pattern",
    "normalize_type",
    "partial_orders",
    "pattern_determinant",
    "reverse",
    "singularity_types",
    "weights",
]
