"""Marked-box calculus and Farey patterns of geodesics in the space of ellipsoids.

The library realizes the modular-group action on marked boxes in the
projective plane, transports it to the symmetric space of unit-volume
ellipsoids, and exports the resulting pattern of medial geodesics, its
limit-set flags, and the prism bending data.
"""

from importlib import import_module

from .projective import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateFlags,
    DegenerateQuadruple,
    Flag,
    HomVec,
    NonElliptic,
    NotCollinear,
    Polarity,
    ProjLine,
    ProjMap,
    ProjPoint,
    PappusError,
    ProjectiveError,
    SingularMap,
    cross_ratio,
    incident,
    is_elliptic,
    join,
    meet,
    standard_polarity,
    triple_product,
)
from .markedbox import (
    DegenerateBox,
    DualMarkedBox,
    MarkedBox,
    OutOfRange,
    apply_word_box,
    base_box,
    bottom_flag,
    box_polarity,
    box_triple_product,
    doppelganger,
    model_box,
    op_b,
    op_i,
    op_t,
    orbit_enumerate,
    pattern_boxes,
    polarity_box_to_dual,
    polarity_dual_to_box,
    raw_invariant,
    tb_tree,
    top_flag,
    triple_invariant,
)
from .fareycomb import (
    INF,
    FareyError,
    LimitFlag,
    NotAdjacent,
    OrientedEdge,
    Rational,
    default_base_edge,
    edge_b,
    edge_i,
    edge_t,
    fold_limit_flags,
    limit_set_flags,
    word_apply,
)
# Float geometry in X loads numpy, so its names are imported on first access
# (PEP 562): ``pappus.XPoint`` works, and a program that reads only the exact
# layers never imports numpy.
_LAZY = {
    "symmspace": (
        "CollinearVertices", "ConvergenceFailure", "Flat", "NotPositiveDefinite",
        "NumericalFailure", "PointOffFlat", "SymmSpaceError", "XGeodesic", "XPoint",
        "ZeroDirection",
        "boundary_ray_class", "duality_action", "flat_from_triangle", "flat_geodesic",
        "geodesic_between", "geodesic_point", "group_action", "jacobi_eigh", "metric_d",
        "polarity_fixed_point",
    ),
    "fareypattern": (
        "FareyPattern", "PatternError", "PatternGeodesic", "build_pattern", "flat_of_flags",
        "geodesic_of_box", "min_distance_flats", "one_end_asymptotic",
    ),
    "prisms": (
        "AdjacencyReport", "BendingReport", "ConeMesh", "ConsistencyFailure",
        "DegenerateTriple", "DiagonalLocus", "InflectionData", "Prism", "PrismError",
        "PrismReport", "UnityTripleProduct", "bending_report", "cone_fill_sample",
        "mesh_to_obj", "order3_axis", "order3_transform", "prism_inflection_data",
        "prism_of_triangle", "stabilizing_polarities", "translation_T",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"
