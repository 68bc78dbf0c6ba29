"""Curves, twists, and round-handle surgery on polygon-scheme surfaces."""

from .curves import (
    Anchor,
    Arc,
    ClosedCurve,
    algebraic_intersection,
    arcs_isotopic,
    curves_isotopic,
    geometric_intersection,
    is_simple,
)
from .schemes import (
    PolygonScheme,
    Relabeling,
    Scheme,
    antipodal_polygon_scheme,
    hexagon_scheme,
    square_torus_scheme,
)
from .surgery import Projection, SurgeryResult, project, round_surgery
from .twists import TwistWord, dehn_twist, relabel_curve

__all__ = [
    "Anchor",
    "Arc",
    "ClosedCurve",
    "PolygonScheme",
    "Projection",
    "Relabeling",
    "Scheme",
    "SurgeryResult",
    "TwistWord",
    "algebraic_intersection",
    "antipodal_polygon_scheme",
    "arcs_isotopic",
    "curves_isotopic",
    "dehn_twist",
    "geometric_intersection",
    "hexagon_scheme",
    "is_simple",
    "project",
    "relabel_curve",
    "round_surgery",
    "square_torus_scheme",
]
