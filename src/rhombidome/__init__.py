"""rhombidome: reduce closed unit-edge curves to unit rhombi, verifiably.

The package has two halves.  The constructive half turns any closed curve
with unit-length edges into a union of unit rhombi through recorded pivot
moves and pentagon peels, emitting a ledger whose boundary bookkeeping an
independent checker can replay and verify.  The numerical half treats
polygon and polyhedron realizations as constraint manifolds and certifies
tangent dimensions, the kernel of the skew pairing, and the isotropy/rank
bounds of the boundary map of oriented surfaces.
"""

from .geom import EPS, Circle3, Plane
from .curve import (
    IntegralCurve,
    from_integer_curve,
    is_planar,
    random_integral_curve,
)
from .cobordism import (
    apply_pivot,
    pack,
    pentagon_split,
    planarize,
    reduce_to_rhombi,
    steinitz_order,
)
from .surface import (
    CobordismLedger,
    DomeChain,
    GraphSurface,
    PivotMove,
    Rhombus,
    TriangleFace,
    assemble_from_ledger,
    catalog,
    collapse,
    hexagon_join,
    validate_ledger,
)
from . import moduli

__all__ = [
    "EPS",
    "Circle3",
    "Plane",
    "IntegralCurve",
    "from_integer_curve",
    "is_planar",
    "random_integral_curve",
    "CobordismLedger",
    "PivotMove",
    "Rhombus",
    "TriangleFace",
    "apply_pivot",
    "pack",
    "pentagon_split",
    "planarize",
    "reduce_to_rhombi",
    "steinitz_order",
    "DomeChain",
    "GraphSurface",
    "assemble_from_ledger",
    "catalog",
    "collapse",
    "hexagon_join",
    "validate_ledger",
    "moduli",
]

__version__ = "0.1.0"
