"""rhombidome: reduce closed unit-edge curves to unit rhombi, verifiably.

The package has two halves.  The constructive half turns any closed curve
with unit-length edges into a union of unit rhombi through recorded pivot
moves and pentagon peels, emitting a ledger whose boundary bookkeeping an
independent checker can replay and verify.  The numerical half treats
polygon and polyhedron realizations as constraint manifolds and certifies
tangent dimensions, the kernel of the skew pairing, and the isotropy/rank
bounds of the boundary map of oriented surfaces.

Only the numerical half needs scipy, so ``rhombidome.moduli`` is imported on
first use: reducing and validating load numpy alone.
"""

import importlib

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
    assemble_from_ledger,
    catalog,
    collapse,
    hexagon_join,
    validate_ledger,
)

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


def __getattr__(name: str):
    # PEP 562: ``rhombidome.moduli`` imports scipy, so load it on first access.
    # importlib, not ``from . import moduli``: the fromlist lookup of a module
    # not yet imported calls this hook again and recurses.
    if name == "moduli":
        return importlib.import_module(f"{__name__}.moduli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
