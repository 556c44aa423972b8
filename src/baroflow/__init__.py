"""Riemannian geometry of barotropic compressible flow: warped-product
metric, curvature, geodesic (Euler) integration, Jacobi fields, closed-form
1D solutions, torus shear modes, and the rotating-disc spectrum.
"""

__version__ = "0.1.0"

from . import burgers, disc, geodesic, geometry, grids, jacobi, pressure, torus
from .errors import (
    BaroflowError,
    DomainError,
    GridMismatchError,
    InstabilityFlagError,
    ProjectionResidualError,
    ShockError,
    StepSizeError,
    VacuumError,
)
from .grids import CircleGrid, DiscGrid, ScalarField, TorusGrid, VectorField
from .pressure import PressureModel, polytropic

__all__ = [
    "__version__",
    "burgers", "disc", "geodesic", "geometry", "grids", "jacobi",
    "pressure", "torus",
    "BaroflowError", "DomainError", "GridMismatchError",
    "InstabilityFlagError", "ProjectionResidualError",
    "ShockError", "StepSizeError", "VacuumError",
    "CircleGrid", "DiscGrid", "ScalarField", "TorusGrid", "VectorField",
    "PressureModel", "polytropic",
]
