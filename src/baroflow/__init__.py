"""Riemannian geometry of barotropic compressible flow: warped-product
metric, curvature, geodesic (Euler) integration, Jacobi fields, closed-form
1D solutions, torus shear modes, and the rotating-disc spectrum.
"""

import os
import sys

# one BLAS thread, as first numpy user (the CLI): a second only spins on the
# small interpolation matvecs.  A count the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import burgers, disc, geodesic, geometry, grids, jacobi, pressure, torus
from .errors import (
    BaroflowError,
    DomainError,
    GridMismatchError,
    InstabilityFlagError,
    ShockError,
    StepSizeError,
    VacuumError,
)
from .grids import CircleGrid, ScalarField, TorusGrid, VectorField
from .pressure import PressureModel, polytropic

__all__ = [
    "__version__",
    "burgers", "disc", "geodesic", "geometry", "grids", "jacobi",
    "pressure", "torus",
    "BaroflowError", "DomainError", "GridMismatchError",
    "InstabilityFlagError", "ShockError", "StepSizeError", "VacuumError",
    "CircleGrid", "ScalarField", "TorusGrid", "VectorField",
    "PressureModel", "polytropic",
]
