"""Canonical representatives of plane triangles and quadrilaterals up to similarity."""

from . import conversions, errors, geometry, quads, triangles
from .conversions import *
from .errors import *
from .geometry import *
from .quads import *
from .triangles import *

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package re-exports them all
__all__ = [
    *conversions.__all__,
    *errors.__all__,
    *geometry.__all__,
    *quads.__all__,
    *triangles.__all__,
    "__version__",
]
