"""Geodesic sphere toolkit.

Builds geodesic spheres from Platonic and Archimedean seeds by lattice
tessellation and central projection, derives Goldberg duals, pyramid
augmentations, and domes, and analyzes the results: strut schedules,
edge-length classes, symmetry circles, congruence, and rigidity.
"""

from __future__ import annotations

from . import analysis, errors, io, mesh, tessellation, transforms
from .analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .io import *  # noqa: F403
from .mesh import *  # noqa: F403
from .tessellation import *  # noqa: F403
from .transforms import *  # noqa: F403

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += analysis.__all__
__all__ += errors.__all__
__all__ += io.__all__
__all__ += mesh.__all__
__all__ += tessellation.__all__
__all__ += transforms.__all__
