"""Exception types raised by mesh construction, transforms, and analysis.

The default tolerance and the seed names live here too, beside the errors,
because the command line parses its arguments before numpy loads; mesh.py
exports them.
"""

from __future__ import annotations

__all__ = [
    "GeodomeError",
    "DegenerateFace",
    "NonManifoldEdge",
    "EulerViolation",
    "InvalidOrientation",
    "InvalidSpec",
    "NonTriangularSeed",
    "VertexAtCenter",
    "UnsupportedSeed",
    "FaceThroughCenter",
    "TriangularFacePresent",
    "EmptyDome",
    "StrictCutViolation",
    "NonTriangularFace",
    "NotClassI",
    "DegenerateGeometry",
    "ParseError",
    "InvariantViolation",
    "DisconnectedMesh",
]

# Geometry tolerance, relative to the mesh's scale; also the default tol.
DEFAULT_TOL = 1e-9

# The seed polyhedra mesh.seed builds, by name.
SEED_KINDS = ("tetrahedron", "octahedron", "icosahedron", "dodecahedron", "truncated_icosahedron")


class GeodomeError(Exception):
    """Base class for all toolkit errors."""


class DegenerateFace(GeodomeError):
    """A face has fewer than 3 distinct vertex indices, or an index out of range."""


class NonManifoldEdge(GeodomeError):
    """An edge is shared by more than two faces (or more than one on an open mesh boundary side)."""


class EulerViolation(GeodomeError):
    """A closed mesh fails V - S + F = 2."""


class InvalidOrientation(GeodomeError):
    """Face winding is not counter-clockwise viewed from outside, or windings disagree."""


class InvalidSpec(GeodomeError):
    """Tessellation parameters (m, n) are negative or both zero."""


class NonTriangularSeed(GeodomeError):
    """Lattice subdivision was asked for on a mesh with non-triangular faces."""


class VertexAtCenter(GeodomeError):
    """A point coincides with the projection center, so central projection is undefined."""


class UnsupportedSeed(GeodomeError):
    """The requested seed polyhedron is not supported by this operation."""


class FaceThroughCenter(GeodomeError):
    """A face plane passes through the polarity sphere center, so its pole is undefined."""


class TriangularFacePresent(GeodomeError):
    """Pyramid augmentation requires every face to be non-triangular."""


class EmptyDome(GeodomeError):
    """A dome cut kept no faces."""


class StrictCutViolation(GeodomeError):
    """Strict dome cut found a kept face with a vertex below the cut plane."""


class NonTriangularFace(GeodomeError):
    """An analysis step that requires triangles met a non-triangular face."""


class NotClassI(GeodomeError):
    """Frequency detection ran on a sphere that is not a class I lattice subdivision."""


class DegenerateGeometry(GeodomeError):
    """A bar-joint framework is too small or collinear for a rigidity verdict."""


class ParseError(GeodomeError):
    """A mesh file is malformed."""


class InvariantViolation(GeodomeError, AssertionError):
    """An internal consistency check failed: a bug in geodome, not bad input."""


class DisconnectedMesh(GeodomeError):
    """An operation that needs one edge-connected piece of faces met several."""
