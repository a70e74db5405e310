"""Polyhedron transforms: polar dual, pyramid augmentation, dome truncation."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDome,
    FaceThroughCenter,
    StrictCutViolation,
    TriangularFacePresent,
)
from .mesh import DEFAULT_TOL, Mesh, _common_radius, _Cycles, _flag, _lengths, _norms, _real
from .mesh import _rowdot, _scale, _unit, build_mesh

__all__ = ["dual", "gemmate", "truncate_dome"]


def _face_planes(P: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal and offset from the origin of every face plane."""
    he = P._half_edges
    normals = he.face_normals / _norms(he.face_normals)[:, None]
    return normals, _rowdot(he.face_centroids, normals)


def _off_center(offsets: np.ndarray, rho: float) -> None:
    """Reject a face plane passing within DEFAULT_TOL * rho of the origin."""
    hit = np.flatnonzero(np.abs(offsets) <= DEFAULT_TOL * rho)
    if hit.size:
        raise FaceThroughCenter(f"face {hit[0]} lies in a plane through the center")


def _polarity_radius(P: Mesh, offsets: np.ndarray) -> float:
    """Radius of the canonical polarity sphere of P, given its face-plane offsets.

    The rule is chosen so that taking the dual twice is the identity: a mesh
    with only a circumsphere uses it, a mesh whose face planes are tangent to
    one common sphere uses that, and a mesh with both (the regular seeds)
    uses their geometric mean, which maps each such mesh to a dual inscribed
    in the same circumsphere.
    """
    _off_center(offsets, _scale(P))
    tangent = _common_radius(offsets)
    if P.radius is not None and tangent is not None:
        return math.sqrt(P.radius * tangent)
    if P.radius is not None:
        return P.radius
    if tangent is not None:
        return tangent
    raise ValueError(
        "no canonical polarity sphere: mesh is neither inscribed nor "
        "tangent to a common sphere; pass sphere_radius explicitly"
    )


def dual(P: Mesh, *, sphere_radius: float | None = None) -> Mesh:
    """Polar dual with respect to a sphere about the origin.

    Each face plane at foot distance d maps to the pole at distance
    rho^2 / d along the plane's perpendicular foot direction; each vertex
    maps to the face cycling through the poles of its incident faces in the
    order P's faces turn around the vertex, counter-clockwise seen from
    outside; the cycle starts at the pole of least polar angle around the
    vertex direction (ties by face index).
    The sphere defaults to the circumsphere of P; a mesh that is not
    inscribed but has all face planes tangent to one sphere (as the dual of
    an inscribed mesh does) uses that tangent sphere, and a mesh with both
    spheres (a regular seed) uses their geometric mean, which keeps the dual
    inscribed in the same circumsphere.  All three branches make taking the
    dual twice return the original shape with no rescaling.  P must be
    closed and strictly convex: across every edge, the next corner of the
    neighboring face must lie below the face's plane.
    """
    if not P.closed:
        raise ValueError("the polar dual requires a closed mesh")
    if sphere_radius is not None:
        _real(sphere_radius, "sphere_radius")
    normals, offsets = _face_planes(P)
    rho = sphere_radius if sphere_radius is not None else _polarity_radius(P, offsets)
    _off_center(offsets, rho)
    he, face = P._half_edges, P._half_edges.face
    # height of the far corner across each edge above the plane of the near face
    far = P.vertices[he.head[he.succ[he.twin]]]
    lift = _rowdot(far, normals[face]) - offsets[face]
    bad = np.flatnonzero(lift > -DEFAULT_TOL * rho)
    if bad.size:
        edge = (int(he.tail[bad[0]]), int(he.head[bad[0]]))
        raise ValueError(f"mesh is not strictly convex at edge {edge}")
    # + 0.0: export_obj would write -0.0 as -0
    poles = normals * (rho * rho / offsets)[:, None] + 0.0

    faces = he.rings(face, poles[face], P.vertices)
    return build_mesh(poles, faces, radius=_common_radius(_lengths(poles)))


def gemmate(P: Mesh) -> Mesh:
    """Erect a right pyramid on every face, apex at the mesh's scale from the center.

    Each apex is the central projection of the face's perpendicular foot
    onto the circumsphere, else onto the sphere at the mean vertex distance,
    so the pyramid is right.  Its slant edges are equal only where the face's
    corners are equidistant from the foot, as on a regular face: an output
    face is isosceles then, and may be scalene on the irregular faces of a
    Goldberg dual.  Every face must be non-triangular; an open mesh gives an
    open one with the same boundary.
    """
    he = P._half_edges
    triangles = np.flatnonzero(he.size == 3)
    if triangles.size:
        raise TriangularFacePresent(f"face {triangles[0]} is a triangle")
    normals, offsets = _face_planes(P)
    scale = _scale(P)
    _off_center(offsets, scale)
    apexes = normals * scale + 0.0  # + 0.0: export_obj would write -0.0 as -0

    verts = np.vstack([P.vertices, apexes])
    flat = np.column_stack([he.tail, he.head, len(P.vertices) + he.face]).ravel()
    faces = _Cycles(flat, np.full(len(he.tail), 3))
    return build_mesh(verts, faces, radius=P.radius, closed=P.closed)


def truncate_dome(
    P: Mesh,
    height_fraction: float,
    *,
    axis: Sequence[float] = (0.0, 0.0, 1.0),
    strict: bool = False,
) -> Mesh:
    """Keep the faces of a sphere above a horizontal cut.

    The cut height for a fraction h is z = R * (1 - 2h), measured along the
    axis from the origin, with R the circumsphere radius or else the mean
    vertex distance: h = 0.5 keeps the upper hemisphere, h = 1 the whole
    sphere.  A face is kept when its centroid is at or above the cut; no
    vertex is moved or clipped, so the result is an open shell whose boundary
    shows up in Mesh.boundary_edges.  With strict=True a kept face dipping
    below the cut by more than DEFAULT_TOL * R is an error.
    """
    _real(height_fraction, "height_fraction", hi=1.0)
    a = _unit(axis, "axis")
    strict = _flag(strict, "strict")
    R = _scale(P)
    z_cut = R * (1.0 - 2.0 * height_fraction)

    he = P._half_edges
    heights = P.vertices @ a
    keep = he.face_sum(heights[he.tail]) / he.size >= z_cut
    kept = np.flatnonzero(keep)
    if not kept.size:
        raise EmptyDome(f"no face centroid reaches the cut at fraction {height_fraction}")
    if len(kept) == len(he.size):
        return P

    if strict:
        low = np.minimum.reduceat(heights[he.tail], he.start)[kept]
        sag = np.flatnonzero(low < z_cut - DEFAULT_TOL * R)
        if sag.size:
            face = tuple(he.tail[he.face == kept[sag[0]]].tolist())
            raise StrictCutViolation(
                f"kept face {face} has a vertex {z_cut - low[sag[0]]:.3e} below the cut"
            )

    ids = he.tail[keep[he.face]]
    hit = np.zeros(len(P.vertices), dtype=bool)
    hit[ids] = True
    faces = _Cycles((np.cumsum(hit) - 1)[ids], he.size[kept])
    used = np.flatnonzero(hit)
    return build_mesh(P.vertices[used], faces, radius=P.radius, closed=False)
