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
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy, build_mesh
from .mesh import _check_policy, _check_radius, _common_radius, _Cycles, _norms, _ring_sort
from .mesh import _rowdot, _unit

__all__ = ["dual", "gemmate", "truncate_dome"]


def _face_planes(P: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normal and center offset of every face plane."""
    he = P._half_edges
    pts = P.vertices - P.center
    normals = he.normals(pts)
    normals /= _norms(normals)[:, None]
    return normals, _rowdot(he.centroids(pts), normals)


def _off_center(offsets: np.ndarray, tol: TolerancePolicy, rho: float) -> None:
    """Reject a face plane passing within tolerance of the center."""
    hit = np.flatnonzero(np.abs(offsets) <= tol.metric_eps * rho)
    if hit.size:
        raise FaceThroughCenter(f"face {hit[0]} lies in a plane through the center")


def _polarity_radius(P: Mesh, offsets: np.ndarray, tol: TolerancePolicy) -> float:
    """Radius of the canonical polarity sphere of P, given its face-plane offsets.

    The rule is chosen so that taking the dual twice is the identity: a mesh
    with only a circumsphere uses it, a mesh whose face planes are tangent to
    one common sphere uses that, and a mesh with both (the regular seeds)
    uses their geometric mean, which maps each such mesh to a dual inscribed
    in the same circumsphere.
    """
    _off_center(offsets, tol, float(np.linalg.norm(P.vertices - P.center, axis=1).mean()))
    tangent = _common_radius(offsets, tol)
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


def dual(
    P: Mesh,
    *,
    sphere_radius: float | None = None,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Mesh:
    """Polar dual with respect to a sphere about the center of P.

    Each face plane at foot distance d maps to the pole at distance
    rho^2 / d along the plane's perpendicular foot direction; each vertex
    maps to the face cycling through the poles of its incident faces,
    ordered by polar angle around the vertex direction (ties by face index).
    The sphere defaults to the circumsphere of P; a mesh that is not
    inscribed but has all face planes tangent to one sphere (as the dual of
    an inscribed mesh does) uses that tangent sphere, and a mesh with both
    spheres (a regular seed) uses their geometric mean, which keeps the dual
    inscribed in the same circumsphere.  All three branches make taking the
    dual twice return the original shape with no rescaling.  P must be
    closed and strictly convex: across every edge, the next corner of the
    neighboring face must lie below the face's plane.
    """
    _check_policy(tol)
    if not P.closed:
        raise ValueError("the polar dual requires a closed mesh")
    if sphere_radius is not None:
        _check_radius(sphere_radius)
    normals, offsets = _face_planes(P)
    rho = sphere_radius if sphere_radius is not None else _polarity_radius(P, offsets, tol)
    _off_center(offsets, tol, rho)
    he = P._half_edges
    # height of the far corner across each edge above the plane of the near face
    far = P.vertices[he.head[he.succ[he.twin]]] - P.center
    lift = _rowdot(far, normals[he.face]) - offsets[he.face]
    bad = np.flatnonzero(lift > -tol.metric_eps * rho)
    if bad.size:
        edge = (int(he.tail[bad[0]]), int(he.head[bad[0]]))
        raise ValueError(f"mesh is not strictly convex at edge {edge}")
    poles = P.center + normals * (rho * rho / offsets)[:, None]

    faces = _ring_sort(he.tail, he.face, poles[he.face] - P.center, P.vertices - P.center)

    radius = _common_radius(np.linalg.norm(poles - P.center, axis=1), tol)
    return build_mesh(poles, faces, center=P.center, radius=radius, tol=tol)


def gemmate(P: Mesh, tol: TolerancePolicy = DEFAULT_TOL) -> Mesh:
    """Erect a right pyramid on every face, apex on the circumsphere.

    Each apex is the central projection of the face's perpendicular foot, so
    the pyramid is right and its slant edges are equal: every output face is
    an isosceles (or better) triangle.  Requires an inscribed mesh whose
    faces are all non-triangular.
    """
    _check_policy(tol)
    if P.radius is None:
        raise ValueError("pyramid augmentation requires an inscribed mesh")
    he = P._half_edges
    triangles = np.flatnonzero(he.size == 3)
    if triangles.size:
        raise TriangularFacePresent(f"face {triangles[0]} is a triangle")
    normals, offsets = _face_planes(P)
    _off_center(offsets, tol, P.radius)
    apexes = P.center + normals * P.radius

    verts = np.vstack([P.vertices, apexes])
    flat = np.column_stack([he.tail, he.head, len(P.vertices) + he.face]).ravel()
    faces = _Cycles(flat, np.full(len(he.tail), 3))
    return build_mesh(verts, faces, center=P.center, radius=P.radius, tol=tol)


def truncate_dome(
    P: Mesh,
    height_fraction: float,
    *,
    axis: Sequence[float] = (0.0, 0.0, 1.0),
    strict: bool = False,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Mesh:
    """Keep the faces of an inscribed sphere above a horizontal cut.

    The cut height for a fraction h is z = R * (1 - 2h), measured along the
    axis from the center: h = 0.5 keeps the upper hemisphere, h = 1 the whole
    sphere.  A face is kept when its centroid is at or above the cut; no
    vertex is moved or clipped, so the result is an open shell whose boundary
    shows up in Mesh.boundary_edges.  With strict=True a kept face dipping
    below the cut by more than the tolerance is an error.
    """
    _check_policy(tol)
    if P.radius is None:
        raise ValueError("dome truncation requires an inscribed mesh")
    if isinstance(height_fraction, (bool, np.bool_)) or not 0.0 < height_fraction <= 1.0:
        raise ValueError("height_fraction must lie in (0, 1]")
    a = _unit(axis, "axis")
    z_cut = P.radius * (1.0 - 2.0 * height_fraction)

    he = P._half_edges
    heights = (P.vertices - P.center) @ a
    keep = he.face_sum(heights[he.tail]) / he.size >= z_cut
    kept = np.flatnonzero(keep)
    if not kept.size:
        raise EmptyDome(f"no face centroid reaches the cut at fraction {height_fraction}")
    if len(kept) == len(he.size):
        return P

    if strict:
        low = np.minimum.reduceat(heights[he.tail], he.start)[kept]
        sag = np.flatnonzero(low < z_cut - tol.metric_eps * P.radius)
        if sag.size:
            face = tuple(he.tail[he.face == kept[sag[0]]].tolist())
            raise StrictCutViolation(
                f"kept face {face} has a vertex {z_cut - low[sag[0]]:.3e} below the cut"
            )

    used, local = np.unique(he.tail[keep[he.face]], return_inverse=True)
    faces = _Cycles(local, he.size[kept])
    return build_mesh(
        P.vertices[used], faces, center=P.center, radius=P.radius, closed=False, tol=tol
    )
