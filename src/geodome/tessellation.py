"""(m, n) lattice tessellation of triangular seeds and central projection.

A face with corners A, B, C is overlaid with the unit triangular lattice so
that A sits at the origin, B at m steps along one lattice direction plus n
steps along the next (60 degrees counter-clockwise), and C at the same walk
rotated a further 60 degrees.  The face then covers T = m^2 + m*n + n^2 unit
tiles.  Tile corners are tracked as integer barycentric weights over the face
corners, which makes point identification across neighboring faces exact: no
floating-point merge is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidSpec,
    InvariantViolation,
    NonTriangularSeed,
    UnsupportedSeed,
    VertexAtCenter,
)
from .mesh import DEFAULT_TOL, Mesh, _Cycles, _is_int, _lengths, _norms, _scale, build_mesh, seed

__all__ = [
    "TessellationSpec",
    "FlatTessellation",
    "GreatCircleSet",
    "triangulation_number",
    "subdivide",
    "project_to_sphere",
    "stepping_projection",
    "great_circles",
    "schwarz_tiling",
]


def triangulation_number(m: int, n: int) -> int:
    """T = m^2 + m*n + n^2: unit tiles per subdivided face."""
    return TessellationSpec(m, n).T


@dataclass(frozen=True)
class TessellationSpec:
    """Lattice walk (m, n) with its derived tile count and symmetry class."""

    m: int
    n: int

    def __post_init__(self) -> None:
        m, n = self.m, self.n
        if not (_is_int(m) and _is_int(n)):
            raise InvalidSpec(f"(m, n) = ({m!r}, {n!r}) must be integers")
        if m < 0 or n < 0:
            raise InvalidSpec(f"(m, n) = ({m}, {n}) must be non-negative")
        if m == 0 and n == 0:
            raise InvalidSpec("(m, n) = (0, 0) describes no tessellation")

    @property
    def T(self) -> int:
        return self.m * self.m + self.m * self.n + self.n * self.n

    @property
    def subdivision_class(self) -> str:
        """"I" when aligned with the face edges, "II" on the bisectors, else the chiral "III"."""
        if self.m == 0 or self.n == 0:
            return "I"
        if self.m == self.n:
            return "II"
        return "III"


@dataclass(frozen=True, eq=False)
class FlatTessellation:
    """Subdivided seed before projection: every point lies on a seed face plane."""

    base: Mesh
    spec: TessellationSpec
    points: np.ndarray  # (N, 3) float64, read-only
    small_faces: np.ndarray  # (F * T, 3) intp point ids, one row per tile, read-only


# (dp, dq) steps from a lattice point (p, q) to the corners of its up and down tiles
_TILE_STEPS = np.array([[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]])
# Walks whose lattice template is kept.  A census repeats a few dozen walks, so 64
# cover its repeats; the bound counts walks, not bytes: a template holds about
# 90 T bytes (1.7 MB at T = 19 200), so the cache holds up to 64 times the largest
# template kept.  An evicted walk only recomputes its own.
_LATTICES = 64


class _Lattice(NamedTuple):
    """What the walk (m, n) does to any one face: the K tiles of the lattice window
    whose centroid lies on the face, each with its three corners' weights."""

    T: int
    weights: np.ndarray  # (K, 3, 3) over the face corners, a corner past an edge unfolded
    on_edge: np.ndarray  # (K,) the centroid lies on a face edge
    edge: np.ndarray  # (K,) that edge, named by the face corner opposite it (else 0)
    past: np.ndarray  # (K, 3, 3) tile corner i lies past the edge opposite face corner j


@lru_cache(maxsize=_LATTICES)
def _lattice(m: int, n: int) -> _Lattice:
    """The read-only lattice template of a valid walk (m, n)."""
    T, mn = m * m + m * n + n * n, m + n
    # weights over the face corners of every tile corner in the lattice window,
    # tiles in (q, p, up/down) order; lattice point (p, q) weighs
    # (T - p*m - q*(m+n), p*(m+n) + q*n, q*m - p*n)
    q, p = np.meshgrid(np.arange(-1, mn + 2), np.arange(-n - 1, m + 2), indexing="ij")
    pq = (np.stack([p, q], axis=-1)[:, :, None, None] + _TILE_STEPS).reshape(-1, 3, 2)
    W = pq @ np.array([[-m, mn, -n], [-mn, n, m]]) + np.array([T, 0, 0])
    centroid = W.sum(axis=1)
    inside = centroid.min(axis=1) >= 0
    W, centroid = W[inside], centroid[inside]
    on_edge, past = centroid == 0, W < 0
    if (on_edge.sum(axis=1) > 1).any():
        raise InvariantViolation("tile centroid on a seed vertex")
    if (past.sum(axis=2) > 1).any():
        raise InvariantViolation("tile corner past two edges; centroid ownership broken")
    # unfold a corner past edge c over the face across it: weight c turns
    # into the far vertex's -w_c, and w_c moves onto the two shared corners
    W = np.where(past, -W, W + np.minimum(W.min(axis=2, keepdims=True), 0))
    if (W < 0).any():
        out = W[(W < 0).any(axis=2)][0]
        raise InvariantViolation(f"unfolded corner weights {tuple(out.tolist())} are negative")
    lattice = _Lattice(T, W, on_edge.any(axis=1), on_edge.argmax(axis=1), past)
    for arr in lattice[1:]:
        arr.setflags(write=False)
    return lattice


def subdivide(P: Mesh, m: int, n: int) -> FlatTessellation:
    """Overlay the (m, n) lattice on every face of a triangular seed.

    Each unit tile is assigned to the face holding its centroid (ties on a
    shared edge go to the lower face index).  A tile corner falling past one
    edge of its face is re-expressed over the neighboring face by unfolding
    across that edge; for tiles owned via their centroid a corner can never
    lie past two edges at once, so a single unfolding always lands on the
    neighbor.  What depends on (m, n) alone, the tiles and their unfolded
    corner weights, is computed once per walk and kept for the last 64 walks
    (_LATTICES); a template holds about 90 T bytes, so up to 64 times the
    largest one kept stays alive after the call.  Every corner is identified
    by its integer signature, the sorted (seed vertex, weight) pairs with
    nonzero weight, and one sort of all signatures creates each point shared
    by several faces exactly once, numbered in the order the faces and their
    tiles first reach it.
    """
    spec = TessellationSpec(m, n)
    he = P._half_edges
    if (he.size != 3).any():
        raise NonTriangularSeed("lattice subdivision requires a triangular seed")
    T, weights, on_edge, edge, past = _lattice(int(m), int(n))
    F, succ = len(he.size), he.succ
    # the half-edge opposite each face corner is the next one, so across it lie
    # its twin's face (-1 on a boundary, as -1 // 3 is -1) and the far vertex
    twin = he.twin[succ].reshape(F, 3)
    across, far = twin // 3, he.tail[succ[succ[twin]]]
    # a centroid on edge c goes to the lower of the two faces sharing it
    rival = np.where(on_edge, across[:, edge], F)
    owned = rival >= np.arange(F)[:, None]
    if (twin < 0).any():
        stray = (rival < 0) | (owned & (past.any(axis=1) & (across < 0)[:, None]).any(axis=2))
        if stray.any():
            fi = int(stray.any(axis=1).nonzero()[0][0])
            raise ValueError(f"face {fi} has no neighbor across a boundary edge")

    # frame of each owned corner: its face's corners, the one it lies past
    # swapped for the far vertex across that edge; faces first, then tiles
    fo, ko = owned.nonzero()
    frame = np.where(past[ko], far[fo, None], he.tail.reshape(F, 3)[fo, None])
    frame, nums = frame.reshape(-1, 3), weights[ko].reshape(-1, 3)
    # nonzero (vertex, weight) pairs coded vertex*(T+1) + weight, absent ones -1
    signature = np.where(nums != 0, frame * (T + 1) + nums, -1)
    signature.sort(axis=1)
    # group equal rows: a stable lexsort keeps each group's first occurrence first
    rank = np.lexsort(signature.T[::-1])
    ranked = signature[rank]
    new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    first, inverse = rank[new], np.empty_like(rank)
    inverse[rank] = new.cumsum() - 1
    order = first.argsort()  # points numbered by first occurrence
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    first = first[order]
    small_faces = label[inverse].reshape(-1, 3)
    if len(small_faces) != F * T:
        raise InvariantViolation(f"assembled {len(small_faces)} tiles, expected {F * T}")

    # each point is placed from the frame of its first occurrence
    fr, w, v = frame[first], nums[first], P.vertices
    pts = (w[:, :1] * v[fr[:, 0]] + w[:, 1:2] * v[fr[:, 1]] + w[:, 2:] * v[fr[:, 2]]) / T
    pts.setflags(write=False)
    small_faces.setflags(write=False)
    return FlatTessellation(base=P, spec=spec, points=pts, small_faces=small_faces)


def project_to_sphere(t: FlatTessellation) -> Mesh:
    """Push every tessellation point radially onto the seed circumsphere, or,
    for a seed with none, onto the sphere at its mean vertex distance."""
    radius = _scale(t.base)
    norms = _lengths(t.points)
    if float(norms.min()) <= DEFAULT_TOL * radius:
        raise VertexAtCenter("a tessellation point coincides with the projection center")
    # + 0.0: export_obj would write -0.0 as -0
    projected = t.points * (radius / norms)[:, None] + 0.0
    faces = _Cycles(t.small_faces.reshape(-1), np.full(len(t.small_faces), 3))
    return build_mesh(projected, faces, radius=radius)


def stepping_projection(P: Mesh, levels: int) -> Mesh:
    """Repeat [subdivide (2, 0), project] the given number of times.

    After `levels` rounds the sphere has frequency 2**levels.  Re-projecting
    at every step spreads the edge lengths less than a single direct
    subdivision of the same frequency.
    """
    if not _is_int(levels) or levels < 1:
        raise ValueError("levels must be an integer >= 1")
    current = P
    for _ in range(levels):
        current = project_to_sphere(subdivide(current, 2, 0))
    return current


@dataclass(frozen=True, eq=False)
class GreatCircleSet:
    """Equatorial plane normals of a seed, one per symmetry axis, up to sign."""

    vertex_axes: np.ndarray  # axes through opposite vertex pairs
    edge_axes: np.ndarray  # through opposite edge midpoints
    face_axes: np.ndarray  # through opposite face centroids

    @property
    def normals(self) -> np.ndarray:
        return np.vstack([self.vertex_axes, self.edge_axes, self.face_axes])

    def __len__(self) -> int:
        return len(self.vertex_axes) + len(self.edge_axes) + len(self.face_axes)


def _axes_up_to_sign(dirs: np.ndarray) -> np.ndarray:
    """Unit directions, each signed so its first component off zero is positive,
    one per distinct direction (first seen kept), sorted by their rounded keys."""
    units = dirs / _lengths(dirs)[:, None]
    lead = units[np.arange(len(units)), np.argmax(np.abs(units) > 1e-9, axis=1)]
    units = np.where((lead < 0)[:, None], -units, units)
    _, first = np.unique(np.rint(units * 1e9).astype(np.int64), axis=0, return_index=True)
    return units[first]


def great_circles(P: Mesh) -> GreatCircleSet:
    """Great-circle plane normals of a centrally symmetric triangular seed.

    For the icosahedron this yields 31 distinct normals: 6 through vertex
    pairs, 15 through edge midpoints, 10 through face centroids.
    """
    a, b = P._half_edges.edges.T
    return GreatCircleSet(
        vertex_axes=_axes_up_to_sign(P.vertices),
        edge_axes=_axes_up_to_sign((P.vertices[a] + P.vertices[b]) / 2.0),
        face_axes=_axes_up_to_sign(P.face_centroids()),
    )


def schwarz_tiling(kind: str, radius: float = 1.0) -> list[np.ndarray]:
    """Tile the sphere with the projected altitude triangles of a seed.

    Every face of a triangle-faced seed splits into 6 right triangles at its
    centroid; their central projections tile the circumsphere (24 tiles for
    the tetrahedron, 48 for the octahedron, 120 for the icosahedron), each
    covering an equal share of the total spherical area.
    """
    if kind not in ("tetrahedron", "octahedron", "icosahedron"):
        raise UnsupportedSeed(f"no right-triangle tiling for seed {kind!r}")
    P = seed(kind, radius)
    # corners (F, 3, xyz); per face the points mab, mbc, mca, G, projected
    corner = P.vertices[P._half_edges.tail.reshape(-1, 3)]
    mid = (corner + corner[:, [1, 2, 0]]) / 2.0
    G = (corner[:, 0] + corner[:, 1] + corner[:, 2]) / 3.0
    pts = np.concatenate([mid, G[:, None]], axis=1).reshape(-1, 3)
    pts = (pts * (radius / _norms(pts))[:, None]).reshape(-1, 4, 3)
    # tiles per face: (A, mab, G), (B, mab, G), (B, mbc, G), (C, mbc, G), (C, mca, G), (A, mca, G)
    tiles = np.stack([corner[:, [0, 1, 1, 2, 2, 0]], pts[:, [0, 0, 1, 1, 2, 2]],
                      pts[:, [3] * 6]], axis=2)
    return list(tiles.reshape(-1, 3, 3))
