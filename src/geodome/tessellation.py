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

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    NonTriangularSeed,
    UnsupportedSeed,
    VertexAtCenter,
)
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy, _check_policy, _norms, build_mesh, seed

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


def _is_int(k: object) -> bool:
    """Whether k is an integer, bools excluded."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool)


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
    points: np.ndarray  # (N, 3) float64
    small_faces: tuple[tuple[int, int, int], ...]


# (dp, dq) steps from a lattice point (p, q) to the corners of its up and down tiles
_TILE_STEPS = np.array([[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]])


def subdivide(P: Mesh, m: int, n: int) -> FlatTessellation:
    """Overlay the (m, n) lattice on every face of a triangular seed.

    Each unit tile is assigned to the face holding its centroid (ties on a
    shared edge go to the lower face index).  A tile corner falling past one
    edge of its face is re-expressed over the neighboring face by unfolding
    across that edge; for tiles owned via their centroid a corner can never
    lie past two edges at once, so a single unfolding always lands on the
    neighbor.  Every corner is identified by its integer signature, the
    sorted (seed vertex, weight) pairs with nonzero weight, and one sort of
    all signatures creates each point shared by several faces exactly once,
    numbered in the order the faces and their tiles first reach it.
    """
    spec = TessellationSpec(m, n)
    he = P._half_edges
    if (he.size != 3).any():
        raise NonTriangularSeed("lattice subdivision requires a triangular seed")
    T, mn, F = spec.T, m + n, len(he.size)

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
        raise AssertionError("tile centroid on a seed vertex")
    if (past.sum(axis=2) > 1).any():
        raise AssertionError("tile corner past two edges; centroid ownership broken")
    # unfold a corner past edge c over the face across it: weight c turns
    # into the far vertex's -w_c, and w_c moves onto the two shared corners
    W = np.where(past, -W, W + np.minimum(W.min(axis=2, keepdims=True), 0))
    if (W < 0).any():
        out = W[(W < 0).any(axis=2)][0]
        raise AssertionError(f"unfolded corner weights {tuple(out.tolist())} are negative")

    # face (-1 on a boundary) and far vertex across the edge opposite each face corner
    twin = he.twin[3 * np.arange(F)[:, None] + [1, 2, 0]]
    across, far = np.where(twin >= 0, he.face[twin], -1), he.head[he.succ[twin]]
    # a centroid on edge c goes to the lower of the two faces sharing it
    rival = np.where(on_edge.any(axis=1), across[:, on_edge.argmax(axis=1)], F)
    owned = rival >= np.arange(F)[:, None]
    side, folded = past.argmax(axis=2), past.any(axis=2)
    stray = (rival < 0) | (owned & (folded & (across[:, side] < 0)).any(axis=2))
    if stray.any():
        fi = int(np.flatnonzero(stray.any(axis=1))[0])
        raise ValueError(f"face {fi} has no neighbor across a boundary edge")

    # frame of each owned corner: its face's corners, the one it lies past
    # swapped for the far vertex across that edge; faces first, then tiles
    fo, ko = np.nonzero(owned)
    side = side[ko]
    swap = folded[ko][:, :, None] & (np.arange(3) == side[:, :, None])
    frame = np.where(swap, far[fo[:, None], side][:, :, None], he.tail.reshape(F, 3)[fo, None])
    frame, nums = frame.reshape(-1, 3), W[ko].reshape(-1, 3)
    # nonzero (vertex, weight) pairs coded vertex*(T+1) + weight, absent ones -1
    signature = np.sort(np.where(nums != 0, frame * (T + 1) + nums, -1), axis=1)
    _, first, inverse = np.unique(signature, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # points numbered by first occurrence
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    small_faces = label[inverse.reshape(-1)].reshape(-1, 3)
    if len(small_faces) != F * T:
        raise AssertionError(f"assembled {len(small_faces)} tiles, expected {F * T}")

    # each point is placed from the frame of its first occurrence
    fr, w, v = frame[first[order]], nums[first[order]], P.vertices
    pts = (w[:, :1] * v[fr[:, 0]] + w[:, 1:2] * v[fr[:, 1]] + w[:, 2:] * v[fr[:, 2]]) / T
    pts.setflags(write=False)
    return FlatTessellation(
        base=P, spec=spec, points=pts, small_faces=tuple(map(tuple, small_faces.tolist()))
    )


def project_to_sphere(t: FlatTessellation, tol: TolerancePolicy = DEFAULT_TOL) -> Mesh:
    """Push every tessellation point radially onto the seed circumsphere."""
    _check_policy(tol)
    base = t.base
    if base.radius is None:
        raise ValueError("projection requires an inscribed seed (radius present)")
    offsets = t.points - base.center
    norms = np.linalg.norm(offsets, axis=1)
    if float(norms.min()) <= tol.metric_eps * base.radius:
        raise VertexAtCenter("a tessellation point coincides with the projection center")
    projected = base.center + offsets * (base.radius / norms)[:, None]
    return build_mesh(projected, t.small_faces, center=base.center, radius=base.radius, tol=tol)


def stepping_projection(P: Mesh, levels: int, tol: TolerancePolicy = DEFAULT_TOL) -> Mesh:
    """Repeat [subdivide (2, 0), project] the given number of times.

    After `levels` rounds the sphere has frequency 2**levels.  Re-projecting
    at every step spreads the edge lengths less than a single direct
    subdivision of the same frequency.
    """
    _check_policy(tol)
    if not _is_int(levels) or levels < 1:
        raise ValueError("levels must be an integer >= 1")
    current = P
    for _ in range(levels):
        current = project_to_sphere(subdivide(current, 2, 0), tol)
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
    units = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    lead = units[np.arange(len(units)), np.argmax(np.abs(units) > 1e-9, axis=1)]
    units = np.where((lead < 0)[:, None], -units, units)
    _, first = np.unique(np.rint(units * 1e9).astype(np.int64), axis=0, return_index=True)
    return units[first]


def great_circles(P: Mesh) -> GreatCircleSet:
    """Great-circle plane normals of a centrally symmetric triangular seed.

    For the icosahedron this yields 31 distinct normals: 6 through vertex
    pairs, 15 through edge midpoints, 10 through face centroids.
    """
    ctr = P.center
    vertex_dirs = P.vertices - ctr
    a, b = P._half_edges.edges.T
    edge_dirs = (P.vertices[a] + P.vertices[b]) / 2.0 - ctr
    face_dirs = P.face_centroids() - ctr
    return GreatCircleSet(
        vertex_axes=_axes_up_to_sign(vertex_dirs),
        edge_axes=_axes_up_to_sign(edge_dirs),
        face_axes=_axes_up_to_sign(face_dirs),
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
