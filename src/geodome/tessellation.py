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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    NonTriangularSeed,
    UnsupportedSeed,
    VertexAtCenter,
)
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy, build_mesh, seed

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


def _validate_mn(m: int, n: int) -> None:
    if not (_is_int(m) and _is_int(n)):
        raise InvalidSpec(f"(m, n) = ({m!r}, {n!r}) must be integers")
    if m < 0 or n < 0:
        raise InvalidSpec(f"(m, n) = ({m}, {n}) must be non-negative")
    if m == 0 and n == 0:
        raise InvalidSpec("(m, n) = (0, 0) describes no tessellation")


def triangulation_number(m: int, n: int) -> int:
    """T = m^2 + m*n + n^2: unit tiles per subdivided face."""
    _validate_mn(m, n)
    return m * m + m * n + n * n


@dataclass(frozen=True)
class TessellationSpec:
    """Lattice walk (m, n) with its derived tile count and symmetry class."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _validate_mn(self.m, self.n)

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


def subdivide(P: Mesh, m: int, n: int) -> FlatTessellation:
    """Overlay the (m, n) lattice on every face of a triangular seed.

    Each unit tile is assigned to the face holding its centroid (ties on a
    shared edge go to the lower face index).  A tile corner falling past one
    edge of its face is re-expressed over the neighboring face by unfolding
    across that edge; for tiles owned via their centroid a corner can never
    lie past two edges at once, so a single unfolding always lands on the
    neighbor.  Points are registered under their integer weight signature,
    so a point shared by several faces is created exactly once.
    """
    spec = TessellationSpec(m, n)
    he = P._half_edges
    if (he.size != 3).any():
        raise NonTriangularSeed("lattice subdivision requires a triangular seed")
    T = spec.T
    mn = m + n
    verts = P.vertices
    across_face = np.where(he.twin >= 0, he.face[he.twin], -1).tolist()
    across_far = he.head[he.succ[he.twin]].tolist()

    def neighbor_of(fi: int, corner: int) -> tuple[int, int]:
        """(face, far vertex) across the edge of face fi opposite the given corner."""
        h = 3 * fi + (corner + 1) % 3
        if across_face[h] < 0:
            raise ValueError(f"face {fi} has no neighbor across a boundary edge")
        return across_face[h], across_far[h]

    registry: dict[tuple[tuple[int, int], ...], int] = {}
    points: list[np.ndarray] = []
    small_faces: list[tuple[int, int, int]] = []

    def register(frame: tuple[int, int, int], nums: tuple[int, int, int]) -> int:
        key = tuple(sorted((v, w) for v, w in zip(frame, nums) if w != 0))
        idx = registry.get(key)
        if idx is None:
            pos = (
                nums[0] * verts[frame[0]]
                + nums[1] * verts[frame[1]]
                + nums[2] * verts[frame[2]]
            ) / T
            idx = len(points)
            points.append(pos)
            registry[key] = idx
        return idx

    for fi, (ia, ib, ic) in enumerate(P.faces):

        def weights(p: int, q: int) -> tuple[int, int, int]:
            vN = p * mn + q * n
            wN = q * m - p * n
            return T - vN - wN, vN, wN

        def corner_index(nums: tuple[int, int, int]) -> int:
            uN, vN, wN = nums
            if uN >= 0 and vN >= 0 and wN >= 0:
                return register((ia, ib, ic), nums)
            negs = (uN < 0) + (vN < 0) + (wN < 0)
            if negs != 1:
                raise AssertionError("tile corner past two edges; centroid ownership broken")
            if uN < 0:
                _, d = neighbor_of(fi, 0)
                frame, out = (d, ib, ic), (-uN, uN + vN, uN + wN)
            elif vN < 0:
                _, d = neighbor_of(fi, 1)
                frame, out = (ia, d, ic), (uN + vN, -vN, vN + wN)
            else:
                _, d = neighbor_of(fi, 2)
                frame, out = (ia, ib, d), (uN + wN, vN + wN, -wN)
            if min(out) < 0:
                raise AssertionError(f"unfolded corner weights {out} are negative")
            return register(frame, out)

        for q in range(-1, mn + 2):
            for p in range(-n - 1, m + 2):
                up = ((p, q), (p + 1, q), (p, q + 1))
                down = ((p + 1, q), (p + 1, q + 1), (p, q + 1))
                for tile in (up, down):
                    nums = [weights(pp, qq) for pp, qq in tile]
                    cu = sum(w[0] for w in nums)
                    cv = sum(w[1] for w in nums)
                    cw = sum(w[2] for w in nums)
                    if min(cu, cv, cw) < 0:
                        continue
                    zeros = (cu == 0) + (cv == 0) + (cw == 0)
                    if zeros:
                        if zeros != 1:
                            raise AssertionError("tile centroid on a seed vertex")
                        # centroid exactly on a shared edge: lower face index owns
                        if cu == 0:
                            gi, _ = neighbor_of(fi, 0)
                        elif cv == 0:
                            gi, _ = neighbor_of(fi, 1)
                        else:
                            gi, _ = neighbor_of(fi, 2)
                        if gi < fi:
                            continue
                    small_faces.append(tuple(corner_index(w) for w in nums))

    expected = len(P.faces) * T
    if len(small_faces) != expected:
        raise AssertionError(
            f"assembled {len(small_faces)} tiles, expected {expected}"
        )
    pts = np.array(points)
    pts.setflags(write=False)
    return FlatTessellation(base=P, spec=spec, points=pts, small_faces=tuple(small_faces))


def project_to_sphere(t: FlatTessellation, tol: TolerancePolicy = DEFAULT_TOL) -> Mesh:
    """Push every tessellation point radially onto the seed circumsphere."""
    base = t.base
    if base.radius is None:
        raise ValueError("projection requires an inscribed seed (radius present)")
    offsets = t.points - base.center
    norms = np.linalg.norm(offsets, axis=1)
    if float(norms.min()) <= tol.metric_eps * base.radius:
        raise VertexAtCenter("a tessellation point coincides with the projection center")
    projected = base.center + offsets * (base.radius / norms)[:, None]
    return build_mesh(
        projected,
        t.small_faces,
        center=base.center,
        radius=base.radius,
        tol=tol,
    )


def stepping_projection(P: Mesh, levels: int, tol: TolerancePolicy = DEFAULT_TOL) -> Mesh:
    """Repeat [subdivide (2, 0), project] the given number of times.

    After `levels` rounds the sphere has frequency 2**levels.  Re-projecting
    at every step spreads the edge lengths less than a single direct
    subdivision of the same frequency.
    """
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
    units = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    seen: dict[tuple[int, int, int], np.ndarray] = {}
    for u in units:
        v = u.copy()
        for c in v:
            if abs(c) > 1e-9:
                if c < 0:
                    v = -v
                break
        key = tuple(int(round(c * 1e9)) for c in v)
        if key not in seen:
            seen[key] = v
    return np.array([seen[k] for k in sorted(seen)])


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

    def project(p: np.ndarray) -> np.ndarray:
        return p * (radius / float(np.linalg.norm(p)))

    tiles = []
    for a, b, c in P.faces:
        A, B, C = P.vertices[a], P.vertices[b], P.vertices[c]
        G = project((A + B + C) / 3.0)
        mab, mbc, mca = project((A + B) / 2.0), project((B + C) / 2.0), project((C + A) / 2.0)
        tiles.extend(
            np.array(t)
            for t in (
                (A, mab, G), (B, mab, G),
                (B, mbc, G), (C, mbc, G),
                (C, mca, G), (A, mca, G),
            )
        )
    return tiles
