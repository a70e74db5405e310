"""Indexed polygon meshes, validation, and the five canonical seed polyhedra.

Meshes are immutable: vertices as a read-only float array, faces as index
cycles wound counter-clockwise viewed from outside.  Everything produced by
this package is referenced to a circumsphere centered at the origin, and
tolerances are expressed relative to its radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateFace,
    EulerViolation,
    InvalidOrientation,
    NonManifoldEdge,
    UnsupportedSeed,
)

__all__ = [
    "PHI",
    "SEED_KINDS",
    "DEFAULT_TOL",
    "TolerancePolicy",
    "Mesh",
    "build_mesh",
    "seed",
    "mirrored",
    "rotated",
    "rotation_to_z",
]

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _positive_finite(x: float) -> bool:
    """Whether x is a number in (0, inf), bools excluded."""
    return not isinstance(x, (bool, np.bool_)) and 0.0 < x < math.inf


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric tolerances for geometry checks.

    metric_eps is relative to the circumsphere radius; rank_eps is relative
    to the largest singular value of whatever matrix is being ranked.
    """

    metric_eps: float = 1e-9
    rank_eps: float = 1e-10

    def __post_init__(self) -> None:
        if not (_positive_finite(self.metric_eps) and _positive_finite(self.rank_eps)):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = TolerancePolicy()


def _check_policy(tol: object) -> None:
    if not isinstance(tol, TolerancePolicy):
        raise TypeError(f"tol must be a TolerancePolicy, got {type(tol).__name__}")


def _common_radius(values: np.ndarray, tol: TolerancePolicy) -> float | None:
    """The mean of values when it is positive and max - min <= tol.metric_eps * mean, else None."""
    mean = float(values.mean())
    if mean > 0.0 and float(values.max() - values.min()) <= tol.metric_eps * mean:
        return mean
    return None


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded exactly like a scalar `a[i] @ b[i]`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms, each equal to `np.linalg.norm(a[i])`."""
    return np.sqrt(_rowdot(a, a))


class _Cycles(NamedTuple):
    """Face cycles as arrays: every corner id in cycle order, and each cycle's length."""

    flat: np.ndarray
    size: np.ndarray


def _flatten(faces: Sequence[Sequence[int]]) -> _Cycles:
    """Face cycles given as index sequences, as arrays."""
    size = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
    flat = np.fromiter(chain.from_iterable(faces), dtype=np.intp, count=int(size.sum()))
    return _Cycles(flat, size)


def _ring_sort(
    ring_of: np.ndarray, ids: np.ndarray, points: np.ndarray, axes: np.ndarray
) -> _Cycles:
    """Order the ids of every ring by polar angle around the ring's axis (ties by id).

    Entry k places ids[k], at points[k] relative to the ring's center, in
    ring ring_of[k]; axes[r] points outward through ring r.  Angles run
    counter-clockwise seen from outside, starting near -pi.  Returns one
    cycle of ids per axis.
    """
    axes = axes / _norms(axes)[:, None]
    helper = np.where(np.abs(axes[:, 2:]) > 0.9, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    t1 = np.cross(helper, axes)
    t1 /= _norms(t1)[:, None]
    t2 = np.cross(axes, t1)  # (t1, t2, axis) is right-handed
    angle = np.arctan2(_rowdot(points, t2[ring_of]), _rowdot(points, t1[ring_of]))
    order = np.lexsort((ids, angle, ring_of))
    return _Cycles(ids[order], np.bincount(ring_of, minlength=len(axes)))


class _HalfEdges:
    """Directed edges of a face list: faces in order, corners in cycle order.

    Half-edge h runs tail[h] -> head[h] in face[h]; succ[h] is the next
    half-edge around that face and twin[h] the opposite half-edge (-1 on a
    boundary).  Face f owns slots start[f] .. start[f] + size[f] - 1.
    edges holds the undirected edges as an (E, 2) id array, low id first, in
    lexicographic order, and uses[e] counts the half-edges along edge e.
    repeated holds, ascending, one entry per repeat of a directed-edge key
    tail * n_vertices + head (empty when no directed edge is traversed twice).
    """

    def __init__(self, flat: np.ndarray, size: np.ndarray, n_vertices: int) -> None:
        self.tail, self.size = flat, size
        self.start = np.cumsum(size) - size
        self.face = np.repeat(np.arange(len(size)), size)
        self.succ = np.arange(1, len(flat) + 1)
        self.succ[self.start + size - 1] = self.start
        self.head = flat[self.succ]
        keys, wanted = flat * n_vertices + self.head, self.head * n_vertices + flat
        order = np.argsort(keys)
        ordered = keys[order]
        self.repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        found = order[np.minimum(np.searchsorted(ordered, wanted), len(flat) - 1)]
        self.twin = np.where(keys[found] == wanted, found, -1)
        pairs, self.uses = np.unique(np.minimum(keys, wanted), return_counts=True)
        self.edges = np.column_stack((pairs // n_vertices, pairs % n_vertices))
        self.edges.setflags(write=False)

    def reversed(self, flip: np.ndarray) -> _Cycles:
        """The face cycles, each face f with flip[f] set read backwards."""
        slot = np.arange(len(self.tail))
        back = 2 * self.start[self.face] + self.size[self.face] - 1 - slot
        return _Cycles(self.tail[np.where(flip[self.face], back, slot)], self.size)

    def face_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-face sums of per-half-edge values, added corner by corner in cycle order."""
        out = values[self.start].copy()
        for k in range(1, int(self.size.max())):
            rows = np.flatnonzero(self.size > k)
            out[rows] += values[self.start[rows] + k]
        return out

    def centroids(self, points: np.ndarray) -> np.ndarray:
        """Mean corner of every face."""
        return self.face_sum(points[self.tail]) / self.size[:, None]

    def normals(self, points: np.ndarray) -> np.ndarray:
        """Newell normal (unnormalized) of every face."""
        # + 0.0 turns a -0.0 component into 0.0, as summing from zero would
        return self.face_sum(np.cross(points[self.tail], points[self.head])) + 0.0


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable indexed surface.

    The validated half-edge table is the one stored face representation, and
    every topology query reads it.  faces (index cycles, counter-clockwise
    viewed from outside), edges (sorted index pairs in lexicographic order)
    and boundary_edges (the edges used by exactly one face) are tuple views
    of the table, built on first read; closed is derived from it as well.
    Use :func:`build_mesh` to construct one; the constructor itself performs
    no validation.
    """

    vertices: np.ndarray  # (V, 3) float64, read-only
    center: np.ndarray  # (3,) float64, read-only
    radius: float | None  # circumsphere radius when inscribed, else None
    _half_edges: _HalfEdges = field(repr=False)

    @property
    def closed(self) -> bool:
        """Whether the mesh is a closed sphere: every edge on two faces and V - E + F = 2."""
        v, e, f = self.counts
        return bool((self._half_edges.uses == 2).all()) and v - e + f == 2

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        he = self._half_edges
        items, ends = he.tail.tolist(), (he.start + he.size).tolist()
        return tuple(tuple(items[a:b]) for a, b in zip(he.start.tolist(), ends))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self._half_edges.edges.tolist()))

    @cached_property
    def boundary_edges(self) -> tuple[tuple[int, int], ...]:
        he = self._half_edges
        return tuple(map(tuple, he.edges[he.uses == 1].tolist()))

    @property
    def counts(self) -> tuple[int, int, int]:
        """(vertex, edge, face) counts."""
        he = self._half_edges
        return len(self.vertices), len(he.edges), len(he.size)

    def degrees(self) -> np.ndarray:
        """Number of edges incident to each vertex."""
        he = self._half_edges  # each half-edge counts at its tail, a boundary one also at its head
        ends = np.concatenate([he.tail, he.head[he.twin < 0]])
        return np.bincount(ends, minlength=len(self.vertices))

    def face_centroids(self) -> np.ndarray:
        return self._half_edges.centroids(self.vertices)

    def edge_lengths(self) -> np.ndarray:
        idx = self._half_edges.edges
        return np.linalg.norm(self.vertices[idx[:, 0]] - self.vertices[idx[:, 1]], axis=1)


def _check_radius(radius: float) -> None:
    if not _positive_finite(radius):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")


def build_mesh(
    vertices: Iterable[Sequence[float]],
    faces: Iterable[Sequence[int]] | _Cycles,
    *,
    center: Sequence[float] = (0.0, 0.0, 0.0),
    radius: float | None = None,
    closed: bool = True,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Mesh:
    """Validate and freeze a mesh.

    Checks, in order: face sanity, the Euler formula (closed meshes), edge
    manifoldness, winding consistency, outward orientation, and, when a
    radius is given, that every vertex lies on the circumsphere within
    tol.metric_eps * radius.  closed=True requires a closed sphere (see
    Mesh.closed); closed=False also accepts boundary edges and any Euler
    count.  The faces may also come as _Cycles arrays.
    """
    _check_policy(tol)
    verts = np.array(vertices if isinstance(vertices, np.ndarray) else list(vertices), dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
        raise ValueError("vertices must be a non-empty sequence of 3D points")
    if not np.isfinite(verts).all():
        raise ValueError("vertex coordinates must be finite")
    ctr = np.array(center, dtype=float)
    if ctr.shape != (3,) or not np.isfinite(ctr).all():
        raise ValueError("center must be a finite 3-vector")
    if not isinstance(closed, (bool, np.bool_)):
        raise TypeError(f"closed must be a bool, got {type(closed).__name__}")
    if radius is not None:
        _check_radius(radius)

    flat, size = faces if isinstance(faces, _Cycles) else _flatten(list(faces))
    if not len(size):
        raise ValueError("mesh must have at least one face")
    v, f = len(verts), len(size)

    def named(fi: int) -> tuple[int, ...]:
        first = int(size[:fi].sum())
        return tuple(flat[first : first + size[fi]].tolist())

    short = np.flatnonzero(size < 3)
    if short.size:
        raise DegenerateFace(f"face {named(short[0])} has fewer than 3 distinct vertices")
    he = _HalfEdges(flat, size, v)
    stray = he.face[(flat < 0) | (flat >= v)]
    if stray.size:
        raise DegenerateFace(f"face {named(stray[0])} references a vertex out of range")
    corners = np.sort(he.face * v + flat)
    repeats = corners[1:][corners[1:] == corners[:-1]] // v
    if repeats.size:
        raise DegenerateFace(f"face {named(repeats.min())} has fewer than 3 distinct vertices")

    s, uses = len(he.edges), he.uses
    if closed and v - s + f != 2:
        raise EulerViolation(f"V - S + F = {v} - {s} + {f} = {v - s + f}, expected 2")

    bad = np.flatnonzero((uses > 2) | ((uses != 2) & closed))
    if bad.size:
        edge = tuple(he.edges[bad[0]].tolist())
        raise NonManifoldEdge(f"edge {edge} belongs to {uses[bad[0]]} faces")

    if he.repeated.size:
        key = int(he.repeated[0])
        raise InvalidOrientation(f"directed edge {(key // v, key % v)} traversed twice")

    pts = verts - ctr
    inward = np.flatnonzero(_rowdot(he.normals(pts), he.centroids(pts)) <= 0.0)
    if inward.size:
        raise InvalidOrientation(f"face {inward[0]} is not counter-clockwise from outside")

    if radius is not None:
        dist = np.linalg.norm(verts - ctr, axis=1)
        worst = float(np.abs(dist - radius).max())
        if worst > tol.metric_eps * radius:
            raise ValueError(
                f"vertices stray {worst:.3e} from the stated circumsphere radius {radius}"
            )

    verts.setflags(write=False)
    ctr.setflags(write=False)
    return Mesh(vertices=verts, center=ctr, radius=radius, _half_edges=he)


# --- seed polyhedra ---------------------------------------------------------


def _unit_tetrahedron() -> tuple[np.ndarray, _Cycles]:
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / math.sqrt(3.0)
    return verts, _triangle_faces(verts)


def _unit_octahedron() -> tuple[np.ndarray, _Cycles]:
    verts = np.array(
        [
            [1, 0, 0], [-1, 0, 0],
            [0, 1, 0], [0, -1, 0],
            [0, 0, 1], [0, 0, -1],
        ],
        dtype=float,
    )
    return verts, _triangle_faces(verts)


def _unit_icosahedron() -> tuple[np.ndarray, _Cycles]:
    # The 12 cyclic permutations of (0, +-1, +-PHI), scaled to the unit sphere.
    raw = []
    for a, b in ((1.0, PHI), (1.0, -PHI), (-1.0, PHI), (-1.0, -PHI)):
        raw.append((0.0, a, b))
        raw.append((b, 0.0, a))
        raw.append((a, b, 0.0))
    verts = np.array(raw) / math.sqrt(1.0 + PHI * PHI)
    return verts, _triangle_faces(verts)


def _triangle_faces(verts: np.ndarray) -> _Cycles:
    """Faces of a regular triangle-faced solid: mutually nearest vertex triples."""
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=2)
    edge2 = d2[d2 > 1e-12].min()
    adj = d2 < edge2 * 1.000001
    faces = [
        (i, j, k)
        for i, j, k in combinations(range(len(verts)), 3)
        if adj[i, j] and adj[i, k] and adj[j, k]
    ]
    return _outward(_flatten(faces), verts)


def _outward(cycles: _Cycles, verts: np.ndarray) -> _Cycles:
    """The cycles, each reversed where needed to run counter-clockwise from outside."""
    he = _HalfEdges(*cycles, len(verts))
    return he.reversed(_rowdot(he.normals(verts), he.centroids(verts)) < 0.0)


def _unit_dodecahedron() -> tuple[np.ndarray, _Cycles]:
    # Vertices sit along the face-centroid directions of the icosahedron;
    # one pentagon wraps each icosahedron vertex.
    ico_verts, ico_faces = _unit_icosahedron()
    he = build_mesh(ico_verts, ico_faces)._half_edges
    centroids = he.centroids(ico_verts)
    verts = centroids / np.linalg.norm(centroids, axis=1)[:, None]
    return verts, _outward(_ring_sort(he.tail, he.face, verts[he.face], ico_verts), verts)


def _unit_truncated_icosahedron() -> tuple[np.ndarray, _Cycles]:
    # Cut every icosahedron edge at one third from each end: 60 vertices,
    # one pentagon per old vertex, one hexagon per old face.
    ico = build_mesh(*_unit_icosahedron())
    he, ico_verts, n = ico._half_edges, ico.vertices, len(ico.vertices)
    # point 2e (2e + 1) lies one third along edge e = (a, b) from a (from b)
    near, far = he.edges.ravel(), he.edges[:, ::-1].ravel()
    verts = (2.0 * ico_verts[near] + ico_verts[far]) / 3.0
    verts /= np.linalg.norm(verts, axis=1)[:, None]

    # cut[h] is the point one third along half-edge h; a face a, b, c gives
    # the hexagon ab, ba, bc, cb, ca, ac
    lo, hi = np.minimum(he.tail, he.head), np.maximum(he.tail, he.head)
    edge = np.searchsorted(he.edges[:, 0] * n + he.edges[:, 1], lo * n + hi)
    cut = 2 * edge + (he.tail > he.head)
    pentagons = _outward(_ring_sort(he.tail, cut, verts[cut], ico_verts), verts)
    hexagons = np.column_stack([cut, cut[he.twin]]).ravel()
    flat = np.concatenate([pentagons.flat, hexagons])
    return verts, _Cycles(flat, np.concatenate([pentagons.size, np.full(len(he.size), 6)]))


_SEED_BUILDERS = {
    "tetrahedron": _unit_tetrahedron,
    "octahedron": _unit_octahedron,
    "icosahedron": _unit_icosahedron,
    "dodecahedron": _unit_dodecahedron,
    "truncated_icosahedron": _unit_truncated_icosahedron,
}

SEED_KINDS = tuple(_SEED_BUILDERS)


def _unit(vector: Sequence[float], name: str) -> np.ndarray:
    """The vector scaled to unit length; it must be a finite non-zero 3-vector."""
    v = np.asarray(vector, dtype=float)
    length = float(np.linalg.norm(v)) if v.shape == (3,) else math.nan
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"{name} must be a finite non-zero 3-vector")
    return v / length


def rotation_to_z(direction: Sequence[float]) -> np.ndarray:
    """Rotation matrix taking the given direction onto the +z axis.

    The rotation is about the axis perpendicular to both, through the
    smallest angle; this is the documented orientation used for dome cuts.
    """
    v = _unit(direction, "direction")
    z = np.array([0.0, 0.0, 1.0])
    c = float(v @ z)
    if c > 1.0 - 1e-15:
        return np.eye(3)
    if c < -1.0 + 1e-15:
        return np.diag([1.0, -1.0, -1.0])  # half turn about x
    axis = np.cross(v, z)
    axis /= np.linalg.norm(axis)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def seed(kind: str, radius: float = 1.0, *, vertex_up: bool = False) -> Mesh:
    """Canonical seed polyhedron inscribed in a sphere of the given radius.

    With vertex_up=True the mesh is rotated so its highest canonical vertex
    (lowest index on ties) lands exactly on the +z axis, which makes dome
    cuts reproducible.
    """
    if kind not in _SEED_BUILDERS:
        raise UnsupportedSeed(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")
    _check_radius(radius)
    verts, faces = _SEED_BUILDERS[kind]()
    if vertex_up:
        top = int(np.lexsort((np.arange(len(verts)), -verts[:, 2]))[0])
        verts = verts @ rotation_to_z(verts[top]).T
    return build_mesh(verts * radius, faces, radius=radius)


def mirrored(P: Mesh) -> Mesh:
    """Reflection of P through the plane x = 0 (face cycles reversed to stay outward)."""
    verts = P.vertices.copy()
    verts[:, 0] *= -1.0
    ctr = P.center.copy()
    ctr[0] *= -1.0
    faces = P._half_edges.reversed(np.ones(P.counts[2], dtype=bool))
    return build_mesh(verts, faces, center=ctr, radius=P.radius, closed=P.closed)


def rotated(P: Mesh, matrix: np.ndarray) -> Mesh:
    """P transformed by a proper rotation matrix (R Rᵀ = I within metric_eps) about its center."""
    R = np.asarray(matrix, dtype=float)
    if not (
        R.shape == (3, 3)
        and np.isfinite(R).all()
        and np.abs(R @ R.T - np.eye(3)).max() <= DEFAULT_TOL.metric_eps
        and np.linalg.det(R) > 0.0
    ):
        raise ValueError("matrix must be a finite 3x3 proper rotation")
    verts = (P.vertices - P.center) @ R.T + P.center
    faces = _Cycles(P._half_edges.tail, P._half_edges.size)
    return build_mesh(verts, faces, center=P.center, radius=P.radius, closed=P.closed)
