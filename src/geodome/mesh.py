"""Indexed polygon meshes, validation, and the five canonical seed polyhedra.

Meshes are immutable: vertices as a read-only float array, faces as index
cycles wound counter-clockwise viewed from outside.  Every mesh has a scale,
its circumsphere radius or else its mean vertex distance from the origin, and
chord factors, tolerances and cut heights are relative to it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DEFAULT_TOL,
    SEED_KINDS,
    DegenerateFace,
    EulerViolation,
    InvalidOrientation,
    NonManifoldEdge,
    UnsupportedSeed,
)

__all__ = [
    "SEED_KINDS",
    "DEFAULT_TOL",
    "Mesh",
    "build_mesh",
    "seed",
    "mirrored",
    "rotated",
    "rotation_to_z",
]

_PHI = (1.0 + math.sqrt(5.0)) / 2.0  # the golden ratio


def _real(x: object, name: str, hi: float = math.inf) -> float:
    """x as a float if it is a finite number in (0, hi], bools excluded; else a
    TypeError (no number at all) or ValueError that names the parameter."""
    if not isinstance(x, (numbers.Real, np.bool_)):
        raise TypeError(f"{name} must be a number, got {type(x).__name__}")
    if isinstance(x, (bool, np.bool_)) or not (0.0 < x <= hi and math.isfinite(x)):
        span = f"lie in (0, {hi:g}]" if hi < math.inf else "be positive and finite"
        raise ValueError(f"{name} must {span}, got {x!r}")
    return float(x)


def _flag(x: object, name: str) -> bool:
    """x as a bool; a TypeError naming the parameter unless it is a bool or np.bool_."""
    if not isinstance(x, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {type(x).__name__}")
    return bool(x)


def _floats(x: object) -> np.ndarray:
    """x, an array or any iterable of integers or floats, as a new float array;
    an empty one for anything else, such as strings (numeric ones too), bools
    or a ragged list, for the caller to refuse."""
    try:
        arr = np.asarray(x if isinstance(x, np.ndarray) else list(x))
    except (TypeError, ValueError):
        return np.empty(0)
    return arr.astype(float) if arr.dtype.kind in "iuf" else np.empty(0)


def _is_int(k: object) -> bool:
    """Whether k is an integer, bools excluded."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool)


def _common_radius(values: np.ndarray) -> float | None:
    """The mean of values when it is positive and max - min <= DEFAULT_TOL * mean, else None."""
    mean = float(values.mean())
    if mean > 0.0 and float(values.max() - values.min()) <= DEFAULT_TOL * mean:
        return mean
    return None


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded exactly like a scalar `a[i] @ b[i]`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms, each equal to `np.linalg.norm(a[i])`."""
    return np.sqrt(_rowdot(a, a))


def _lengths(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=-1) of a float array, by numpy's own formula, so the bits are the same."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of 3-vectors or rows of them, in numpy's own order, so the bits are the same."""
    out = np.empty(a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[..., j] * b[..., k], a[..., k] * b[..., j], out=out[..., i])
    return out


class _Cycles(NamedTuple):
    """Face cycles as arrays: every corner id in cycle order, and each cycle's length."""

    flat: np.ndarray
    size: np.ndarray


def _flatten(faces: Sequence[Sequence[int]], name: str = "face") -> _Cycles:
    """Cycles given as sequences of integer ids, as arrays; a cycle that is not
    a sequence (a bare id) and a bool, float or string id are refused, not
    converted, with a ValueError naming the cycle."""
    try:
        size = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
        ids = list(chain.from_iterable(faces))
    except TypeError:  # a cycle that is not a sequence, such as a bare id
        bad = next(f for f in faces if np.ndim(f) == 0)
        bad = bad.item() if isinstance(bad, np.generic) else bad
        raise ValueError(f"{name} {bad!r} is not a sequence of ids") from None
    if not all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, ids))):
        bad = next(f for f in faces if not all(map(_is_int, f)))
        shown = tuple(i.item() if isinstance(i, np.generic) else i for i in bad)
        raise ValueError(f"{name} {shown} has an id that is not an integer")
    return _Cycles(np.array(ids, dtype=np.intp), size)


def _corner_sum(corners: np.ndarray) -> np.ndarray:
    """corners[:, 0] + corners[:, 1] + ..., added left to right."""
    out = corners[:, 0].copy()
    for j in range(1, corners.shape[1]):
        out += corners[:, j]
    return out


class _HalfEdges:
    """Directed edges of a face list over points: faces in order, corners in cycle order.

    Stored per half-edge h: tail[h] and twin[h], the opposite half-edge (-1 on a
    boundary, and on both half-edges of an edge whose two run the same way).  Face
    f owns slots start[f] .. start[f] + size[f] - 1, and the rest is read off
    the index (the directed edges of Campagna, Kobbelt & Seidel 1998), a fresh
    array per read that a loop binds once: h runs tail[h] to head[h] in
    face[h], succ[h] (prev[h]) is the next (previous) half-edge around that
    face, and the vertex rotation turn[h] = twin[prev[h]] is the next one
    leaving tail[h], counter-clockwise from outside (-1 on a boundary).
    edges holds the undirected edges as an (E, 2) id array, low id first, in
    lexicographic order, and uses[e] counts the half-edges along edge e.
    face_normals (Newell, unnormalized) and face_centroids are the read-only
    (F, 3) face planes, computed once from one gather of the corner points.
    Every id must index points.
    """

    def __init__(self, flat: np.ndarray, size: np.ndarray, points: np.ndarray) -> None:
        n_vertices = len(points)
        self.tail, self.size = flat, size
        self.start = size.cumsum() - size
        succ = self.succ
        head = flat[succ]
        # one code per half-edge: its undirected edge low * V + high, doubled,
        # plus 1 when it runs high -> low; a single sort groups every edge
        code = 2 * (np.minimum(flat, head) * n_vertices + np.maximum(flat, head)) + (flat > head)
        del head
        order = code.argsort()
        ranked = code[order]
        pair = ((ranked[1:] ^ 1) == ranked[:-1]).nonzero()[0]  # codes c and c + 1, c even
        self.twin = np.full(len(flat), -1)
        self.twin[order[pair]], self.twin[order[pair + 1]] = order[pair + 1], order[pair]
        edge = ranked >> 1
        del code, order, pair, ranked
        first = np.concatenate(([True], edge[1:] != edge[:-1])).nonzero()[0]
        self.uses = np.concatenate((first[1:], [len(flat)])) - first
        self.edges = np.concatenate(np.divmod(edge[first, None], n_vertices), axis=1)
        del edge, first
        p = points.take(flat, axis=0)
        # + 0.0 turns a -0.0 component into 0.0, as summing from zero would
        self.face_normals = self.face_sum(_cross(p, p.take(succ, axis=0))) + 0.0
        self.face_centroids = self.face_sum(p) / size[:, None]
        for arr in (self.edges, self.face_normals, self.face_centroids):
            arr.setflags(write=False)

    @property
    def face(self) -> np.ndarray:
        return np.arange(len(self.size)).repeat(self.size)

    @property
    def succ(self) -> np.ndarray:
        succ = np.arange(1, len(self.tail) + 1)
        succ[self.start + self.size - 1] = self.start
        return succ

    @property
    def prev(self) -> np.ndarray:
        prev = np.arange(-1, len(self.tail) - 1)
        prev[self.start] = self.start + self.size - 1
        return prev

    @property
    def head(self) -> np.ndarray:
        return self.tail[self.succ]

    @property
    def turn(self) -> np.ndarray:
        return self.twin[self.prev]

    def reversed(self) -> _Cycles:
        """The face cycles, each read backwards."""
        back = (2 * self.start + self.size - 1).repeat(self.size) - np.arange(len(self.tail))
        return _Cycles(self.tail[back], self.size)

    def face_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-face sums of per-half-edge values, added corner by corner in cycle order.

        The faces with k corners are summed through an (F_k, k, ...) block of
        corners, a view when every face has k corners; the terms and their
        order are those of a loop over the corners, so the bits are the same.
        """
        sizes = np.bincount(self.size).nonzero()[0]
        if len(sizes) == 1:
            return _corner_sum(values.reshape(len(self.size), sizes[0], *values.shape[1:]))
        out = np.empty((len(self.size), *values.shape[1:]), dtype=values.dtype)
        for k in sizes.tolist():
            rows = (self.size == k).nonzero()[0]
            out[rows] = _corner_sum(values.take(self.start[rows, None] + np.arange(k), axis=0))
        return out

    def rings(self, ids: np.ndarray, coords: np.ndarray, axes: np.ndarray) -> _Cycles:
        """One cycle per vertex of a closed mesh: ids[h] of the half-edges h leaving
        it, in the order of the vertex rotation turn.  The polar angle only picks
        the start: the entry whose point coords[ids[h]] has the least angle
        (counter-clockwise from outside, from near -pi) around axes[v], ties by
        id.  A vertex on no face gets an empty cycle.
        """
        degree, turn = np.bincount(self.tail, minlength=len(axes)), self.turn
        walk = np.zeros((int(degree.max()), len(axes)), dtype=np.intp)
        walk[0, self.tail] = np.arange(len(self.tail))  # some half-edge leaving each vertex
        for k in range(1, len(walk)):
            walk[k] = turn[walk[k - 1]]
        axes = axes / _norms(axes)[:, None]
        helper = np.where(np.abs(axes[:, 2:]) > 0.9, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        t1 = _cross(helper, axes)
        t1 /= _norms(t1)[:, None]
        t2 = _cross(axes, t1)  # (t1, t2, axis) is right-handed
        t1, t2 = np.take(t1, self.tail, axis=0), np.take(t2, self.tail, axis=0)
        points = coords.take(ids, axis=0)
        angle = np.arctan2(_rowdot(points, t2), _rowdot(points, t1))
        inside = np.arange(len(walk))[:, None] < degree
        angle = np.where(inside, angle[walk], np.inf)
        least = angle == angle.min(axis=0)
        start = np.argmin(np.where(least, ids[walk], np.iinfo(np.intp).max), axis=0)
        turns = (start + np.arange(len(walk))[:, None]) % np.maximum(degree, 1)
        walk = np.take_along_axis(walk, turns, axis=0)
        return _Cycles(ids[walk.T[inside.T]], degree)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable indexed surface.

    The validated half-edge table is the one stored face representation, and
    every topology query reads it; per half-edge it stores only tail and twin
    and derives the rest on read.  faces (index cycles, counter-clockwise
    viewed from outside), edges (sorted index pairs in lexicographic order)
    and boundary_edges (the edges used by exactly one face) are tuple views
    of the table, built on first read; closed is derived from it as well.
    The table also holds the face planes it computed from the vertices when
    it was built, which validation reads: the read-only arrays
    _half_edges.face_normals (Newell, unnormalized) and
    _half_edges.face_centroids, which face_centroids() returns.
    Use :func:`build_mesh` to construct one; the constructor itself performs
    no validation.
    """

    vertices: np.ndarray  # (V, 3) float64, read-only
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
        return np.bincount(self._half_edges.edges.ravel(), minlength=len(self.vertices))

    def face_centroids(self) -> np.ndarray:
        return self._half_edges.face_centroids

    def edge_lengths(self) -> np.ndarray:
        idx = self._half_edges.edges
        return _lengths(self.vertices[idx[:, 0]] - self.vertices[idx[:, 1]])


def _scale(P: Mesh) -> float:
    """P's circumsphere radius, else the mean distance of its vertices from the origin."""
    return P.radius if P.radius is not None else float(_lengths(P.vertices).mean())


def build_mesh(
    vertices: Iterable[Sequence[float]],
    faces: Iterable[Sequence[int]] | _Cycles,
    *,
    radius: float | None = None,
    closed: bool = True,
) -> Mesh:
    """Validate and freeze a mesh.

    Checks, in order: face sanity, the Euler formula (closed meshes), edge
    manifoldness, winding consistency, outward orientation, and, when a
    radius is given, that every vertex lies on the sphere of that radius
    about the origin within DEFAULT_TOL * radius.  The radius is stored
    as a float.  closed=True requires a closed sphere (see Mesh.closed);
    closed=False also accepts boundary edges, any Euler count and a pinched
    vertex, whose faces form several fans: the vertex rotation (turn) walks
    one fan at a time.  Face ids must be integers: bools, floats and strings
    are refused, not truncated.  The faces may also come as _Cycles arrays.
    """
    verts = _floats(vertices)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
        raise ValueError("vertices must be a non-empty sequence of 3D points")
    if not np.isfinite(verts).all():
        raise ValueError("vertex coordinates must be finite")
    closed = _flag(closed, "closed")
    if radius is not None:
        radius = _real(radius, "radius")

    flat, size = faces if isinstance(faces, _Cycles) else _flatten(list(faces))
    if not len(size):
        raise ValueError("mesh must have at least one face")
    v, f = len(verts), len(size)

    def named(fi: int) -> tuple[int, ...]:
        first = int(size[:fi].sum())
        return tuple(flat[first : first + size[fi]].tolist())

    short = (size < 3).nonzero()[0]
    if short.size:
        raise DegenerateFace(f"face {named(short[0])} has fewer than 3 distinct vertices")
    stray = ((flat < 0) | (flat >= v)).nonzero()[0]
    if stray.size:
        raise DegenerateFace(f"face {named(size.cumsum().searchsorted(stray[0], side='right'))} "
                             "references a vertex out of range")
    he = _HalfEdges(flat, size, verts)
    corners = he.face * v + flat
    corners.sort()
    repeats = corners[1:][corners[1:] == corners[:-1]] // v
    if repeats.size:
        raise DegenerateFace(f"face {named(repeats.min())} has fewer than 3 distinct vertices")

    s, uses = len(he.edges), he.uses
    if closed and v - s + f != 2:
        raise EulerViolation(f"V - S + F = {v} - {s} + {f} = {v - s + f}, expected 2")

    bad = ((uses > 2) | ((uses != 2) & closed)).nonzero()[0]
    if bad.size:
        edge = tuple(he.edges[bad[0]].tolist())
        raise NonManifoldEdge(f"edge {edge} belongs to {uses[bad[0]]} faces")

    # each edge now has one or two half-edges; both of a directed edge traversed
    # twice lack a twin, so more half-edges lack one than there are boundary edges
    lone = (he.twin < 0).nonzero()[0]
    if len(lone) > (uses == 1).sum():
        keys = he.tail[lone] * v + he.head[lone]
        keys.sort()
        key = int(keys[1:][keys[1:] == keys[:-1]][0])
        raise InvalidOrientation(f"directed edge {(key // v, key % v)} traversed twice")

    inward = (_rowdot(he.face_normals, he.face_centroids) <= 0.0).nonzero()[0]
    if inward.size:
        raise InvalidOrientation(f"face {inward[0]} is not counter-clockwise from outside")

    if radius is not None:
        dist = _lengths(verts)
        worst = float(np.abs(dist - radius).max())
        if worst > DEFAULT_TOL * radius:
            raise ValueError(
                f"vertices stray {worst:.3e} from the stated circumsphere radius {radius}"
            )

    verts.setflags(write=False)
    return Mesh(vertices=verts, radius=radius, _half_edges=he)


# --- seed polyhedra ---------------------------------------------------------


def _unit_tetrahedron() -> tuple[np.ndarray, _Cycles]:
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / math.sqrt(3.0)
    return verts, _triangle_faces(verts)


def _unit_octahedron() -> tuple[np.ndarray, _Cycles]:
    axes = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    verts = np.array(axes, dtype=float)
    return verts, _triangle_faces(verts)


def _unit_icosahedron() -> tuple[np.ndarray, _Cycles]:
    # The 12 cyclic permutations of (0, +-1, +-_PHI), scaled to the unit sphere.
    raw = []
    for a, b in ((1.0, _PHI), (1.0, -_PHI), (-1.0, _PHI), (-1.0, -_PHI)):
        raw.append((0.0, a, b))
        raw.append((b, 0.0, a))
        raw.append((a, b, 0.0))
    verts = np.array(raw) / math.sqrt(1.0 + _PHI * _PHI)
    return verts, _triangle_faces(verts)


def _triangle_faces(verts: np.ndarray) -> _Cycles:
    """Faces of a regular triangle-faced solid: mutually nearest vertex triples,
    each counter-clockwise from outside."""
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=2)
    edge2 = d2[d2 > 1e-12].min()
    adj = d2 < edge2 * 1.000001
    triples = np.array(list(combinations(range(len(verts)), 3)))
    i, j, k = triples.T
    faces = triples[adj[i, j] & adj[i, k] & adj[j, k]]
    # build_mesh's outward test: a triangle's Newell normal dotted with its centroid is det
    inward = np.linalg.det(verts[faces]) < 0.0
    faces[inward] = faces[inward, ::-1]
    return _Cycles(faces.ravel(), np.full(len(faces), 3))


def _unit_dodecahedron() -> tuple[np.ndarray, _Cycles]:
    # Vertices sit along the face-centroid directions of the icosahedron;
    # one pentagon wraps each icosahedron vertex.
    ico_verts, ico_faces = _unit_icosahedron()
    he = build_mesh(ico_verts, ico_faces)._half_edges
    verts = he.face_centroids / _lengths(he.face_centroids)[:, None]
    return verts, he.rings(he.face, verts, ico_verts)


def _unit_truncated_icosahedron() -> tuple[np.ndarray, _Cycles]:
    # Cut every icosahedron edge at one third from each end: 60 vertices,
    # one pentagon per old vertex, one hexagon per old face.
    ico = build_mesh(*_unit_icosahedron())
    he, ico_verts, n = ico._half_edges, ico.vertices, len(ico.vertices)
    # point 2e (2e + 1) lies one third along edge e = (a, b) from a (from b)
    near, far = he.edges.ravel(), he.edges[:, ::-1].ravel()
    verts = (2.0 * ico_verts[near] + ico_verts[far]) / 3.0
    verts /= _lengths(verts)[:, None]

    # cut[h] is the point one third along half-edge h; a face a, b, c gives
    # the hexagon ab, ba, bc, cb, ca, ac
    lo, hi = np.minimum(he.tail, he.head), np.maximum(he.tail, he.head)
    edge = np.searchsorted(he.edges[:, 0] * n + he.edges[:, 1], lo * n + hi)
    cut = 2 * edge + (he.tail > he.head)
    pentagons = he.rings(cut, verts, ico_verts)
    hexagons = np.stack([cut, cut[he.twin]], axis=1).ravel()
    flat = np.concatenate([pentagons.flat, hexagons])
    return verts, _Cycles(flat, np.concatenate([pentagons.size, np.full(len(he.size), 6)]))


_SEED_BUILDERS = dict(zip(SEED_KINDS, (  # in the order of SEED_KINDS
    _unit_tetrahedron, _unit_octahedron, _unit_icosahedron,
    _unit_dodecahedron, _unit_truncated_icosahedron), strict=True))


def _unit(vector: Sequence[float], name: str) -> np.ndarray:
    """The vector scaled to unit length; it must be a finite non-zero 3-vector."""
    v = _floats(vector)
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
    axis = _cross(v, z)
    axis /= np.linalg.norm(axis)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def seed(kind: str, radius: float = 1.0, *, vertex_up: bool = False) -> Mesh:
    """Canonical seed polyhedron inscribed in a sphere of the given radius.

    With vertex_up=True the mesh is rotated so its highest canonical vertex
    (lowest index on ties) lands exactly on the +z axis, which makes dome
    cuts reproducible.
    """
    if kind not in _SEED_BUILDERS:
        raise UnsupportedSeed(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")
    _real(radius, "radius")
    verts, faces = _SEED_BUILDERS[kind]()
    if _flag(vertex_up, "vertex_up"):
        top = int(np.lexsort((np.arange(len(verts)), -verts[:, 2]))[0])
        verts = verts @ rotation_to_z(verts[top]).T
    return build_mesh(verts * radius, faces, radius=radius)


def mirrored(P: Mesh) -> Mesh:
    """Reflection of P through the plane x = 0 (face cycles reversed to stay outward)."""
    faces = P._half_edges.reversed()
    return build_mesh(P.vertices * (-1.0, 1.0, 1.0), faces, radius=P.radius, closed=P.closed)


def rotated(P: Mesh, matrix: np.ndarray) -> Mesh:
    """P turned about the origin by a proper rotation matrix (R Rᵀ = I within DEFAULT_TOL)."""
    R = _floats(matrix)
    proper = R.shape == (3, 3) and np.isfinite(R).all() and np.linalg.det(R) > 0.0
    if not (proper and np.abs(R @ R.T - np.eye(3)).max() <= DEFAULT_TOL):
        raise ValueError("matrix must be a finite 3x3 proper rotation")
    verts = P.vertices @ R.T + 0.0  # + 0.0: export_obj would write -0.0 as -0
    faces = _Cycles(P._half_edges.tail, P._half_edges.size)
    return build_mesh(verts, faces, radius=P.radius, closed=P.closed)
