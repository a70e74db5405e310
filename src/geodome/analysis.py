"""Counting, metric, congruence, and rigidity analysis of built meshes."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometry, NonTriangularFace, NotClassI
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy
from .tessellation import TessellationSpec

__all__ = [
    "EdgeClassTable",
    "FaceMetric",
    "RigidityReport",
    "verify_counts",
    "edge_length_classes",
    "edge_class_labels",
    "vertex_degree_histogram",
    "circumcenter_deviation",
    "face_metrics",
    "angle_dms",
    "detect_frequency",
    "congruent",
    "combinatorially_isomorphic",
    "rigidity_matrix",
    "is_infinitesimally_rigid",
]


def _sphere_counts(seed_faces: int, T: int) -> tuple[int, int, int]:
    """(V, E, F) of a triangular seed whose seed_faces faces each split into T tiles."""
    f = seed_faces * T
    return f // 2 + 2, 3 * f // 2, f


def verify_counts(P: Mesh, spec: TessellationSpec) -> bool:
    """True when P has the vertex/edge/face counts of a full (m, n) sphere
    on the tetrahedron, octahedron or icosahedron."""
    return any(P.counts == _sphere_counts(f0, spec.T) for f0 in (4, 8, 20))


def vertex_degree_histogram(P: Mesh) -> dict[int, int]:
    """How many vertices have each edge degree."""
    degrees, counts = np.unique(P.degrees(), return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


@dataclass(frozen=True)
class EdgeClassTable:
    """Strut length classes as (chord factor, count) rows, shortest first.

    Chord factors are edge lengths divided by the circumsphere radius.
    Consecutive rows differ by more than the classification tolerance, and
    the counts sum to the edge total.
    """

    entries: tuple[tuple[float, int], ...]
    tol: float

    @property
    def class_count(self) -> int:
        return len(self.entries)


def edge_class_labels(P: Mesh, tol: float = 1e-9) -> tuple[EdgeClassTable, list[int]]:
    """Classify edges by chord factor; also label each edge with its class row.

    Single-linkage clustering on the sorted lengths: a gap larger than tol
    starts a new class, so members of one class form a chain of sub-tol gaps.
    """
    if P.radius is None:
        raise ValueError("chord factors require an inscribed mesh")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    factors = P.edge_lengths() / P.radius
    order = np.argsort(factors, kind="stable")
    labels = [0] * len(factors)
    groups: list[list[float]] = [[float(factors[order[0]])]]
    for prev, cur in zip(order, order[1:]):
        if float(factors[cur]) - float(factors[prev]) > tol:
            groups.append([])
        groups[-1].append(float(factors[cur]))
        labels[int(cur)] = len(groups) - 1
    labels[int(order[0])] = 0
    entries = tuple((float(np.mean(g)), len(g)) for g in groups)
    if sum(c for _, c in entries) != len(P.edges):
        raise AssertionError("edge classes do not account for every edge")
    return EdgeClassTable(entries=entries, tol=tol), labels


def edge_length_classes(P: Mesh, tol: float = 1e-9) -> EdgeClassTable:
    """Strut length classes of an inscribed mesh (see edge_class_labels)."""
    table, _ = edge_class_labels(P, tol)
    return table


def _triangles_only(P: Mesh) -> None:
    for fi, face in enumerate(P.faces):
        if len(face) != 3:
            raise NonTriangularFace(f"face {fi} has {len(face)} sides")


def circumcenter_deviation(P: Mesh) -> float:
    """Largest distance, relative to the radius, between each face's
    circumcenter and the foot of the perpendicular from the center.

    For a triangle inscribed in the sphere the two coincide; the deviation
    measures construction error.
    """
    if P.radius is None:
        raise ValueError("deviation is measured relative to the circumsphere radius")
    _triangles_only(P)
    worst = 0.0
    for face in P.faces:
        A, B, C = (P.vertices[i] - P.center for i in face)
        u, v = B - A, C - A
        uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
        det = uu * vv - uv * uv
        s = 0.5 * (uu * vv - uv * vv) / det
        t = 0.5 * (vv * uu - uv * uu) / det
        circumcenter = A + s * u + t * v
        n = np.cross(u, v)
        n /= np.linalg.norm(n)
        foot = float((A + B + C) @ n) / 3.0 * n
        worst = max(worst, float(np.linalg.norm(foot - circumcenter)))
    return worst / P.radius


def angle_dms(radians: float) -> tuple[int, int, float]:
    """An angle as (degrees, arcminutes, arcseconds)."""
    total = math.degrees(radians)
    deg = int(total)
    rem = (total - deg) * 60.0
    minutes = int(rem)
    return deg, minutes, (rem - minutes) * 60.0


@dataclass(frozen=True)
class FaceMetric:
    """Shape summary of one triangular face.

    For an isosceles face the base is the odd edge, the apex the vertex
    shared by the two equal legs.  Equilateral faces report ratio 1 and a
    60 degree apex; scalene faces are flagged with no ratio or apex.
    """

    face: int
    kind: str  # "equilateral" | "isosceles" | "scalene"
    leg_base_ratio: float | None
    apex_angle: float | None  # radians
    apex_vertex: int | None


def face_metrics(P: Mesh, tol: float = 1e-9) -> list[FaceMetric]:
    """Leg/base ratio and apex angle of every triangular face."""
    _triangles_only(P)
    scale = P.radius
    if scale is None:
        scale = float(P.edge_lengths().mean())
    out = []
    for fi, face in enumerate(P.faces):
        pts = P.vertices[list(face)]
        # lens[i] is the edge opposite corner i
        lens = [
            float(np.linalg.norm(pts[(i + 1) % 3] - pts[(i + 2) % 3])) for i in range(3)
        ]
        same = [
            abs(lens[(i + 1) % 3] - lens[(i + 2) % 3]) <= tol * scale for i in range(3)
        ]
        if all(same):
            out.append(FaceMetric(fi, "equilateral", 1.0, math.pi / 3.0, None))
            continue
        if not any(same):
            out.append(FaceMetric(fi, "scalene", None, None, None))
            continue
        apex = same.index(True)  # corner between the two equal legs
        base = lens[apex]
        legs = 0.5 * (lens[(apex + 1) % 3] + lens[(apex + 2) % 3])
        u = pts[(apex + 1) % 3] - pts[apex]
        v = pts[(apex + 2) % 3] - pts[apex]
        cosine = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angle = math.acos(max(-1.0, min(1.0, cosine)))
        out.append(FaceMetric(fi, "isosceles", legs / base, angle, int(face[apex])))
    return out


def _adjacency(P: Mesh) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(len(P.vertices))]
    for a, b in P.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def detect_frequency(P: Mesh) -> int:
    """Frequency m of a class I sphere: the edge-graph distance between
    nearest degree-5 vertices.

    Every degree-5 vertex must see its nearest degree-5 neighbor at the same
    distance, and the vertex total must match a class I sphere of that
    frequency; anything else is rejected.
    """
    degrees = P.degrees()
    fives = [i for i, d in enumerate(degrees) if d == 5]
    if not fives:
        raise NotClassI("no degree-5 vertices")
    adj = _adjacency(P)
    five_set = set(fives)
    nearest: set[int] = set()
    for start in fives:
        dist = {start: 0}
        queue = deque([start])
        found = None
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt in dist:
                    continue
                dist[nxt] = dist[cur] + 1
                if nxt in five_set:
                    found = dist[nxt]
                    queue.clear()
                    break
                queue.append(nxt)
        if found is None:
            raise NotClassI("degree-5 vertices are not connected")
        nearest.add(found)
        if len(nearest) > 1:
            raise NotClassI(f"nearest degree-5 distances differ: {sorted(nearest)}")
    m = nearest.pop()
    if P.counts != _sphere_counts(20, m * m):
        raise NotClassI(f"counts do not match a class I sphere of frequency {m}")
    return m


def _rare_degree_vertices(P: Mesh) -> list[int]:
    degrees = P.degrees()
    values, counts = np.unique(degrees, return_counts=True)
    rare = values[np.lexsort((values, counts))[0]]
    return np.flatnonzero(degrees == rare).tolist()


def _frame(a: np.ndarray, b: np.ndarray, flip: bool) -> np.ndarray:
    e1 = a / np.linalg.norm(a)
    e2 = b - float(b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    if flip:
        e3 = -e3
    return np.column_stack([e1, e2, e3])


def congruent(
    P: Mesh,
    Q: Mesh,
    allow_reflection: bool = False,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """Whether an isometry carries the vertex set of P onto that of Q.

    Only rotations about the centers are searched unless allow_reflection is
    set.  Candidate alignments are anchored on vertices of the rarest degree
    and one of their neighbors: an isometry between the meshes must map such
    a pair to another such pair, so the candidate set is finite and complete.
    """
    if P.counts != Q.counts:
        return False
    if vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    if (P.radius is None) != (Q.radius is None):
        return False
    scale = P.radius if P.radius is not None else 1.0
    eps = tol.metric_eps * scale
    if P.radius is not None and abs(P.radius - Q.radius) > eps:
        return False

    p_verts = P.vertices - P.center
    q_verts = Q.vertices - Q.center
    degrees_p = P.degrees()
    degrees_q = Q.degrees()
    adj_q = _adjacency(Q)

    anchor = _rare_degree_vertices(P)[0]
    nbr = min(b if a == anchor else a for a, b in P.edges if anchor in (a, b))
    frame_p = _frame(p_verts[anchor], p_verts[nbr], flip=False)

    tree = cKDTree(q_verts)
    flips = (False, True) if allow_reflection else (False,)
    for a2 in _rare_degree_vertices(Q):
        if degrees_q[a2] != degrees_p[anchor]:
            continue
        for b2 in adj_q[a2]:
            if degrees_q[b2] != degrees_p[nbr]:
                continue
            for flip in flips:
                frame_q = _frame(q_verts[a2], q_verts[b2], flip)
                moved = p_verts @ (frame_q @ frame_p.T).T
                dist, idx = tree.query(moved, k=1)
                if float(dist.max()) <= eps and len(set(idx.tolist())) == len(idx):
                    return True
    return False


def _next_maps(P: Mesh, reverse: bool) -> dict[tuple[int, int], tuple[int, int]]:
    """next[(a, b)] = the directed edge after (a, b) around its face."""
    he = P._half_edges
    tail, head, after = he.tail, he.head, he.head[he.succ]
    if reverse:  # walking a face backwards, (b, a) is followed by (a, tail of a's predecessor)
        tail, head, after = he.head, he.tail, he.tail[np.argsort(he.succ)]
    tail, head, after = tail.tolist(), head.tolist(), after.tolist()
    return dict(zip(zip(tail, head), zip(head, after)))


def combinatorially_isomorphic(P: Mesh, Q: Mesh) -> bool:
    """Whether P and Q have the same face-edge-vertex incidence structure.

    Walks directed edges in lockstep from every compatible anchor pair,
    propagating through faces and across edges; a complete, consistent walk
    is an isomorphism.  Mirror images match (the reversed orientation of Q
    is tried too).
    """
    if P.counts != Q.counts:
        return False
    if vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    next_p = _next_maps(P, reverse=False)
    degrees_p = P.degrees()
    degrees_q = Q.degrees()
    anchor = _rare_degree_vertices(P)[0]
    start = next(e for e in next_p if e[0] == anchor)

    for reverse in (False, True):
        next_q = _next_maps(Q, reverse)
        for seed_edge in next_q:
            if degrees_q[seed_edge[0]] != degrees_p[start[0]]:
                continue
            if degrees_q[seed_edge[1]] != degrees_p[start[1]]:
                continue
            if _walk_matches(next_p, next_q, start, seed_edge):
                return True
    return False


def _walk_matches(next_p, next_q, start, seed_edge) -> bool:
    mapping = {start: seed_edge}
    queue = deque([start])
    vmap: dict[int, int] = {start[0]: seed_edge[0], start[1]: seed_edge[1]}
    while queue:
        e = queue.popleft()
        img = mapping[e]
        for ne, nimg in ((next_p[e], next_q[img]), ((e[1], e[0]), (img[1], img[0]))):
            known = mapping.get(ne)
            if known is None:
                for v, w in zip(ne, nimg):
                    if vmap.setdefault(v, w) != w:
                        return False
                mapping[ne] = nimg
                queue.append(ne)
            elif known != nimg:
                return False
    if len(mapping) != len(next_p):
        return False
    return len(set(vmap.values())) == len(vmap)


# --- infinitesimal rigidity --------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Rank summary of a bar-joint framework's rigidity matrix."""

    edge_rows: int
    dof_cols: int
    rank: int
    required_rank: int  # 3V - 6

    @property
    def rigid(self) -> bool:
        return self.rank == self.required_rank


def _as_framework(obj) -> tuple[np.ndarray, list[tuple[int, int]]]:
    if isinstance(obj, Mesh):
        return np.asarray(obj.vertices, dtype=float), list(obj.edges)
    points, edges = obj
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("framework points must be an (N, 3) array")
    pairs = [(int(a), int(b)) for a, b in edges]
    for a, b in pairs:
        if a == b or not (0 <= a < len(pts)) or not (0 <= b < len(pts)):
            raise ValueError(f"invalid framework edge ({a}, {b})")
    return pts, pairs


def rigidity_matrix(obj) -> np.ndarray:
    """One row per bar: the bar vector in the first joint's column block,
    its negation in the second.

    Accepts a Mesh or a (points, edges) pair.
    """
    pts, edges = _as_framework(obj)
    M = np.zeros((len(edges), 3 * len(pts)))
    for row, (i, j) in enumerate(edges):
        d = pts[i] - pts[j]
        M[row, 3 * i : 3 * i + 3] = d
        M[row, 3 * j : 3 * j + 3] = -d
    return M


def is_infinitesimally_rigid(obj, tol: TolerancePolicy = DEFAULT_TOL) -> RigidityReport:
    """Rank test of the rigidity matrix against 3V - 6.

    The rank is the number of singular values above rank_eps times the
    largest, which leaves the verdict unchanged under rotation and uniform
    scaling of the framework.
    """
    pts, edges = _as_framework(obj)
    if len(pts) < 3:
        raise DegenerateGeometry("a framework needs at least 3 joints for a 3D verdict")
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if spread[1] <= tol.rank_eps * max(spread[0], 1e-300):
        raise DegenerateGeometry("joints are collinear")
    M = rigidity_matrix((pts, edges))
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > tol.rank_eps * sv[0]))
    return RigidityReport(
        edge_rows=len(edges),
        dof_cols=3 * len(pts),
        rank=rank,
        required_rank=3 * len(pts) - 6,
    )
