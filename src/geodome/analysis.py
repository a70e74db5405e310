"""Counting, metric, congruence, and rigidity analysis of built meshes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DegenerateGeometry, DisconnectedMesh, InvariantViolation,
                     NonTriangularFace, NotClassI)
from .mesh import (DEFAULT_TOL, Mesh, _cross, _flag, _flatten, _floats, _lengths, _norms, _real,
                   _rowdot, _scale)

if TYPE_CHECKING:  # tessellation loads only for verify_counts
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
    from .tessellation import TessellationSpec

    if not isinstance(spec, TessellationSpec):
        raise TypeError(f"spec must be a TessellationSpec, got {type(spec).__name__}")
    return P.counts in [_sphere_counts(f0, spec.T) for f0 in (4, 8, 20)]


def vertex_degree_histogram(P: Mesh) -> dict[int, int]:
    """How many vertices have each edge degree."""
    counts = np.bincount(P.degrees())
    degrees = counts.nonzero()[0]
    return dict(zip(degrees.tolist(), counts[degrees].tolist()))


@dataclass(frozen=True)
class EdgeClassTable:
    """Strut length classes as (chord factor, count) rows, shortest first.

    Chord factors are edge lengths over the circumsphere radius, else the
    mean vertex distance.  Consecutive rows differ by more than the
    classification tolerance, and the counts sum to the edge total.
    """

    entries: tuple[tuple[float, int], ...]
    tol: float

    @property
    def class_count(self) -> int:
        return len(self.entries)


def edge_class_labels(P: Mesh, tol: float = DEFAULT_TOL) -> tuple[EdgeClassTable, list[int]]:
    """Classify edges by chord factor; also label each edge with its class row.

    Single-linkage clustering on the sorted lengths: a gap larger than tol
    starts a new class, so members of one class form a chain of sub-tol gaps.
    Chord factors are as in EdgeClassTable, so a mesh needs no circumsphere.
    """
    table, labels = _edge_class_labels(P, tol)
    return table, labels.tolist()


def _edge_class_labels(P: Mesh, tol: float) -> tuple[EdgeClassTable, np.ndarray]:
    """edge_class_labels with the labels as an intp array."""
    tol = _real(tol, "tol")
    factors = P.edge_lengths() / _scale(P)
    order = factors.argsort(kind="stable")
    ranked = factors[order]
    gaps = ranked[1:] - ranked[:-1] > tol
    labels = np.empty(len(factors), dtype=np.intp)
    labels[order] = np.concatenate([[0], gaps.cumsum()])
    # float(sum) / count is np.mean's pairwise sum and division, bit for bit
    cuts = [0, *(gaps.nonzero()[0] + 1).tolist(), len(ranked)]
    entries = tuple([(float(np.add.reduce(ranked[a:b])) / (b - a), b - a)
                     for a, b in zip(cuts, cuts[1:])])
    if sum([c for _, c in entries]) != len(factors):
        raise InvariantViolation("edge classes do not account for every edge")
    return EdgeClassTable(entries=entries, tol=tol), labels


def edge_length_classes(P: Mesh, tol: float = DEFAULT_TOL) -> EdgeClassTable:
    """Strut length classes of a mesh (see edge_class_labels)."""
    return _edge_class_labels(P, tol)[0]


def _triangles(P: Mesh) -> np.ndarray:
    """(F, 3) corner ids of a mesh whose faces are all triangles."""
    he = P._half_edges
    other = (he.size != 3).nonzero()[0]
    if other.size:
        raise NonTriangularFace(f"face {other[0]} has {he.size[other[0]]} sides")
    return he.tail.reshape(-1, 3)


def circumcenter_deviation(P: Mesh) -> float:
    """Largest distance between each face's circumcenter and the foot of the
    perpendicular from the center, relative to the circumsphere radius or,
    with no circumsphere, to the mean vertex distance.

    For a triangle inscribed in the sphere the two coincide; the deviation
    measures construction error.
    """
    A, B, C = np.moveaxis(P.vertices[_triangles(P)], 1, 0)
    u, v = B - A, C - A
    uu, vv, uv = _rowdot(u, u), _rowdot(v, v), _rowdot(u, v)
    det = uu * vv - uv * uv
    s = 0.5 * (uu * vv - uv * vv) / det
    t = 0.5 * (vv * uu - uv * uu) / det
    circumcenter = A + s[:, None] * u + t[:, None] * v
    n = _cross(u, v)
    n /= _norms(n)[:, None]
    foot = (_rowdot(A + B + C, n) / 3.0)[:, None] * n
    return float(_norms(foot - circumcenter).max()) / _scale(P)


def angle_dms(radians: float) -> tuple[int, int, float]:
    """An angle as (degrees, arcminutes, arcseconds)."""
    total = math.degrees(_real(radians, "radians", lo=-math.inf))
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


def _equal_legs(P: Mesh, tol: float) -> tuple[np.ndarray, ...]:
    """Per triangular face: corner ids, points, edge lengths (lens[:, i] opposite
    corner i), and which corners sit between two legs equal within tol x scale."""
    tol = _real(tol, "tol")
    tri = _triangles(P)
    pts = P.vertices[tri]
    lens = np.stack([_norms(pts[:, (i + 1) % 3] - pts[:, (i + 2) % 3]) for i in range(3)], axis=1)
    same = np.abs(lens[:, [1, 2, 0]] - lens[:, [2, 0, 1]]) <= tol * _scale(P)
    return tri, pts, lens, same


def face_metrics(P: Mesh, tol: float = DEFAULT_TOL) -> list[FaceMetric]:
    """Leg/base ratio and apex angle of every triangular face."""
    tri, pts, lens, same = _equal_legs(P, tol)
    # an isosceles face is read from its apex: the first corner between two equal legs
    apex = np.argmax(same, axis=1)
    rows = np.arange(len(tri))
    turn = (apex[:, None] + np.arange(3)) % 3
    lens, pts = lens[rows[:, None], turn], pts[rows[:, None], turn]
    ratio = 0.5 * (lens[:, 1] + lens[:, 2]) / lens[:, 0]
    u, v = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    cosine = _rowdot(u, v) / (_norms(u) * _norms(v))
    columns = (col.tolist() for col in (same.sum(axis=1), ratio, cosine, tri[rows, apex]))
    out = []
    for fi, (n_same, r, c, top) in enumerate(zip(*columns)):
        if n_same == 3:
            out.append(FaceMetric(fi, "equilateral", 1.0, math.pi / 3.0, None))
        elif n_same == 0:
            out.append(FaceMetric(fi, "scalene", None, None, None))
        else:
            out.append(FaceMetric(fi, "isosceles", r, math.acos(max(-1.0, min(1.0, c))), top))
    return out


def detect_frequency(P: Mesh) -> int:
    """Frequency m of a class I icosahedral sphere: the number of struts along
    a lattice line between neighboring degree-5 vertices (Caspar & Klug 1962).

    The vertex total fixes m, as V = 10 m^2 + 2, and P must be closed with
    exactly the counts of that sphere.  Every lattice line leaving a degree-5
    vertex, walked straight on through m - 1 vertices of degree 6, must then
    meet a degree-5 vertex; anything else is rejected.
    """
    m = math.isqrt((len(P.vertices) - 2) // 10)
    if not (P.closed and P.counts == _sphere_counts(20, m * m)):
        raise NotClassI(f"counts do not match a closed class I sphere of frequency {m}")
    he, degree = P._half_edges, P.degrees()
    h = (degree[he.tail] == 5).nonzero()[0]  # the first strut of every line from a degree-5 vertex
    if not h.size:
        raise NotClassI("no degree-5 vertices")
    head, turn = he.head, he.turn
    for step in range(1, m + 1):
        bad = (degree[head[h]] != (5 if step == m else 6)).nonzero()[0]
        if bad.size:
            v = head[h[bad[0]]]
            raise NotClassI(f"a lattice line from a degree-5 vertex meets vertex {v} of degree "
                            f"{degree[v]} after {step} of {m} struts")
        h = turn[turn[turn[he.twin[h]]]]  # straight on: the third turn from the way back
    return m


def _frames(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frames, columns of (N, 3, 3): e1 along a[i], e2 toward b[i]."""
    e1 = a / _norms(a)[:, None]
    e2 = b - _rowdot(b, e1)[:, None] * e1
    e2 /= _norms(e2)[:, None]
    return np.stack([e1, e2, _cross(e1, e2)], axis=2)


def _turn(points: np.ndarray, R: np.ndarray) -> np.ndarray:
    """points @ R.T for a rotation or a stack of them, rounded alike for every stack size."""
    out = points[:, 0, None] * R[..., None, :, 0] + 0.0  # + 0.0: as a sum from 0 would
    for k in (1, 2):
        out += points[:, k, None] * R[..., None, :, k]
    return out


_PROBE = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)  # generic unit direction


def _nearest(points: np.ndarray, verts: np.ndarray, keys: np.ndarray, eps: float) -> np.ndarray:
    """Row of verts (sorted by keys = verts @ _PROBE) nearest each of points (..., 3) within
    eps, else -1: a vertex within eps of p has a key within eps of p's, up to rounding, so
    exact distances over keys within 2 eps decide.  O(V^2) if verts lie in a plane across _PROBE."""
    at = points @ _PROBE
    lo, hi = keys.searchsorted(at - 2.0 * eps), keys.searchsorted(at + 2.0 * eps)
    slot = np.minimum(lo[..., None] + np.arange(max(1, (hi - lo).max(initial=0))), len(keys) - 1)
    dist = _lengths(verts[slot] - points[..., None, :])
    best = np.take_along_axis(slot, dist.argmin(axis=-1)[..., None], -1)[..., 0]
    return np.where(dist.min(axis=-1) <= eps, best, -1)


def congruent(P: Mesh, Q: Mesh, allow_reflection: bool = False) -> bool:
    """Whether an isometry carries the vertex set of P onto that of Q.

    Only rotations about the origin are searched unless allow_reflection is
    set.  Distances are compared with eps = DEFAULT_TOL times P's circumsphere
    radius, else its mean vertex distance.  Candidate alignments map a vertex
    of the rarest degree and its lowest-numbered neighbor onto an edge of Q
    with the same end degrees, as an isometry between the meshes must.  One
    `_nearest` sweep over Q's vertices, sorted once, moves up to 12 of P's
    rarest-degree vertices under every candidate and drops a candidate that
    leaves one farther than eps from Q.  Each survivor in turn gets the full
    test: every vertex within eps of a distinct vertex.  The first candidate in
    (anchor, neighbor) order, the identity on a copy of P, is tried alone first.
    """
    allow_reflection = _flag(allow_reflection, "allow_reflection")
    degrees_p, degrees_q = P.degrees(), Q.degrees()
    hist = np.bincount(degrees_p)
    same = P.counts == Q.counts and np.array_equal(hist, np.bincount(degrees_q))
    if not same or (P.radius is None) != (Q.radius is None):
        return False
    p_verts, q_verts = P.vertices, Q.vertices
    eps = DEFAULT_TOL * _scale(P)
    if P.radius is not None and abs(P.radius - Q.radius) > eps:
        return False

    # vertices of the rarest degree among those on an edge, the lower degree on ties
    values = hist[1:].nonzero()[0] + 1
    rare = (degrees_p == values[hist[values].argmin()]).nonzero()[0]
    edges = P._half_edges.edges
    nbr = np.concatenate([edges[edges[:, 0] == rare[0], 1], edges[edges[:, 1] == rare[0], 0]]).min()
    ends = np.concatenate([Q._half_edges.edges, Q._half_edges.edges[:, ::-1]])
    ends = ends[(degrees_q[ends] == (degrees_p[rare[0]], degrees_p[nbr])).all(axis=1)]
    ends = ends[np.lexsort(ends.T[::-1])]  # in (anchor, neighbor) order
    frames = _frames(q_verts[ends[:, 0]], q_verts[ends[:, 1]])
    if allow_reflection:  # each frame, then its mirror image
        frames = np.stack([frames, frames * (1.0, 1.0, -1.0)], axis=1).reshape(-1, 3, 3)
    turns = frames @ _frames(p_verts[rare[:1]], p_verts[[nbr]])[0].T
    keys = q_verts @ _PROBE
    order = keys.argsort()
    q_sorted, keys = q_verts[order], keys[order]
    for group in (turns[:1], turns[1:]):  # 12 rare vertices: all of them, on a sphere
        near = _nearest(_turn(p_verts[rare[:12]], group), q_sorted, keys, eps)
        for R in group[(near >= 0).all(axis=1)]:
            idx = _nearest(_turn(p_verts, R), q_sorted, keys, eps)
            idx.sort()
            if idx[0] >= 0 and (idx[1:] != idx[:-1]).all():  # distinct images
                return True
    return False


_TABLE_ENTRIES = 1 << 22  # bounds the memory of one table of candidate dart maps


def _darts(P: Mesh, degrees: np.ndarray, reverse: bool = False) -> tuple[np.ndarray, ...]:
    """Tail, kind (tail degree, head degree, face size) and images under succ, twin, and twin
    then one, two and three turns (twin after prev) of every dart of P, faces reversed if asked."""
    he, n, top = P._half_edges, len(P._half_edges.tail), len(degrees) + 1
    tail, succ, prev = (he.head, he.prev, he.succ) if reverse else (he.tail, he.succ, he.prev)
    words = np.full((5, n + 1), n)  # dart n is "no dart", its own image
    words[0, :n], words[1, :n] = succ, np.where(he.twin < 0, n, he.twin)
    turn = words[1, np.concatenate((prev, [n]))]
    for k in (2, 3, 4):
        words[k] = turn[words[k - 1]]
    return tail, (degrees[tail] * top + degrees[tail[succ]]) * top + he.size[he.face], words


def _dart_tree(words: np.ndarray, root: int) -> list[tuple]:
    """Breadth-first levels (darts, parents, rows) from root, words[rows, parents] == darts."""
    slot = np.full(words.shape[1], -1)  # -1 until the dart is reached; the last is "no dart"
    slot[[root, -1]] = 0
    frontier, levels = np.array([root]), []
    while frontier.size:
        images = words[:, frontier].ravel()
        fresh = (slot[images] < 0).nonzero()[0]
        slot[images[fresh]] = fresh  # one of the slots that hold each new dart, whichever
        fresh = fresh[slot[images[fresh]] == fresh]
        levels.append((images[fresh], frontier[fresh % frontier.size], fresh // frontier.size))
        frontier = levels[-1][0]
    if (slot < 0).any():
        raise DisconnectedMesh("combinatorially_isomorphic needs P's faces to be edge-connected")
    return levels[:-1]  # the last level is empty


def combinatorially_isomorphic(P: Mesh, Q: Mesh) -> bool:
    """Whether P and Q have the same face-edge-vertex incidence structure.

    An isomorphism of connected maps is fixed by the image of one dart
    (Weinberg 1966): here the first dart of P of the rarest kind (tail degree,
    head degree, face size), imaged on each dart of Q of that kind.  A
    breadth-first tree of P's darts by next, twin, and twin then one to three
    vertex turns (most of a vertex star per level: 17 levels on the (5, 1)
    icosahedral sphere, 78 by next and twin alone) extends all candidates to
    dart maps; as an isomorphism commutes with every step, any spanning tree
    gives the same verdict.  P's faces must be edge-connected, else
    DisconnectedMesh.  A map that commutes with next and twin (boundary to
    boundary) and induces a consistent, injective vertex map is an isomorphism:
    consistency for a pinched vertex, whose darts form several rotation orbits,
    injectivity against a map onto one component of a disconnected Q.  Q is
    tried as given and with its faces reversed, so mirror images match: the
    first candidate of each orientation alone, then the rest, so a copy or a
    mirror image of P costs at most two candidates.
    """
    degrees_p, degrees_q = P.degrees(), Q.degrees()
    if P.counts != Q.counts or not np.array_equal(np.bincount(degrees_p), np.bincount(degrees_q)):
        return False
    tail_p, kinds, words_p = _darts(P, degrees_p)
    n = len(tail_p)
    kinds, first, counts = np.unique(kinds, return_index=True, return_counts=True)
    rarest = np.lexsort((kinds, counts))[0]
    levels = _dart_tree(words_p, first[rarest])
    # rep[i] is a dart leaving the i-th used vertex of P, and dart h leaves vertex tail_of[h]
    _, rep, tail_of = np.unique(tail_p, return_index=True, return_inverse=True)
    rows = max(1, _TABLE_ENTRIES // (n + 1))

    def tries():
        sides = []
        for reverse in (False, True):  # Q as given, then with its faces reversed
            tail, starts, words = _darts(Q, degrees_q, reverse)
            starts = (starts == kinds[rarest]).nonzero()[0]  # the darts of the root's kind
            sides.append((tail, words, starts))
            yield tail, words, starts[:1]
        for tail, words, starts in sides:
            yield from ((tail, words, starts[i : i + rows]) for i in range(1, len(starts), rows))

    for tail, words, group in tries():
        M = np.full((len(group), n + 1), n)
        M[:, first[rarest]] = group
        for kids, parents, row in levels:
            M[:, kids] = words[row, M[:, parents]]
        image = M[:, :n]
        mapped = (image < n) & (words[0, image] == M[:, words_p[0, :n]])
        corners = tail[image[(mapped & (words[1, image] == M[:, words_p[1, :n]])).all(axis=1)]]
        vmap = corners[:, rep]
        vmap = vmap[(corners == vmap[:, tail_of]).all(axis=1)]
        vmap.sort(axis=1)
        if (vmap[:, 1:] != vmap[:, :-1]).all(axis=1).any():
            return True
    return False


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


def _as_framework(obj) -> tuple[np.ndarray, np.ndarray]:
    """Joint positions and the (E, 2) joint ids of the bars."""
    if isinstance(obj, Mesh):
        return np.asarray(obj.vertices, dtype=float), obj._half_edges.edges
    points, edges = obj
    pts = _floats(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("framework points must be an (N, 3) array")
    if not np.isfinite(pts).all():
        raise ValueError("framework points must be finite")
    edges = list(edges)
    flat, size = _flatten(edges, "framework edge")
    ok = size == 2
    if ok.all():
        bars = flat.reshape(-1, 2)
        ok = (bars >= 0).all(axis=1) & (bars < len(pts)).all(axis=1) & (bars[:, 0] != bars[:, 1])
    if not ok.all():
        bar = edges[(~ok).nonzero()[0][0]]
        raise ValueError(
            f"invalid framework edge ({', '.join(map(str, bar))}): "
            f"it must join two distinct integer joint ids below {len(pts)}"
        )
    return pts, flat.reshape(-1, 2)


def _bar_triplets(pts: np.ndarray, bars: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, column, value) of every nonzero of the rigidity matrix, six per bar."""
    d = pts[bars[:, 0]] - pts[bars[:, 1]]
    rows = np.repeat(np.arange(len(bars)), 6)
    cols = (3 * bars[:, [0, 0, 0, 1, 1, 1]] + np.tile(np.arange(3), 2)).ravel()
    return rows, cols, np.concatenate([d, -d], axis=1).ravel()


def _dense_rigidity(pts: np.ndarray, bars: np.ndarray) -> np.ndarray:
    M = np.zeros((len(bars), 3 * len(pts)))
    rows, cols, vals = _bar_triplets(pts, bars)
    M[rows, cols] = vals
    return M


def rigidity_matrix(obj) -> np.ndarray:
    """One row per bar: the bar vector in the first joint's column block,
    its negation in the second.

    Accepts a Mesh or a (points, edges) pair.
    """
    return _dense_rigidity(*_as_framework(obj))


# Least shift of the Gram matrix, relative to its 1-norm.  It stays far above
# the roundoff of the factorization (about n * eps: 3e-11 for the 122 880 bars
# of a 64v sphere) and proves a singular-value ratio of at least 1e-4.
_GRAM_SHIFT = 1e-8
# Rank threshold: singular values at most this times the largest count as zero.
_RANK_EPS = 1e-10
# Frameworks with at most this many bars get the banded certificate, the rest
# the sparse one.  The band holds at most 8 E (w + b) bytes for bandwidth w
# and panel width b: 2.1 MB (w = 143) for the 1920 bars of the icosahedral
# (8, 0) sphere, where a dense E x E array takes 29.5 MB.  Warm, the sparse
# LU gains on it as E grows (12.9 against 13.9 ms at 1920 bars, 77 against
# 140 ms at 12 000), but a fresh process first pays 0.35-0.50 s and about
# 25 MB of peak RSS to import scipy.sparse.linalg.
_BANDED_BARS = 2000
# Panel width of the banded Cholesky.  From 24 to 48 it made no difference on
# the census spheres; at 80 and up OpenBLAS factors a block on two threads,
# and on a busy machine one such call stalled for up to 120 ms.
_BLOCK = 32


def _shifted_gram(pts: np.ndarray, bars: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every term of G - tau I as (value, row, column), none summed: those of
    G, then the E diagonal terms -tau.

    G = M M^T is the E x E Gram matrix of the rigidity matrix M.  G[i, j]
    sums (s_i d_i) . (s_j d_j) over the joints bars i and j share, d the bar
    vector, s 1 (-1) at its first (second) end: one term per pair of ends at
    a joint, in both orders, so an entry has one term, or two equal ones (the
    diagonal, and two bars on the same two joints).  tau is _GRAM_SHIFT times
    the largest column sum of the terms' absolute values, never below |G|_1
    and equal to it up to rounding, so no dense copy of G is needed for it.

    Both certificates prove G - tau I positive definite, and that proves
    rank E: G has the eigenvalues sigma_i^2 of M's E singular values, the
    largest at most |G|_1, so sigma_E^2 > tau >= 1e-8 sigma_1^2 and every
    singular value exceeds 1e-4 times the largest, far above _RANK_EPS.
    """
    n, d = len(bars), pts[bars[:, 0]] - pts[bars[:, 1]]
    order = bars.ravel().argsort(kind="stable")  # the ends by joint; end 2i + k is bar i's
    joint, bar = bars.ravel()[order], order // 2
    arm = np.concatenate([d, -d], axis=1).reshape(-1, 3)[order].T  # s d of every end
    degree = np.bincount(joint, minlength=len(pts))
    reach = degree[joint]  # each end pairs with the reach[e] ends from its joint's first on
    skip = degree.cumsum()[joint] - degree[joint] - reach.cumsum() + reach
    right = np.arange(reach.sum()) + skip.repeat(reach)
    dots = arm[0].repeat(reach) * arm[0][right] + 0.0  # + 0.0: as a sum from 0 would
    for k in (1, 2):
        dots += arm[k].repeat(reach) * arm[k][right]
    col, diag = bar.repeat(reach), np.arange(n)
    tau = _GRAM_SHIFT * float(np.bincount(col, np.abs(dots), minlength=n).max())
    return (np.concatenate([dots, np.full(n, -tau)]), np.concatenate([bar[right], diag]),
            np.concatenate([col, diag]))


def _certified_full_rank(pts: np.ndarray, bars: np.ndarray) -> bool:
    """True only if a sparse LU proves G - tau I positive definite, and so
    the rigidity matrix of rank E (see _shifted_gram).

    scipy sums the terms of each entry as it builds the CSC matrix.  An LU
    of the symmetric G - tau I that kept every pivot on the diagonal
    (perm_r == perm_c) is an L D L^T factorization; positive pivots D then
    make G - tau I positive definite by Sylvester's law of inertia.  A
    singular or indefinite G yields a nonpositive pivot, a row exchange or
    a singular factor, and False.
    """
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    n = len(bars)
    value, row, col = _shifted_gram(pts, bars)
    shifted = csc_array((value, (row, col)), shape=(n, n))
    del value, row, col  # freed before the LU, the process's peak
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all())


def _banded_certified_full_rank(pts: np.ndarray, bars: np.ndarray, axis: np.ndarray) -> bool:
    """_certified_full_rank by a banded Cholesky of G - tau I, without scipy.

    Only bars that share a joint have a nonzero Gram entry, so with the bars
    ordered by their midpoints along axis, G - tau I is banded (Cuthill &
    McKee 1969 order by graph levels; a sweep along the joints' principal
    axis does as well on spheres and domes, with one sort).  Its lower
    triangle is stored as column panels _BLOCK wide, each from the diagonal
    down to the last row that any column up to its last one reaches.  No
    fill passes that envelope, since a Cholesky factor has no nonzero left
    of the first one of its row in the matrix (George & Liu 1981), so the
    band takes O(E w) memory and O(E w^2) time for bandwidth w.  Panels are
    factored left to right: each is reduced by the earlier ones that reach
    its rows, its diagonal block goes through np.linalg.cholesky, and the
    rows below through one np.linalg.solve against that factor (no explicit
    inverse, whose error would grow with the condition of the factor).

    Success leaves Pi (G - tau I) Pi^T = L L^T, Pi the bar permutation and
    L lower triangular with every diagonal entry positive, since
    np.linalg.cholesky raises LinAlgError on a nonpositive (or NaN) pivot
    instead; the entries of L outside the band are exact zeros.  Such an L is
    nonsingular, so x^T (G - tau I) x = |L^T Pi x|^2 > 0 for every x != 0:
    G - tau I is positive definite.
    Cholesky and the pivoted solves are backward stable, so rounding makes L
    the exact factor of a matrix within about E * eps * |G| of
    Pi (G - tau I) Pi^T, far below tau.
    """
    n = len(bars)
    bars = bars[((pts[bars[:, 0]] + pts[bars[:, 1]]) @ axis).argsort(kind="stable")]
    dots, row, col = _shifted_gram(pts, bars)
    low = row >= col
    dots, row, col = dots[low], row[low], col[low]
    b = _BLOCK
    start = np.arange(0, n, b)
    width = np.minimum(b, n - start)
    end = start + width  # one past each panel's last row
    panel = col // b
    np.maximum.at(end, panel, row + 1)
    end = np.maximum.accumulate(end)
    size = (end - start) * width
    offset = size.cumsum() - size
    band = np.bincount(offset[panel] + (row - start[panel]) * width[panel] + col - start[panel],
                       dots, minlength=size.sum())
    del dots, row, col, panel, low
    panels = [band[a : a + s].reshape(-1, w) for a, s, w in zip(offset, size, width)]
    reach = end.searchsorted(start, side="right")  # the first panel reaching each one's rows
    for k, (P, j, w) in enumerate(zip(panels, start, width)):
        for Q, i in zip(panels[reach[k] : k], start[reach[k] : k]):
            Q = Q[j - i :]  # its rows from j on
            c = min(len(Q), w)
            P[: len(Q), :c] -= Q @ Q[:c].T
        try:
            L = np.linalg.cholesky(P[:w])
            P[w:] = np.linalg.solve(L, P[w:].T).T
        except np.linalg.LinAlgError:
            return False
        P[:w] = L
    return True


def is_infinitesimally_rigid(obj) -> RigidityReport:
    """Rank test of the rigidity matrix against 3V - 6.

    The rank is the number of singular values above 1e-10 times the
    largest, which leaves the verdict unchanged under rotation and uniform
    scaling of the framework.

    A framework with 1 <= E <= 3V - 6 bars first tries a certificate: a
    factorization of the bars' Gram matrix, shifted down by 1e-8 of its norm,
    that proves every singular value lies above 1e-4 times the largest.  A
    framework of at most _BANDED_BARS bars, closed or open, orders its bars
    along the joints' principal axis and factors the band without scipy; a
    larger one factors it sparsely.  A certified framework has rank E, the
    rank the SVD would report, so it is rigid only when E = 3V - 6.  Every
    other framework, and one the certificate cannot prove (a flexible one,
    or one too ill-conditioned for the shift), gets the dense SVD.
    """
    pts, bars = _as_framework(obj)
    if len(pts) < 3:
        raise DegenerateGeometry("a framework needs at least 3 joints for a 3D verdict")
    _, spread, axes = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
    if spread[1] <= _RANK_EPS * max(spread[0], 1e-300):
        raise DegenerateGeometry("joints are collinear")
    required = 3 * len(pts) - 6
    if not 0 < len(bars) <= required:
        certified = False
    elif len(bars) <= _BANDED_BARS:
        certified = _banded_certified_full_rank(pts, bars, axes[0])
    else:
        certified = _certified_full_rank(pts, bars)
    if certified:
        rank = len(bars)
    else:
        sv = np.linalg.svd(_dense_rigidity(pts, bars), compute_uv=False)
        rank = int(np.sum(sv > _RANK_EPS * sv.max(initial=0.0)))  # no bars: rank 0
    return RigidityReport(
        edge_rows=len(bars),
        dof_cols=3 * len(pts),
        rank=rank,
        required_rank=required,
    )
