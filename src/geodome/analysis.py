"""Counting, metric, congruence, and rigidity analysis of built meshes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, NonTriangularFace, NotClassI
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy
from .mesh import _check_policy, _norms, _positive_finite, _rowdot
from .tessellation import TessellationSpec, _is_int

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


def _check_tol(tol: float) -> None:
    if not _positive_finite(tol):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def edge_class_labels(
    P: Mesh, tol: float = DEFAULT_TOL.metric_eps
) -> tuple[EdgeClassTable, list[int]]:
    """Classify edges by chord factor; also label each edge with its class row.

    Single-linkage clustering on the sorted lengths: a gap larger than tol
    starts a new class, so members of one class form a chain of sub-tol gaps.
    """
    if P.radius is None:
        raise ValueError("chord factors require an inscribed mesh")
    _check_tol(tol)
    factors = P.edge_lengths() / P.radius
    order = np.argsort(factors, kind="stable")
    ranked = factors[order]
    gaps = np.diff(ranked) > tol
    labels = np.empty(len(factors), dtype=np.intp)
    labels[order] = np.concatenate([[0], np.cumsum(gaps)])
    groups = np.split(ranked, np.flatnonzero(gaps) + 1)
    entries = tuple((float(np.mean(g)), len(g)) for g in groups)
    if sum(c for _, c in entries) != len(factors):
        raise AssertionError("edge classes do not account for every edge")
    return EdgeClassTable(entries=entries, tol=tol), labels.tolist()


def edge_length_classes(P: Mesh, tol: float = DEFAULT_TOL.metric_eps) -> EdgeClassTable:
    """Strut length classes of an inscribed mesh (see edge_class_labels)."""
    table, _ = edge_class_labels(P, tol)
    return table


def _triangles(P: Mesh) -> np.ndarray:
    """(F, 3) corner ids of a mesh whose faces are all triangles."""
    he = P._half_edges
    other = np.flatnonzero(he.size != 3)
    if other.size:
        raise NonTriangularFace(f"face {other[0]} has {he.size[other[0]]} sides")
    return he.tail.reshape(-1, 3)


def circumcenter_deviation(P: Mesh) -> float:
    """Largest distance, relative to the radius, between each face's
    circumcenter and the foot of the perpendicular from the center.

    For a triangle inscribed in the sphere the two coincide; the deviation
    measures construction error.
    """
    if P.radius is None:
        raise ValueError("deviation is measured relative to the circumsphere radius")
    A, B, C = np.moveaxis(P.vertices[_triangles(P)] - P.center, 1, 0)
    u, v = B - A, C - A
    uu, vv, uv = _rowdot(u, u), _rowdot(v, v), _rowdot(u, v)
    det = uu * vv - uv * uv
    s = 0.5 * (uu * vv - uv * vv) / det
    t = 0.5 * (vv * uu - uv * uu) / det
    circumcenter = A + s[:, None] * u + t[:, None] * v
    n = np.cross(u, v)
    n /= _norms(n)[:, None]
    foot = (_rowdot(A + B + C, n) / 3.0)[:, None] * n
    return float(_norms(foot - circumcenter).max()) / P.radius


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


def face_metrics(P: Mesh, tol: float = DEFAULT_TOL.metric_eps) -> list[FaceMetric]:
    """Leg/base ratio and apex angle of every triangular face."""
    _check_tol(tol)
    tri = _triangles(P)
    scale = P.radius
    if scale is None:
        scale = float(P.edge_lengths().mean())
    pts = P.vertices[tri]
    # lens[:, i] is the edge opposite corner i; same[:, i] compares the two edges at corner i
    lens = np.column_stack([_norms(pts[:, (i + 1) % 3] - pts[:, (i + 2) % 3]) for i in range(3)])
    same = np.abs(lens[:, [1, 2, 0]] - lens[:, [2, 0, 1]]) <= tol * scale
    # an isosceles face is read from its apex: the first corner between two equal legs
    apex = np.argmax(same, axis=1)
    rows = np.arange(len(tri))
    turn = (apex[:, None] + np.arange(3)) % 3
    lens, pts = lens[rows[:, None], turn], pts[rows[:, None], turn]
    ratio = 0.5 * (lens[:, 1] + lens[:, 2]) / lens[:, 0]
    u, v = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    cosine = _rowdot(u, v) / (_norms(u) * _norms(v))
    columns = (same.sum(axis=1), ratio, cosine, tri[rows, apex])
    out = []
    for fi, (n_same, r, c, top) in enumerate(zip(*(col.tolist() for col in columns))):
        if n_same == 3:
            out.append(FaceMetric(fi, "equilateral", 1.0, math.pi / 3.0, None))
        elif n_same == 0:
            out.append(FaceMetric(fi, "scalene", None, None, None))
        else:
            out.append(FaceMetric(fi, "isosceles", r, math.acos(max(-1.0, min(1.0, c))), top))
    return out


def detect_frequency(P: Mesh) -> int:
    """Frequency m of a class I sphere: the edge-graph distance between
    nearest degree-5 vertices.

    Every degree-5 vertex must see its nearest degree-5 neighbor at the same
    distance, and the vertex total must match a class I sphere of that
    frequency; anything else is rejected.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import shortest_path

    fives = np.flatnonzero(P.degrees() == 5)
    if not fives.size:
        raise NotClassI("no degree-5 vertices")
    he = P._half_edges
    graph = coo_array((np.ones(len(he.tail)), (he.tail, he.head)), shape=(len(P.vertices),) * 2)
    dist = shortest_path(graph, directed=False, unweighted=True, indices=fives)[:, fives]
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    # name the first degree-5 vertex, in index order, that breaks the pattern
    far = np.isinf(nearest)
    bad = np.flatnonzero(far | (nearest != nearest[0]))
    if bad.size:
        if far[bad[0]]:
            raise NotClassI("degree-5 vertices are not connected")
        pair = sorted({int(nearest[0]), int(nearest[bad[0]])})
        raise NotClassI(f"nearest degree-5 distances differ: {pair}")
    m = int(nearest[0])
    if P.counts != _sphere_counts(20, m * m):
        raise NotClassI(f"counts do not match a class I sphere of frequency {m}")
    return m


def _frames(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frames, columns of (N, 3, 3): e1 along a[i], e2 toward b[i]."""
    e1 = a / _norms(a)[:, None]
    e2 = b - _rowdot(b, e1)[:, None] * e1
    e2 /= _norms(e2)[:, None]
    return np.stack([e1, e2, np.cross(e1, e2)], axis=2)


def _turn(points: np.ndarray, R: np.ndarray) -> np.ndarray:
    """points @ R.T for a rotation or a stack of them, rounded alike for every stack size."""
    return sum(points[:, k, None] * R[..., None, :, k] for k in range(3))


def congruent(
    P: Mesh,
    Q: Mesh,
    allow_reflection: bool = False,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """Whether an isometry carries the vertex set of P onto that of Q.

    Only rotations about the centers are searched unless allow_reflection is
    set.  Candidate alignments map a vertex of the rarest degree and its
    lowest-numbered neighbor onto an edge of Q with the same end degrees, as
    an isometry between the meshes must.  One KD-tree query moves up to 12 of
    P's rarest-degree vertices under every candidate and drops a candidate
    that leaves one farther than metric_eps from Q.  Each survivor in turn
    gets the full test: every vertex within metric_eps of a distinct vertex.
    The first candidate in (anchor, neighbor) order, the identity on a copy
    of P, is tried alone before the rest.
    """
    _check_policy(tol)
    if P.counts != Q.counts or vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    if (P.radius is None) != (Q.radius is None):
        return False
    eps = tol.metric_eps * (P.radius if P.radius is not None else 1.0)
    if P.radius is not None and abs(P.radius - Q.radius) > eps:
        return False

    from scipy.spatial import cKDTree

    p_verts, q_verts = P.vertices - P.center, Q.vertices - Q.center
    degrees_p, degrees_q = P.degrees(), Q.degrees()
    # vertices of the rarest degree among those on an edge, the lower degree on ties
    values, counts = np.unique(degrees_p[degrees_p > 0], return_counts=True)
    rare = np.flatnonzero(degrees_p == values[np.lexsort((values, counts))[0]])
    edges = P._half_edges.edges
    nbr = np.concatenate([edges[edges[:, 0] == rare[0], 1], edges[edges[:, 1] == rare[0], 0]]).min()
    ends = np.concatenate([Q._half_edges.edges, Q._half_edges.edges[:, ::-1]])
    ends = ends[(degrees_q[ends] == (degrees_p[rare[0]], degrees_p[nbr])).all(axis=1)]
    ends = ends[np.lexsort(ends.T[::-1])]  # in (anchor, neighbor) order
    frames = _frames(q_verts[ends[:, 0]], q_verts[ends[:, 1]])
    if allow_reflection:  # each frame, then its mirror image
        frames = np.stack([frames, frames * (1.0, 1.0, -1.0)], axis=1).reshape(-1, 3, 3)
    turns = frames @ _frames(p_verts[rare[:1]], p_verts[[nbr]])[0].T
    tree = cKDTree(q_verts)
    for group in (turns[:1], turns[1:]):
        near, _ = tree.query(_turn(p_verts[rare[:12]], group))  # 12: all of them, on a sphere
        for R in group[(near <= eps).all(axis=1)]:
            dist, idx = tree.query(_turn(p_verts, R))
            if dist.max() <= eps and np.unique(idx).size == idx.size:
                return True
    return False


_TABLE_ENTRIES = 1 << 22  # bounds the memory of one table of candidate dart maps


def _dart_kinds(P: Mesh, tail: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """(tail degree, head degree, face size) of every dart, coded as one integer."""
    degrees, top, he = P.degrees(), len(P.vertices) + 1, P._half_edges
    return (degrees[tail] * top + degrees[tail[succ]]) * top + he.size[he.face]


def _dart_tree(succ: np.ndarray, twin: np.ndarray, root: int) -> list[tuple] | None:
    """Breadth-first tree of the darts from root over succ and twin (len(succ)
    on a boundary): per level (darts, parents, step), step 1 for a parent's
    succ and 0 for its twin.  None if a dart is not reached."""
    n = len(succ)
    seen = np.zeros(n + 1, dtype=bool)
    seen[[root, n]] = True
    frontier, levels = np.array([root]), []
    while frontier.size:
        kids, first = np.unique(np.concatenate([twin[frontier], succ[frontier]]), return_index=True)
        kids, first = kids[~seen[kids]], first[~seen[kids]]
        seen[kids] = True
        levels.append((kids, np.tile(frontier, 2)[first], (first >= frontier.size).astype(np.intp)))
        frontier = kids
    return levels if seen.all() else None


def combinatorially_isomorphic(P: Mesh, Q: Mesh) -> bool:
    """Whether P and Q have the same face-edge-vertex incidence structure.

    An isomorphism of connected maps is fixed by the image of one dart
    (Weinberg 1966): here the first dart of P of the rarest kind (tail degree,
    head degree, face size), imaged on each dart of Q of that kind.  One
    breadth-first tree of P's darts over next and twin extends all candidates
    to dart maps, an array pass per level.  A map that commutes with next and
    twin (boundary to boundary) and induces a consistent, injective vertex map
    is an isomorphism.  Q is tried as given, then with its faces reversed, so
    mirror images match; in each orientation the first candidate is tried
    alone before the rest, so a copy of P costs one.
    """
    if P.counts != Q.counts or vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    he_p, he_q, n = P._half_edges, Q._half_edges, len(P._half_edges.tail)
    kinds, first, counts = np.unique(
        _dart_kinds(P, he_p.tail, he_p.succ), return_index=True, return_counts=True
    )
    rarest = np.lexsort((kinds, counts))[0]
    twin_p = np.where(he_p.twin < 0, n, he_p.twin)
    levels = _dart_tree(he_p.succ, twin_p, first[rarest])
    if levels is None:
        return False
    # rep[i] is a dart leaving the i-th used vertex of P, and dart h leaves vertex tail_of[h]
    _, rep, tail_of = np.unique(he_p.tail, return_index=True, return_inverse=True)
    twin_q = np.append(np.where(he_q.twin < 0, n, he_q.twin), n)  # dart n is "no dart"
    rows = max(1, _TABLE_ENTRIES // (n + 1))
    # Q's (tail, next), then with faces reversed: h leaves its head, followed by its predecessor
    for tail, succ in ((he_q.tail, he_q.succ), (he_q.head, np.argsort(he_q.succ))):
        steps = np.stack([twin_q, np.append(succ, n)])
        starts = np.flatnonzero(_dart_kinds(Q, tail, succ) == kinds[rarest])
        for group in [starts[:1]] + [starts[i : i + rows] for i in range(1, len(starts), rows)]:
            M = np.full((len(group), n + 1), n)
            M[:, first[rarest]] = group
            for kids, parents, step in levels:
                M[:, kids] = steps[step, M[:, parents]]
            image = M[:, :n]
            mapped = (image < n) & (steps[1, image] == M[:, he_p.succ])
            corners = tail[image[(mapped & (steps[0, image] == M[:, twin_p])).all(axis=1)]]
            vmap = corners[:, rep]
            vmap = np.sort(vmap[(corners == vmap[:, tail_of]).all(axis=1)], axis=1)
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
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("framework points must be an (N, 3) array")
    if not np.isfinite(pts).all():
        raise ValueError("framework points must be finite")
    pairs = [tuple(bar) for bar in edges]
    for bar in pairs:
        if not (
            len(bar) == 2
            and all(_is_int(i) and 0 <= i < len(pts) for i in bar)
            and bar[0] != bar[1]
        ):
            raise ValueError(
                f"invalid framework edge ({', '.join(map(str, bar))}): "
                f"it must join two distinct integer joint ids below {len(pts)}"
            )
    return pts, np.array(pairs, dtype=np.intp).reshape(-1, 2)


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


def _certified_full_rank(pts: np.ndarray, bars: np.ndarray, rank_eps: float) -> bool:
    """True only if all E singular values of the rigidity matrix M exceed
    sqrt(2) * rank_eps times the largest.

    The Gram matrix G = M M^T has eigenvalues sigma_i^2, the largest at most
    |G|_1.  With tau = max(_GRAM_SHIFT, 2 rank_eps^2) * |G|_1, an LU of
    G - tau I that kept every pivot on the diagonal (perm_r == perm_c) is an
    L D L^T factorization; positive pivots D then make G - tau I positive
    definite by Sylvester's law of inertia, so sigma_E^2 > tau >=
    2 rank_eps^2 sigma_1^2.  A singular or indefinite G yields a nonpositive
    pivot, a row exchange or a singular factor, and False.
    """
    from scipy.sparse import csr_array, eye_array
    from scipy.sparse.linalg import splu

    rows, cols, vals = _bar_triplets(pts, bars)
    M = csr_array((vals, (rows, cols)), shape=(len(bars), 3 * len(pts)))
    G = M @ M.T
    tau = max(_GRAM_SHIFT, 2.0 * rank_eps**2) * float(abs(G).sum(axis=0).max())
    H = (G - tau * eye_array(len(bars))).tocsc()
    try:
        lu = splu(
            H,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly zero pivot
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all())


def is_infinitesimally_rigid(obj, tol: TolerancePolicy = DEFAULT_TOL) -> RigidityReport:
    """Rank test of the rigidity matrix against 3V - 6.

    The rank is the number of singular values above rank_eps times the
    largest, which leaves the verdict unchanged under rotation and uniform
    scaling of the framework.

    A framework with exactly 3V - 6 bars, such as any closed triangulated
    sphere, first tries a certificate: a sparse factorization of the bars'
    Gram matrix, shifted down by at least 1e-8 of its norm, that proves every
    singular value lies above max(1e-4, sqrt(2) * rank_eps) times the largest.
    A certified framework has rank E, the rank the SVD would report.  Every
    other framework, and one the certificate cannot prove (a flexible one,
    or one too ill-conditioned for the shift), gets the dense SVD.
    """
    _check_policy(tol)
    pts, bars = _as_framework(obj)
    if len(pts) < 3:
        raise DegenerateGeometry("a framework needs at least 3 joints for a 3D verdict")
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if spread[1] <= tol.rank_eps * max(spread[0], 1e-300):
        raise DegenerateGeometry("joints are collinear")
    required = 3 * len(pts) - 6
    if len(bars) == required and _certified_full_rank(pts, bars, tol.rank_eps):
        rank = required
    else:
        sv = np.linalg.svd(_dense_rigidity(pts, bars), compute_uv=False)
        rank = int(np.sum(sv > tol.rank_eps * sv.max(initial=0.0)))  # no bars: rank 0
    return RigidityReport(
        edge_rows=len(bars),
        dof_cols=3 * len(pts),
        rank=rank,
        required_rank=required,
    )
