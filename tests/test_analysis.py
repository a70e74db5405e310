"""Histograms, edge classes, face metrics, congruence, and rigidity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodome import (
    DEFAULT_TOL,
    DegenerateGeometry,
    NonTriangularFace,
    NotClassI,
    RigidityReport,
    TessellationSpec,
    analysis_rows,
    angle_dms,
    build_mesh,
    circumcenter_deviation,
    combinatorially_isomorphic,
    congruent,
    detect_frequency,
    dual,
    edge_class_labels,
    edge_length_classes,
    face_metrics,
    gemmate,
    is_infinitesimally_rigid,
    mirrored,
    project_to_sphere,
    rigidity_matrix,
    rotated,
    rotation_to_z,
    seed,
    stepping_projection,
    strut_schedule,
    subdivide,
    truncate_dome,
    verify_counts,
    vertex_degree_histogram,
)
from geodome import analysis
from geodome.analysis import (
    _GRAM_SHIFT,
    _RANK_EPS,
    _bar_triplets,
    _banded_certified_full_rank,
    _certified_full_rank,
    _dense_rigidity,
    _shifted_gram,
)
from geodome.mesh import _scale


def test_degree_histograms(sphere_3v, sphere_21):
    assert vertex_degree_histogram(sphere_3v) == {5: 12, 6: 80}
    assert vertex_degree_histogram(sphere_21) == {5: 12, 6: 60}


def test_degree_histogram_matches_unique_reference(make_sphere, icosa):
    spheres = (make_sphere(2, 0, vertex_up=True), make_sphere(3, 1), make_sphere(7, 0),
               make_sphere(3, 0, "tetrahedron"))
    meshes = [truncate_dome(P, h) for P in spheres for h in (0.3, 0.5, 0.8)]
    # an unused vertex has degree 0
    meshes.append(build_mesh(np.vstack([icosa.vertices, [(0.0, 0.0, 2.0)]]), icosa.faces,
                             closed=False))
    seen = set()
    for P in meshes:
        degrees, counts = np.unique(P.degrees(), return_counts=True)
        hist = vertex_degree_histogram(P)
        assert hist == dict(zip(degrees.tolist(), counts.tolist()))
        assert list(hist) == sorted(hist) and all(type(d) is int for d in hist)
        assert all(type(c) is int and c > 0 for c in hist.values())
        seen |= set(hist)
    assert {0, 2, 3, 4} <= seen


def test_verify_counts(sphere_21, icosa):
    assert verify_counts(sphere_21, TessellationSpec(2, 1))
    assert not verify_counts(icosa, TessellationSpec(2, 1))


def test_verify_counts_requires_a_spec(sphere_21):
    with pytest.raises(TypeError, match="^spec must be a TessellationSpec, got tuple$"):
        verify_counts(sphere_21, (2, 1))


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (3, 0), (2, 1), (1, 2), (3, 2)])
def test_verify_counts_on_every_triangular_seed(make_sphere, kind, m, n):
    P = make_sphere(m, n, kind)
    assert verify_counts(P, TessellationSpec(m, n))
    assert not verify_counts(P, TessellationSpec(m + 1, n))


def test_edge_classes_2v(sphere_2v):
    table, labels = edge_class_labels(sphere_2v)
    assert table.class_count == 2
    assert [count for _, count in table.entries] == [60, 60]
    assert len(labels) == len(sphere_2v.edges)
    assert set(labels) == {0, 1}
    chords = [chord for chord, _ in table.entries]
    assert chords == sorted(chords)
    assert sum(count for _, count in table.entries) == 120


def test_edge_classes_merge_at_coarse_tolerance(sphere_2v):
    coarse = edge_length_classes(sphere_2v, tol=1.0)
    assert coarse.class_count == 1
    assert coarse.entries[0][1] == 120
    # the table records the checked float, whatever number type came in
    assert type(edge_length_classes(sphere_2v, tol=1).tol) is float


def test_edge_classes_reject_bad_tolerance(sphere_2v):
    for bad in (0.0, -1e-9, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            edge_length_classes(sphere_2v, tol=bad)
        with pytest.raises(ValueError):
            edge_class_labels(sphere_2v, tol=bad)
    for bad, name in (((1e-9,), "tuple"), ("1e-9", "str")):
        with pytest.raises(TypeError, match=f"tol must be a number, got {name}"):
            edge_length_classes(sphere_2v, bad)
        with pytest.raises(TypeError, match=f"tol must be a number, got {name}"):
            edge_class_labels(sphere_2v, bad)


def test_edge_class_means_match_np_mean(make_sphere):
    design = [make_sphere(m, n, vertex_up=True) for m, n in ((14, 0), (10, 6))]
    census = [make_sphere(m, n, kind) for kind in ("tetrahedron", "octahedron", "icosahedron")
              for m, n in ((1, 0), (2, 1), (3, 3), (6, 0))]
    census += [gemmate(seed(kind)) for kind in ("dodecahedron", "truncated_icosahedron")]
    for P in design + census + [truncate_dome(design[0], 0.5)]:
        factors = P.edge_lengths() / _scale(P)
        ranked = np.sort(factors, kind="stable")
        groups = np.split(ranked, np.flatnonzero(np.diff(ranked) > DEFAULT_TOL) + 1)
        want = tuple((float(np.mean(g)), len(g)) for g in groups)
        assert edge_class_labels(P)[0].entries == want


def test_face_metrics_kinds(sphere_2v, sphere_21):
    kinds_2v = {m.kind for m in face_metrics(sphere_2v)}
    assert kinds_2v == {"equilateral", "isosceles"}
    scalene = [m for m in face_metrics(sphere_21) if m.kind == "scalene"]
    assert len(scalene) == 60
    assert all(m.leg_base_ratio is None and m.apex_angle is None for m in scalene)


def test_face_metrics_equilateral_values(icosa):
    metrics = face_metrics(icosa)
    assert all(m.kind == "equilateral" for m in metrics)
    assert all(m.leg_base_ratio == 1.0 for m in metrics)
    assert all(m.apex_angle == pytest.approx(math.pi / 3) for m in metrics)


def test_face_metrics_rejects_bad_tolerance(sphere_2v):
    t = seed("tetrahedron")
    verts = t.vertices.copy()
    verts[0] *= 2.0  # not inscribed: the scale is the mean vertex distance
    for P in (sphere_2v, build_mesh(verts, t.faces)):
        for bad in (math.nan, 0.0, -1e-9, math.inf, True, np.True_):
            with pytest.raises(ValueError, match="tol must be positive"):
                face_metrics(P, tol=bad)
        for bad, name in (((1e-9,), "tuple"), ("1e-9", "str")):
            with pytest.raises(TypeError, match=f"tol must be a number, got {name}"):
                face_metrics(P, bad)


def test_face_metrics_requires_triangles():
    with pytest.raises(NonTriangularFace):
        face_metrics(seed("dodecahedron"))
    with pytest.raises(NonTriangularFace):
        circumcenter_deviation(seed("dodecahedron"))


def test_pentakis_apex_vertices_are_peaks():
    G = gemmate(seed("dodecahedron"))
    metrics = face_metrics(G)
    assert all(m.kind == "isosceles" for m in metrics)
    apexes = {m.apex_vertex for m in metrics}
    assert len(apexes) == 12  # one pyramid tip per pentagon
    hist = vertex_degree_histogram(G)
    assert hist[5] == 12


def test_angle_dms_roundtrip():
    rad = math.radians(67.0 + 40.0 / 60.0 + 7.0 / 3600.0)
    d, m, s = angle_dms(rad)
    assert (d, m) == (67, 40)
    assert s == pytest.approx(7.0, abs=1e-9)
    d, m, s = angle_dms(math.radians(12.0 + 34.0 / 60.0 + 56.7 / 3600.0))
    assert (d, m) == (12, 34)
    assert s == pytest.approx(56.7, abs=1e-9)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, np.True_])
def test_angle_dms_rejects_non_finite_and_bool(bad):
    # inf overflowed int(), nan failed inside int(), and True read as 1 rad = 57°17'
    with pytest.raises(ValueError, match="^radians must be finite, got "):
        angle_dms(bad)


def test_angle_dms_names_a_wrong_type():
    with pytest.raises(TypeError, match="^radians must be a number, got str$"):
        angle_dms("1.0")


def test_circumcenter_deviation_small_on_spheres(icosa, sphere_21):
    assert circumcenter_deviation(icosa) < 1e-12
    assert circumcenter_deviation(sphere_21) < 1e-9


def test_detect_frequency(make_sphere, sphere_3v, sphere_21, icosa):
    assert detect_frequency(sphere_3v) == 3
    assert detect_frequency(make_sphere(5, 0)) == 5
    assert detect_frequency(icosa) == 1
    for bad in (sphere_21, seed("dodecahedron"), seed("octahedron")):
        with pytest.raises(NotClassI):
            detect_frequency(bad)


def _reference_frequency(P):
    """The edge-graph distance between nearest degree-5 vertices, from scipy's shortest_path."""
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
    if np.isinf(nearest).any() or (nearest != nearest[0]).any():
        raise NotClassI("nearest degree-5 distances differ")
    m = int(nearest[0])
    if P.counts != analysis._sphere_counts(20, m * m):
        raise NotClassI(f"counts do not match a class I sphere of frequency {m}")
    return m


def _flipped(P, a, b):
    """P with edge (a, b) flipped: its two triangles re-split along the other diagonal."""
    faces = [list(f) for f in P.faces]
    (i, f), (j, g) = [(k, f) for k, f in enumerate(faces) if a in f and b in f]
    c, d = (next(v for v in face if v not in (a, b)) for face in (f, g))
    if f[(f.index(a) + 1) % 3] != b:  # name the ends so that f runs a -> b
        a, b = b, a
    faces[i], faces[j] = [a, d, c], [d, b, c]
    return build_mesh(P.vertices, faces, radius=P.radius)


def test_detect_frequency_matches_the_shortest_path_reference(make_sphere):
    def frequency(detect, P):
        try:
            return detect(P)
        except NotClassI:
            return None

    R = rotation_to_z((1.0, -2.0, 0.5))
    walks = [(m, 0) for m in range(1, 9)] + [(0, 4), (2, 1), (3, 3), (5, 3), (3, 5)]
    kinds = ("tetrahedron", "octahedron", "icosahedron")
    meshes = [make_sphere(m, n, kind) for kind in kinds for m, n in walks]
    meshes += [stepping_projection(seed(kind), k) for kind in kinds for k in (1, 2, 3)]
    P = make_sphere(4, 0)
    degree = P.degrees()
    inner = next(e for e in P.edges if (degree[list(e)] == 6).all())
    near = next(e for e in P.edges if degree[e[0]] == 5)  # the first strut of a lattice line
    flips = [_flipped(P, *inner), _flipped(P, *near)]
    meshes += [dual(P), truncate_dome(P, 0.5), _relabeled(P), rotated(P, R),
               rotated(_relabeled(make_sphere(5, 3)), R), *flips]
    got = [frequency(detect_frequency, P) for P in meshes]
    assert got == [frequency(_reference_frequency, P) for P in meshes]
    # icosahedral (m, 0) and (0, 4), stepping to 2, 4 and 8, the relabeled and rotated (4, 0)
    assert sorted(filter(None, got)) == [1, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6, 7, 8, 8]
    assert got[-2:] == [None, None]


def test_congruent_under_rotation(sphere_21):
    R = rotation_to_z((1.0, -2.0, 0.5))
    assert congruent(sphere_21, rotated(sphere_21, R))


def test_congruent_rejects_scaled(make_sphere, sphere_2v):
    assert not congruent(sphere_2v, make_sphere(2, 0, radius=1.1))
    # the tolerance is DEFAULT_TOL times the radius: a vertex moved along the
    # sphere by half of it stays congruent, by twice it does not
    for radius in (1.0, 1e6):
        P = make_sphere(2, 0, radius=radius)
        v = len(P.vertices) - 1  # neither the anchor nor its neighbor
        tangent = np.cross(P.vertices[v], (1.0, 2.0, 3.0))
        tangent /= np.linalg.norm(tangent)
        for shift, same in ((0.5, True), (2.0, False)):
            verts = P.vertices.copy()
            verts[v] += shift * DEFAULT_TOL * radius * tangent
            moved = build_mesh(verts, P.faces, radius=radius)
            assert congruent(P, moved) is same, (radius, shift)


@pytest.mark.parametrize("radius", [1e-6, 1.0, 1e8])
def test_congruent_scale_without_a_circumsphere(radius):
    # with no circumsphere the scale is the mean vertex distance, not 1
    def goldberg(r):
        return dual(project_to_sphere(subdivide(seed("icosahedron", r), 2, 1)))

    D, unit = goldberg(radius), goldberg(1.0)
    assert D.radius is None
    assert congruent(D, D) and _reference_congruent(D, D)
    scaled = build_mesh(D.vertices * (1.0 + 1e-4), D.faces)
    assert not congruent(D, scaled) and not _reference_congruent(D, scaled)
    # every scale-relative result reads the same at every radius
    table, unit_table = edge_length_classes(D), edge_length_classes(unit)
    assert [c for _, c in table.entries] == [c for _, c in unit_table.entries]
    for (chord, _), (unit_chord, _) in zip(table.entries, unit_table.entries):
        assert chord == pytest.approx(unit_chord, rel=1e-12, abs=0.0)
    rows, unit_rows = analysis_rows(D), analysis_rows(unit)
    assert [name for name, _ in rows] == [name for name, _ in unit_rows]
    integers = [(n, v) for n, v in rows if isinstance(v, int)]
    assert integers == [(n, v) for n, v in unit_rows if isinstance(v, int)]
    assert len(integers) > 10
    # not 0.5: there face centroids lie on the cut plane and rounding, which
    # differs with the radius, keeps or drops them (inscribed spheres too)
    assert truncate_dome(D, 0.4).counts[2] == truncate_dome(unit, 0.4).counts[2] == 28
    chords = [s[3] for s in strut_schedule(D).struts]
    np.testing.assert_allclose(chords, [s[3] for s in strut_schedule(unit).struts], rtol=1e-12)
    scale = np.linalg.norm(D.vertices, axis=1).mean()
    apexes = np.linalg.norm(gemmate(D).vertices[len(D.vertices):], axis=1) / scale
    np.testing.assert_allclose(apexes, 1.0, rtol=1e-12)


def test_congruent_rejects_different_meshes(sphere_2v, sphere_21):
    assert not congruent(sphere_2v, sphere_21)


def test_chirality_detection(make_sphere, sphere_21):
    mirror = mirrored(sphere_21)
    assert not congruent(sphere_21, mirror)
    assert congruent(sphere_21, mirror, allow_reflection=True)
    assert congruent(mirror, make_sphere(1, 2))


def test_achiral_spheres_match_their_mirrors(make_sphere, sphere_3v):
    for P in (sphere_3v, make_sphere(2, 2)):
        assert congruent(P, mirrored(P))


def test_combinatorial_isomorphism(make_sphere, sphere_21, sphere_2v):
    assert combinatorially_isomorphic(sphere_21, make_sphere(1, 2))
    assert combinatorially_isomorphic(sphere_21, mirrored(sphere_21))
    assert not combinatorially_isomorphic(sphere_21, sphere_2v)
    assert combinatorially_isomorphic(seed("icosahedron"), seed("icosahedron", 7.0))


def test_combinatorial_isomorphism_of_open_meshes(make_sphere):
    dome = truncate_dome(make_sphere(2, 0, vertex_up=True), 0.5)
    assert combinatorially_isomorphic(dome, dome)
    assert combinatorially_isomorphic(dome, rotated(dome, rotation_to_z((1.0, -2.0, 0.5))))
    assert combinatorially_isomorphic(dome, mirrored(dome))


def test_congruence_and_isomorphism_with_an_unused_vertex(icosa):
    def with_point(P, point):
        return build_mesh(np.vstack([P.vertices, [point]]), P.faces, closed=False)

    M = with_point(icosa, (0.0, 0.0, 0.5))
    for Q in (M, rotated(M, rotation_to_z((1.0, -2.0, 0.5)))):
        assert congruent(M, Q) and combinatorially_isomorphic(M, Q)
    moved = with_point(icosa, (0.0, 0.0, 0.4))
    assert not congruent(M, moved, allow_reflection=True)
    assert combinatorially_isomorphic(M, moved)


# --- loop references: the per-candidate searches these tests compare against --


def _reference_rare_degree_vertices(P):
    degrees = P.degrees()
    values, counts = np.unique(degrees[degrees > 0], return_counts=True)
    rare = values[np.lexsort((values, counts))[0]]
    return np.flatnonzero(degrees == rare).tolist()


def _reference_neighbors(P, v):
    he = P._half_edges
    return np.union1d(he.head[he.tail == v], he.tail[he.head == v]).tolist()


def _reference_frame(a, b, flip):
    e1 = a / np.linalg.norm(a)
    e2 = b - float(b @ e1) * e1
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return np.column_stack([e1, e2, -e3 if flip else e3])


def _reference_congruent(P, Q, allow_reflection=False):
    """One KD-tree query per (rare vertex, neighbor, flip) alignment of Q."""
    from scipy.spatial import cKDTree

    if P.counts != Q.counts or vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    if (P.radius is None) != (Q.radius is None):
        return False
    p_verts, q_verts = P.vertices, Q.vertices
    scale = P.radius if P.radius is not None else np.linalg.norm(p_verts, axis=1).mean()
    eps = DEFAULT_TOL * scale
    if P.radius is not None and abs(P.radius - Q.radius) > eps:
        return False
    degrees_p, degrees_q = P.degrees(), Q.degrees()
    anchor = _reference_rare_degree_vertices(P)[0]
    nbr = min(_reference_neighbors(P, anchor))
    frame_p = _reference_frame(p_verts[anchor], p_verts[nbr], flip=False)
    tree = cKDTree(q_verts)
    for a2 in _reference_rare_degree_vertices(Q):
        if degrees_q[a2] != degrees_p[anchor]:
            continue
        for b2 in _reference_neighbors(Q, a2):
            if degrees_q[b2] != degrees_p[nbr]:
                continue
            for flip in (False, True) if allow_reflection else (False,):
                frame_q = _reference_frame(q_verts[a2], q_verts[b2], flip)
                dist, idx = tree.query(p_verts @ (frame_q @ frame_p.T).T, k=1)
                if float(dist.max()) <= eps and len(set(idx.tolist())) == len(idx):
                    return True
    return False


def _reference_isomorphic(P, Q):
    """A lockstep breadth-first walk of half-edges from every compatible anchor."""
    if P.counts != Q.counts or vertex_degree_histogram(P) != vertex_degree_histogram(Q):
        return False
    he_p, he_q = P._half_edges, Q._half_edges
    walk_p = [t.tolist() for t in (he_p.tail, he_p.head, he_p.succ, he_p.twin)]
    degrees_p, degrees_q = P.degrees(), Q.degrees()
    start = walk_p[0].index(_reference_rare_degree_vertices(P)[0])
    ends = degrees_p[walk_p[0][start]], degrees_p[walk_p[1][start]]
    for tables in (
        (he_q.tail, he_q.head, he_q.succ, he_q.twin),
        (he_q.head, he_q.tail, np.argsort(he_q.succ), he_q.twin),
    ):
        seeds = (degrees_q[tables[0]] == ends[0]) & (degrees_q[tables[1]] == ends[1])
        walk_q = [t.tolist() for t in tables]
        for seed_edge in np.flatnonzero(seeds).tolist():
            if _reference_walk(walk_p, walk_q, start, seed_edge, len(P.vertices)):
                return True
    return False


def _reference_walk(walk_p, walk_q, start, seed_edge, n_vertices):
    from collections import deque

    tail_p, head_p, next_p, twin_p = walk_p
    tail_q, head_q, next_q, twin_q = walk_q
    mapping = [-1] * len(tail_p)
    mapping[start] = seed_edge
    vmap = [-1] * n_vertices
    vmap[tail_p[start]], vmap[head_p[start]] = tail_q[seed_edge], head_q[seed_edge]
    queue = deque([start])
    while queue:
        e = queue.popleft()
        img = mapping[e]
        for ne, nimg in ((next_p[e], next_q[img]), (twin_p[e], twin_q[img])):
            if ne < 0 or nimg < 0:
                if ne != nimg:
                    return False
                continue
            known = mapping[ne]
            if known < 0:
                for v, w in ((tail_p[ne], tail_q[nimg]), (head_p[ne], head_q[nimg])):
                    if vmap[v] < 0:
                        vmap[v] = w
                    elif vmap[v] != w:
                        return False
                mapping[ne] = nimg
                queue.append(ne)
            elif known != nimg:
                return False
    if -1 in mapping:
        return False
    image = [w for w in vmap if w >= 0]
    return len(set(image)) == len(image)


def _relabeled(P):
    """P with its vertices renumbered and its faces listed in another order."""
    perm = np.random.default_rng(5).permutation(len(P.vertices))
    new_id = np.argsort(perm)
    faces = [tuple(new_id[list(f[1:] + f[:1])].tolist()) for f in P.faces[::-1]]
    return build_mesh(P.vertices[perm], faces, radius=P.radius, closed=P.closed)


def test_congruence_and_isomorphism_match_loop_references(make_sphere):
    R = rotation_to_z((1.0, -2.0, 0.5))
    up = {(m, n): make_sphere(m, n, vertex_up=True) for m, n in ((2, 1), (1, 2))}
    gem = gemmate(seed("dodecahedron"))
    meshes = {
        "(2,1)": up[2, 1],
        "(1,2)": up[1, 2],
        "(2,1) mirrored": mirrored(up[2, 1]),
        "(2,1) rotated": rotated(up[2, 1], R),
        "(2,1) relabeled": _relabeled(up[2, 1]),
        "(2,1) dome": truncate_dome(up[2, 1], 0.5),
        "(1,2) dome": truncate_dome(up[1, 2], 0.5),
        "(2,1) dome mirrored": mirrored(truncate_dome(up[2, 1], 0.5)),
        "(2,1) dome relabeled": _relabeled(truncate_dome(up[2, 1], 0.5)),
        "(2,1) dual": dual(up[2, 1]),
        "(1,2) dual": dual(up[1, 2]),
        "(2,1) rotated dual": dual(rotated(up[2, 1], R)),
        "dodecahedron": seed("dodecahedron"),
        "icosahedron dual": dual(seed("icosahedron")),
        "gemmated dodecahedron": gem,
        "gemmated dodecahedron mirrored": mirrored(gem),
        "gemmated dodecahedron rotated": rotated(gem, R),
        "octahedral (2,1)": make_sphere(2, 1, "octahedron"),
        "octahedral (1,2)": make_sphere(1, 2, "octahedron"),
        "octahedral (2,1) mirrored": mirrored(make_sphere(2, 1, "octahedron")),
        "octahedral (2,1) dome": truncate_dome(make_sphere(2, 1, "octahedron"), 0.8),
        "octahedral (1,2) dome": truncate_dome(make_sphere(1, 2, "octahedron"), 0.8),
        "(7,0)": make_sphere(7, 0),
        "(5,3)": make_sphere(5, 3),
        "(3,5)": make_sphere(3, 5),
    }
    checks = (
        combinatorially_isomorphic, _reference_isomorphic,
        congruent, _reference_congruent,
        lambda P, Q: congruent(P, Q, allow_reflection=True),
        lambda P, Q: _reference_congruent(P, Q, allow_reflection=True),
    )
    verdicts = {
        (a, b): [f(P, Q) for f in checks]
        for a, P in meshes.items()
        for b, Q in meshes.items()
        if P.counts == Q.counts
    }
    assert len(verdicts) == 85
    for pair, (iso, ref_iso, rot, ref_rot, refl, ref_refl) in verdicts.items():
        assert (iso, rot, refl) == (ref_iso, ref_rot, ref_refl), pair
    # equal counts and degree histograms, yet not isomorphic
    assert verdicts["(7,0)", "(5,3)"][0] is verdicts["(3,5)", "(7,0)"][0] is False
    assert verdicts["(5,3)", "(3,5)"][:2] == [True, True]
    assert verdicts["(2,1)", "(2,1) mirrored"][2:] == [False, False, True, True]
    # the first candidate dart fails here, a later one succeeds
    assert verdicts["octahedral (2,1) dome", "octahedral (1,2) dome"][:2] == [True, True]


def test_congruent_when_probe_keys_tie(make_sphere):
    # turn the sphere so that two far-apart vertices share their key along the probe
    probe, P = analysis._PROBE, make_sphere(3, 1)
    across = np.cross(probe, (0.0, 0.0, 1.0))
    R = rotation_to_z(across).T @ rotation_to_z(P.vertices[0] - P.vertices[-1])
    Q = rotated(P, R)
    keys = Q.vertices @ probe
    assert np.count_nonzero(np.abs(keys - keys[0]) <= 2.0 * DEFAULT_TOL) == 2  # its window
    for X in (P, mirrored(P), Q):
        for reflect in (False, True):
            expected = _reference_congruent(X, Q, allow_reflection=reflect)
            assert congruent(X, Q, allow_reflection=reflect) is expected, reflect
    assert congruent(P, Q) and not congruent(mirrored(P), Q)


def test_congruent_at_the_edge_of_eps_along_the_probe(make_sphere):
    # a vertex moved along the probe moves its key by the full shift: by half of
    # eps either way it stays congruent, by twice eps it does not
    probe = analysis._PROBE
    for radius in (1.0, 1e6):
        P, eps = make_sphere(2, 0, radius=radius), DEFAULT_TOL * radius
        he = P._half_edges
        anchor = np.flatnonzero(P.degrees() == 5)[0]
        tilt = np.abs(P.vertices @ probe)  # small: the probe is nearly tangent there
        tilt[[anchor, *he.head[he.tail == anchor]]] = np.inf
        v = tilt.argmin()
        for shift, same in ((0.5, True), (-0.5, True), (2.0, False), (-2.0, False)):
            verts = P.vertices.copy()
            verts[v] += shift * eps * probe
            moved = build_mesh(verts, P.faces, radius=radius)
            assert (moved.vertices[v] - P.vertices[v]) @ probe == pytest.approx(shift * eps)
            assert congruent(P, moved) is congruent(moved, P) is same, (radius, shift)
            assert _reference_congruent(P, moved) is same


def _about(axis, angle):
    """Rotation by angle about a coordinate axis."""
    i, j = (k for k in range(3) if k != axis)
    R = np.eye(3)
    R[i, i] = R[j, j] = math.cos(angle)
    R[i, j], R[j, i] = -math.sin(angle), math.sin(angle)
    return R


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(["tetrahedron", "octahedron", "icosahedron"]),
    walk=st.sampled_from([(m, t - m) for t in range(1, 6) for m in range(t + 1)]),
    angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
    mirror=st.booleans(),
    exponent=st.floats(-6.0, 8.0),
)
def test_congruent_matches_the_kd_tree_reference(kind, walk, angles, mirror, exponent):
    P = project_to_sphere(subdivide(seed(kind, 10.0**exponent), *walk))
    R = _about(2, angles[0]) @ _about(1, angles[1]) @ _about(2, angles[2])
    Q = rotated(mirrored(P) if mirror else P, R)
    for reflect in (False, True):
        assert congruent(P, Q, allow_reflection=reflect) is _reference_congruent(P, Q, reflect)
    assert congruent(P, Q, allow_reflection=True)


def test_rigidity_matrix_shape(icosa):
    M = rigidity_matrix(icosa)
    assert M.shape == (30, 36)


def test_rigid_closed_spheres(icosa, sphere_2v):
    for P, rank in ((icosa, 30), (sphere_2v, 120)):
        report = is_infinitesimally_rigid(P)
        assert report.rigid
        assert report.rank == rank == report.required_rank
        assert report.dof_cols == 3 * len(P.vertices)


def test_four_cycle_is_floppy():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    report = is_infinitesimally_rigid((pts, edges))
    assert not report.rigid
    assert report.rank < report.required_rank == 6


def test_rigidity_verdict_invariant_under_isometry_and_scale(sphere_2v):
    base = is_infinitesimally_rigid(sphere_2v)
    R = rotation_to_z((2.0, 1.0, 3.0))
    moved = is_infinitesimally_rigid((sphere_2v.vertices @ R.T * 17.0, list(sphere_2v.edges)))
    assert (base.rigid, base.rank) == (moved.rigid, moved.rank)


def test_rigidity_rejects_degenerate_input():
    with pytest.raises(DegenerateGeometry):
        is_infinitesimally_rigid(([(0, 0, 0), (1, 0, 0)], [(0, 1)]))
    line = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    with pytest.raises(DegenerateGeometry):
        is_infinitesimally_rigid((line, [(0, 1), (1, 2), (0, 2)]))


def test_rigidity_framework_input_validation():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError):
        is_infinitesimally_rigid((pts, [(0, 9)]))
    with pytest.raises(ValueError):
        is_infinitesimally_rigid((pts, [(1, 1)]))
    # bar ids are integers: no truncation of floats, no bools
    rest = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for bad, named in (((0.9, 1.7), r"\(0.9, 1.7\)"), ((True, 2), r"\(True, 2\)"),
                       ((0, 1.0), r"\(0, 1.0\)"), ((0, 1, 2), r"\(0, 1, 2\)")):
        with pytest.raises(ValueError, match=named):
            is_infinitesimally_rigid((pts, [bad] + rest))
    ids = np.array([(0, 1)] + rest)
    assert is_infinitesimally_rigid((pts, ids)).rigid
    # no bars at all: rank 0, not an empty singular-value lookup
    bare = is_infinitesimally_rigid(([(0, 0, 0), (1, 0, 0), (0, 1, 0)], []))
    assert bare == RigidityReport(0, 9, 0, 3) and not bare.rigid
    with pytest.raises(ValueError):
        is_infinitesimally_rigid((pts, ids.astype(float)))
    # a flat id list is not a list of bars
    with pytest.raises(ValueError, match="^framework edge 0 is not a sequence of ids$"):
        is_infinitesimally_rigid((pts, [0, 1]))
    # joints are numbers: a string, numeric or not, is named, not converted or left
    # to numpy's conversion message
    for call in (rigidity_matrix, is_infinitesimally_rigid):
        for joints in ([("a", 0, 0)] + pts[1:], [tuple(map(str, p)) for p in pts]):
            with pytest.raises(ValueError, match=r"^framework points must be an \(N, 3\) array$"):
                call((joints, ids))
    # joints are finite: no NaN matrix, no failed SVD
    for bad in (math.nan, math.inf, -math.inf):
        joints = pts[:3] + [(0, 0, bad)]
        for call in (rigidity_matrix, is_infinitesimally_rigid):
            with pytest.raises(ValueError, match="framework points must be finite"):
                call((joints, ids))


def _dense_report(P):
    """The report of the dense SVD alone, which the certificate must reproduce."""
    sv = np.linalg.svd(rigidity_matrix(P), compute_uv=False)
    rank = int(np.sum(sv > _RANK_EPS * sv[0]))
    return RigidityReport(len(P.edges), 3 * len(P.vertices), rank, 3 * len(P.vertices) - 6)


def _framework(P):
    return np.asarray(P.vertices), np.asarray(P.edges)


def _banded(pts, bars):
    """The banded certificate with the bar order is_infinitesimally_rigid gives it."""
    axis = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)[2][0]
    return _banded_certified_full_rank(pts, bars, axis)


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
@pytest.mark.parametrize("vertex_up", [False, True])
def test_certified_rigidity_equals_dense_svd(make_sphere, kind, vertex_up):
    for m, n in [(m, s - m) for s in range(1, 5) for m in range(s + 1)]:
        P = seed(kind, vertex_up=vertex_up) if (m, n) == (1, 0) else make_sphere(m, n, kind, vertex_up=vertex_up)
        assert _certified_full_rank(*_framework(P)), (m, n)
        report = is_infinitesimally_rigid(P)
        assert report == _dense_report(P) and report.rigid, (m, n)


def test_certified_rigidity_of_gemmated_solids():
    for kind in ("dodecahedron", "truncated_icosahedron"):
        P = gemmate(seed(kind))
        assert _certified_full_rank(*_framework(P))
        report = is_infinitesimally_rigid(P)
        assert report == _dense_report(P) and report.rigid


def _scipy_shifted_gram(pts, bars):
    """G - tau I with G = M M^T built by scipy.sparse, the reference, and |G|_1."""
    from scipy.sparse import csr_array, eye_array

    rows, cols, vals = _bar_triplets(pts, bars)
    M = csr_array((vals, (rows, cols)), shape=(len(bars), 3 * len(pts)))
    G = M @ M.T
    norm = float(abs(G).sum(axis=0).max())
    return (G - _GRAM_SHIFT * norm * eye_array(len(bars))).tocsc(), norm


def _scipy_gram_full_rank(pts, bars):
    """The certificate on the reference G - tau I."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(_scipy_shifted_gram(pts, bars)[0], permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all())


def test_gram_certificate_matches_the_scipy_construction(make_sphere):
    rigid = [make_sphere(m, n, kind) for kind in ("tetrahedron", "octahedron", "icosahedron")
             for m, n in ((1, 0), (2, 1), (3, 0), (4, 2))]
    rigid += [gemmate(seed(kind)) for kind in ("dodecahedron", "truncated_icosahedron")]
    frameworks = [_framework(P) for P in rigid]
    # flexible: one bar of a sphere moved onto another bar, so a bar is doubled
    for pts, bars in frameworks[:6]:
        frameworks.append((pts, np.vstack([bars[1:2], bars[1:]])))
    flat = subdivide(seed("icosahedron"), 3, 0)
    frameworks.append(_framework(build_mesh(flat.points, flat.small_faces)))
    pair = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    frameworks += [(pair, np.array([[0, 1]])), (pair, np.array([[0, 1], [1, 0]]))]
    # over-braced: a closed sphere and one bar across it, whose stress spans every bar order
    for pts, bars in frameworks[8:12]:
        frameworks.append((pts, np.vstack([bars, [(bars[0, 0], np.argmin(pts @ pts[bars[0, 0]]))]])))
    verdicts = [_certified_full_rank(*fw) for fw in frameworks]
    assert verdicts == [True] * len(rigid) + [False] * 7 + [True, False] + [False] * 4
    assert verdicts == [_scipy_gram_full_rank(*fw) for fw in frameworks]
    assert verdicts == [_banded(*fw) for fw in frameworks]
    # the verdict does not depend on the order the bars come in
    rng = np.random.default_rng(7)
    shuffled = [(pts, bars[rng.permutation(len(bars))]) for pts, bars in frameworks]
    assert verdicts == [_banded(*fw) for fw in shuffled]
    assert verdicts == [_certified_full_rank(*fw) for fw in shuffled]
    # one bar moved to join two far joints: equal verdicts, whichever they are
    for pts, bars in frameworks[3:12]:
        moved = bars.copy()
        moved[0, 1] = np.argmin(pts @ pts[bars[0, 0]])
        assert _certified_full_rank(pts, moved) == _scipy_gram_full_rank(pts, moved) == _banded(pts, moved)


def test_shifted_gram_terms_sum_to_the_scipy_gram(make_sphere):
    pts, bars = _framework(make_sphere(2, 1))
    dome_pts, dome_bars = _framework(truncate_dome(make_sphere(3, 0, vertex_up=True), 0.5))
    frameworks = {
        "sphere": (pts, bars),
        "dome": (dome_pts, dome_bars),
        "doubled bar": (pts, np.vstack([bars[1:2], bars[1:]])),
        "two domes apart": (np.vstack([dome_pts, dome_pts + (5.0, -3.0, 1.0)]),
                            np.vstack([dome_bars, dome_bars + len(dome_pts)])),
    }
    for name, (pts, bars) in frameworks.items():
        n = len(bars)
        value, row, col = _shifted_gram(pts, bars)
        # none summed: k^2 terms at a joint of k bar ends, then the n diagonal shifts
        assert len(value) == (np.bincount(bars.ravel()) ** 2).sum() + n, name
        assert (row[-n:] == np.arange(n)).all() and (col[-n:] == np.arange(n)).all(), name
        assert (value[-n:] == value[-1]).all() and value[-1] < 0.0, name
        summed = np.zeros((n, n))
        np.add.at(summed, (row, col), value)
        reference, norm = _scipy_shifted_gram(pts, bars)
        assert np.abs(summed - reference.toarray()).max() <= 8 * np.spacing(norm), name


def test_flat_framework_falls_back_to_dense_rank():
    flat = subdivide(seed("icosahedron"), 3, 0)
    P = build_mesh(flat.points, flat.small_faces)
    assert not _certified_full_rank(*_framework(P))
    assert is_infinitesimally_rigid(P) == _dense_report(P) == RigidityReport(270, 276, 250, 270)


def _svd_rank(pts, bars):
    """The rank _dense_report counts, of a framework that need not be a mesh."""
    sv = np.linalg.svd(rigidity_matrix((pts, bars)), compute_uv=False)
    return int(np.sum(sv > _RANK_EPS * sv.max(initial=0.0)))


@pytest.fixture(scope="module")
def under_braced(make_sphere):
    """(points, bars, dense SVD rank) of frameworks with at most 3V - 6 bars, by name."""
    meshes = {}
    for m, n in ((2, 0), (8, 0), (2, 1), (5, 3)):  # class I and class III, 2v to 8v
        for up in (False, True):
            P = make_sphere(m, n, vertex_up=up)
            for h in (0.375, 0.5, 0.625):
                meshes[m, n, up, h] = truncate_dome(P, h)
    D = dual(make_sphere(3, 0))
    meshes["dual"], meshes["gemmation"] = truncate_dome(D, 0.5), truncate_dome(gemmate(D), 0.5)
    flat = subdivide(seed("icosahedron"), 3, 0)
    meshes["flat"] = build_mesh(flat.points, flat.small_faces)
    cases = {name: (*_framework(P), _dense_report(P).rank) for name, P in meshes.items()}
    pts, bars, _ = cases[5, 3, True, 0.5]
    doubled = np.vstack([bars[1:2], bars[1:]])  # one bar moved onto another: flexible
    cases["doubled"] = (pts, doubled, _svd_rank(pts, doubled))
    cases["one bar"] = (np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, -1.0, 0.5]]),
                        np.array([[0, 1]]), 1)
    pts, bars, rank = cases[2, 1, False, 0.5]
    cases["two domes apart"] = (np.vstack([pts, pts + (5.0, -3.0, 1.0)]),
                                np.vstack([bars, bars + len(pts)]), 2 * rank)
    cases["isolated joint"] = (np.vstack([pts, [(0.2, 0.1, 3.0)]]), bars, rank)
    return cases


def test_both_certificates_hold_exactly_when_the_dense_svd_finds_full_rank(under_braced):
    full = {name: rank == len(bars) for name, (_, bars, rank) in under_braced.items()}
    assert [name for name, ok in full.items() if not ok] == ["flat", "doubled"]
    for name, (pts, bars, _) in under_braced.items():
        assert _banded(pts, bars) is full[name], name
        assert _certified_full_rank(pts, bars) is full[name], name


@pytest.mark.parametrize("limit", [0, 10**6])
def test_rigidity_reports_equal_the_dense_svd_on_each_side_of_the_bar_limit(
    under_braced, monkeypatch, limit
):
    monkeypatch.setattr(analysis, "_BANDED_BARS", limit)
    for name, (pts, bars, rank) in under_braced.items():
        report = is_infinitesimally_rigid((pts, bars))
        assert report == RigidityReport(len(bars), 3 * len(pts), rank, 3 * len(pts) - 6), name


def test_rigidity_sends_each_framework_to_one_certificate(make_sphere, monkeypatch):
    calls = []
    for name in ("_banded_certified_full_rank", "_certified_full_rank"):
        monkeypatch.setattr(analysis, name,
                            lambda pts, bars, *axis, name=name: calls.append((name, len(bars))) or True)
    pts, bars = _framework(truncate_dome(make_sphere(12, 0, vertex_up=True), 0.5))
    limit = analysis._BANDED_BARS
    frameworks = [
        _framework(make_sphere(2, 0)),  # closed: E = 3V - 6
        _framework(make_sphere(9, 0)),  # closed, above the limit
        _framework(truncate_dome(make_sphere(7, 0, vertex_up=True), 0.5)),
        (pts, bars[:limit]),
        (pts, bars[: limit + 1]),
        (pts, bars),
        (pts, bars[:0]),  # no bars
        (np.vstack([np.zeros(3), np.eye(3)]),  # a tetrahedron with a bar doubled: E > 3V - 6
         np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])),
    ]
    ranks = [is_infinitesimally_rigid(fw).rank for fw in frameworks]
    assert ranks == [120, 2430, 770, limit, limit + 1, 2190, 0, 6]
    assert calls == [
        ("_banded_certified_full_rank", 120),
        ("_certified_full_rank", 2430),
        ("_banded_certified_full_rank", 770),
        ("_banded_certified_full_rank", limit),
        ("_certified_full_rank", limit + 1),
        ("_certified_full_rank", 2190),
    ]


def test_dense_certificate_peaks_below_the_dense_svd(make_sphere):
    # tracemalloc sees numpy's arrays, not LAPACK's work buffers, so the SVD's copy
    # of M and its workspace are not even counted against it
    import tracemalloc

    pts, bars = _framework(truncate_dome(make_sphere(7, 0, vertex_up=True), 0.5))
    peaks = []
    for run in (lambda: np.linalg.svd(_dense_rigidity(pts, bars), compute_uv=False),
                lambda: _banded(pts, bars)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(bars) == 770 and peaks[1] < peaks[0]


def test_banded_certificate_peaks_below_a_quarter_of_the_dense_array(make_sphere):
    # the dense E x E array of G alone takes 8 E^2 bytes: 18.6 MB here
    import tracemalloc

    pts, bars = _framework(truncate_dome(make_sphere(10, 0, vertex_up=True), 0.5))
    tracemalloc.start()
    try:
        assert _banded(pts, bars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bars) == 1525 and peak < 8 * len(bars) ** 2 / 4
