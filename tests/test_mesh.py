"""Seed solids, mesh validation, and basic transforms."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

import geodome
from geodome import (
    DEFAULT_TOL,
    DegenerateFace,
    EulerViolation,
    InvalidOrientation,
    Mesh,
    NonManifoldEdge,
    TessellationSpec,
    UnsupportedSeed,
    analysis_rows,
    build_mesh,
    combinatorially_isomorphic,
    congruent,
    detect_frequency,
    dual,
    edge_class_labels,
    edge_length_classes,
    export_analysis_csv,
    export_obj,
    export_schedule,
    face_metrics,
    gemmate,
    import_obj,
    is_infinitesimally_rigid,
    mirrored,
    rotated,
    rotation_to_z,
    seed,
    strut_schedule,
    truncate_dome,
    verify_counts,
)
from geodome.analysis import _RANK_EPS
from geodome.mesh import _HalfEdges, _cross, _norms, _rowdot

SEED_COUNTS = {
    "tetrahedron": (4, 6, 4),
    "octahedron": (6, 12, 8),
    "icosahedron": (12, 30, 20),
    "dodecahedron": (20, 30, 12),
    "truncated_icosahedron": (60, 90, 32),
}


@pytest.mark.parametrize("kind,counts", sorted(SEED_COUNTS.items()))
def test_seed_counts(kind, counts):
    P = seed(kind)
    assert P.counts == counts
    v, s, f = counts
    assert v - s + f == 2


@pytest.mark.parametrize("kind", sorted(SEED_COUNTS))
def test_seed_vertices_on_sphere(kind):
    P = seed(kind, radius=2.5)
    dist = np.linalg.norm(P.vertices, axis=1)
    np.testing.assert_allclose(dist, 2.5, rtol=0, atol=1e-12)
    assert P.radius == 2.5
    assert P.closed


def test_seed_radius_scales_exactly():
    small = seed("icosahedron", 1.0)
    big = seed("icosahedron", 10.0)
    np.testing.assert_array_equal(big.vertices, small.vertices * 10.0)


def test_seed_rejects_unknown_kind():
    with pytest.raises(UnsupportedSeed):
        seed("cube")


def test_seed_rejects_bad_radius():
    with pytest.raises(ValueError):
        seed("icosahedron", 0.0)
    for bad in (-1.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="radius"):
            seed("icosahedron", bad)


def test_seed_vertex_up_puts_vertex_on_pole():
    for kind in sorted(SEED_COUNTS):
        P = seed(kind, radius=3.0, vertex_up=True)
        top = P.vertices[:, 2].max()
        assert top == pytest.approx(3.0, abs=1e-12)


def test_seed_vertex_up_is_a_rotation():
    flat = seed("icosahedron")
    up = seed("icosahedron", vertex_up=True)
    assert congruent(flat, up)


def test_truncated_icosahedron_face_mix():
    P = seed("truncated_icosahedron")
    sizes = sorted(len(f) for f in P.faces)
    assert sizes.count(5) == 12
    assert sizes.count(6) == 20
    lengths = P.edge_lengths()
    assert lengths.std() < 1e-12  # all edges equal


def test_dodecahedron_all_pentagons():
    P = seed("dodecahedron")
    assert all(len(f) == 5 for f in P.faces)
    assert set(int(d) for d in P.degrees()) == {3}


def test_mesh_arrays_read_only(icosa):
    with pytest.raises(ValueError):
        icosa.vertices[0, 0] = 9.9


def _face_sum_loop(he, values):
    """The corner-by-corner loop over faces of every size, kept as the reference."""
    out = values[he.start].copy()
    for k in range(1, int(he.size.max())):
        rows = np.flatnonzero(he.size > k)
        out[rows] += values[he.start[rows] + k]
    return out


def test_face_sum_matches_the_loop_bit_for_bit(make_sphere):
    sphere = make_sphere(3, 1)
    meshes = (sphere, dual(seed("octahedron")), seed("dodecahedron"),
              gemmate(seed("dodecahedron")), dual(sphere))
    assert [sorted(set(P._half_edges.size.tolist())) for P in meshes] == [
        [3], [4], [5], [3], [5, 6]  # the last, mixed, takes the loop
    ]
    for P in meshes:
        he, pts = P._half_edges, P.vertices
        corners = pts[he.tail]
        cross = np.cross(corners, pts[he.head])
        for values in (corners, corners[:, 2], cross, -0.0 * np.abs(cross)):
            # tobytes: a -0.0 sum must keep its sign
            assert he.face_sum(values).tobytes() == _face_sum_loop(he, values).tobytes()


def test_grouped_face_sum_matches_the_loop_on_the_truncated_icosahedron():
    P = seed("truncated_icosahedron")
    he, pts = P._half_edges, P.vertices
    assert sorted(set(he.size.tolist())) == [5, 6]
    for values in (pts[he.tail], np.cross(pts[he.tail], pts[he.head]), he.face[:, None] * 1.5):
        assert he.face_sum(values).tobytes() == _face_sum_loop(he, values).tobytes()


def _two_sort_fields(flat, size, n_vertices):
    """twin, edges, uses and repeated as an argsort plus np.unique found them, the reference."""
    head = flat[_HalfEdges(flat, size, n_vertices).succ]
    keys, wanted = flat * n_vertices + head, head * n_vertices + flat
    order = np.argsort(keys)
    ordered = keys[order]
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    found = order[np.minimum(np.searchsorted(ordered, wanted), len(flat) - 1)]
    twin = np.where(keys[found] == wanted, found, -1)
    pairs, uses = np.unique(np.minimum(keys, wanted), return_counts=True)
    return twin, np.column_stack((pairs // n_vertices, pairs % n_vertices)), uses, repeated


def test_one_sort_half_edge_table_matches_the_two_sort_reference(make_sphere):
    sphere = make_sphere(3, 1)
    meshes = [sphere, make_sphere(2, 1, "octahedron"), truncate_dome(sphere, 0.5),
              truncate_dome(make_sphere(5, 3), 0.3), dual(sphere), dual(make_sphere(4, 0)),
              seed("truncated_icosahedron"), gemmate(seed("dodecahedron"))]
    assert {P.closed for P in meshes} == {True, False}
    assert any(len(set(P._half_edges.size.tolist())) == 2 for P in meshes)
    for P in meshes:
        he = P._half_edges
        for got, want in zip((he.twin, he.edges, he.uses, he.repeated),
                             _two_sort_fields(he.tail, he.size, len(P.vertices))):
            assert got.tolist() == want.tolist()
    # faces traversing one directed edge twice: every repeat, ascending
    t = seed("tetrahedron")
    flat = np.concatenate([t._half_edges.tail, [2, 1, 0]])
    size = np.array([3] * 5)
    assert _HalfEdges(flat, size, 4).repeated.tolist() == _two_sort_fields(flat, size, 4)[3].tolist()
    assert len(_HalfEdges(flat, size, 4).repeated) == 3


@pytest.mark.parametrize(
    "case,error,message",
    [
        ("open", EulerViolation, "V - S + F = 3 - 3 + 1 = 1, expected 2"),
        ("two spheres", EulerViolation, "V - S + F = 144 - 420 + 280 = 4, expected 2"),
        ("three faces", NonManifoldEdge, "edge (0, 1) belongs to 3 faces"),
        ("hole", NonManifoldEdge, "edge (0, 1) belongs to 1 faces"),
        ("flipped", InvalidOrientation, "directed edge (0, 2) traversed twice"),
        ("same way", InvalidOrientation, "directed edge (0, 1) traversed twice"),
        ("flipped in a sphere", InvalidOrientation, "directed edge (2, 4) traversed twice"),
        ("negative id", DegenerateFace, "face (0, -1, 2) references a vertex out of range"),
        ("inside out", InvalidOrientation, "face 0 is not counter-clockwise from outside"),
        ("nan coordinate", ValueError, "vertex coordinates must be finite"),
        ("inf coordinate", ValueError, "vertex coordinates must be finite"),
        ("-inf coordinate", ValueError, "vertex coordinates must be finite"),
        ("no faces", ValueError, "mesh must have at least one face"),
    ],
)
def test_validation_messages_name_the_same_element(case, error, message, sphere_21):
    t, s, n = seed("tetrahedron"), sphere_21, len(sphere_21.vertices)
    flipped = [f[::-1] if i == 0 else f for i, f in enumerate(t.faces)]

    def with_z(z):
        verts = t.vertices.copy()
        verts[1, 2] = z
        return verts

    verts, faces, closed = {
        "open": ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], [(0, 1, 2)], True),
        "two spheres": (np.vstack([s.vertices, 0.5 * s.vertices]),
                        list(s.faces) + [tuple(i + n for i in f) for f in s.faces], True),
        "three faces": ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                        [(0, 1, 2), (0, 3, 1), (0, 1, 4)], False),
        "hole": (np.vstack([s.vertices, [[0.0, 0.0, 0.1]]]), s.faces[1:], True),
        "flipped": (t.vertices, flipped, True),
        "same way": ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, -1, 1)], [(0, 1, 2), (0, 1, 3)], False),
        "flipped in a sphere": (s.vertices, [f[::-1] if i in (3, 50) else f
                                             for i, f in enumerate(s.faces)], True),
        "negative id": (t.vertices, [(0, -1, 2), *t.faces[1:]], True),
        "inside out": (s.vertices, [f[::-1] for f in s.faces], True),
        "nan coordinate": (with_z(math.nan), t.faces, True),
        "inf coordinate": (with_z(math.inf), t.faces, True),
        "-inf coordinate": (with_z(-math.inf), t.faces, True),
        "no faces": (t.vertices, [], True),
    }[case]
    with pytest.raises(error) as caught:
        build_mesh(verts, faces, closed=closed)
    assert type(caught.value) is error and str(caught.value) == message


def _ring_sort(ring_of, ids, points, axes):
    """Rings ordered by polar angle around each axis (ties by id), the reference for rings()."""
    axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    helper = np.where(np.abs(axes[:, 2:]) > 0.9, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    t1 = np.cross(helper, axes)
    t1 /= _norms(t1)[:, None]
    t2 = np.cross(axes, t1)
    angle = np.arctan2(_rowdot(points, t2[ring_of]), _rowdot(points, t1[ring_of]))
    order = np.lexsort((ids, angle, ring_of))
    return ids[order], np.bincount(ring_of, minlength=len(axes))


def test_cross_matches_np_cross_bit_for_bit():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((500, 3)), 1e3 * rng.standard_normal((500, 3))
    a[:3], b[:3] = [[0.0, -0.0, 1.0], [1.0, 0.0, 0.0], [-0.0, -0.0, -0.0]], -0.0
    for x, y in ((a, b), (b, a), (a[0], b[0]), (a[1], b[2]), (a, b[7])):  # rows, vectors, a mix
        assert _cross(x, y).tobytes() == np.cross(x, y).tobytes()


def test_rings_walk_equals_the_polar_angle_sort(make_sphere):
    spheres = [make_sphere(m, n, kind, vertex_up=up) for kind in ("octahedron", "icosahedron")
               for m, n in ((3, 1), (4, 0), (2, 3)) for up in (False, True)]
    meshes = spheres + [dual(P) for P in spheres] + [dual(dual(P)) for P in spheres]
    for P in meshes:
        he = P._half_edges
        poles = dual(P).vertices
        got = he.rings(he.face, poles[he.face], P.vertices)
        want = _ring_sort(he.tail, he.face, poles[he.face], P.vertices)
        assert got.flat.tobytes() == want[0].tobytes() and got.size.tolist() == want[1].tolist()
    # the two seeds built from rings around the icosahedron's vertices, with their points:
    # the dodecahedron's at face centroids, the truncated icosahedron's a third along each edge
    ico = seed("icosahedron")
    he, near = ico._half_edges, ico.vertices
    centers = ico.face_centroids() / np.linalg.norm(ico.face_centroids(), axis=1)[:, None]
    cuts = (2.0 * near[he.edges.ravel()] + near[he.edges[:, ::-1].ravel()]) / 3.0
    cuts /= np.linalg.norm(cuts, axis=1)[:, None]
    lo, hi = np.minimum(he.tail, he.head), np.maximum(he.tail, he.head)
    cut = 2 * np.searchsorted(he.edges[:, 0] * 12 + he.edges[:, 1], lo * 12 + hi) + (he.tail > he.head)
    for ids, points in ((he.face, centers[he.face]), (cut, cuts[cut])):
        got = he.rings(ids, points, ico.vertices)
        want = _ring_sort(he.tail, ids, points, ico.vertices)
        assert got.flat.tobytes() == want[0].tobytes() and got.size.tolist() == want[1].tolist()


def test_rings_of_a_vertex_on_no_face_are_empty():
    t = seed("tetrahedron")
    verts = np.vstack([t.vertices, [[0.0, 0.0, 2.0]]])  # vertex 4 is on no face
    he = _HalfEdges(t._half_edges.tail, t._half_edges.size, 5)
    points = t.face_centroids()[he.face]
    got = he.rings(he.face, points, verts)
    assert got.size.tolist() == [3, 3, 3, 3, 0]
    assert got.flat.tolist() == _ring_sort(he.tail, he.face, points, verts)[0].tolist()


def test_prev_and_turn_are_the_face_and_vertex_rotations(sphere_21):
    D, dome = dual(sphere_21), truncate_dome(sphere_21, 0.5)
    assert sorted(set(D._half_edges.size.tolist())) == [5, 6] and not dome.closed
    for P in (sphere_21, D, dome):
        he = P._half_edges
        slots = np.arange(len(he.tail))
        assert (he.succ[he.prev] == slots).all()
        leaves = he.turn >= 0
        assert (he.tail[he.turn[leaves]] == he.tail[leaves]).all()
        assert (~leaves == (he.twin[he.prev] < 0)).all()
        assert leaves.all() == P.closed
        if P.closed:  # around every vertex: back to the start after exactly degree turns
            degree, h = P.degrees()[he.tail], slots
            for k in range(1, int(degree.max()) + 1):
                h = he.turn[h]
                assert ((h == slots) == (k % degree == 0)).all()


def _derived_by_face_loop(he):
    """face, succ, prev, head and turn of a half-edge table, one face at a time."""
    tail, twin = he.tail.tolist(), he.twin.tolist()
    face, succ, prev, first = [], [], [], 0
    for f, k in enumerate(he.size.tolist()):
        for i in range(k):
            face.append(f)
            succ.append(first + (i + 1) % k)
            prev.append(first + (i - 1) % k)
        first += k
    return {"face": face, "succ": succ, "prev": prev,
            "head": [tail[h] for h in succ], "turn": [twin[h] for h in prev]}


def test_derived_half_edge_arrays_match_a_face_loop_and_are_fresh(sphere_21):
    P0 = rotated(sphere_21, np.eye(3))  # its own table: the writes below stay off the fixture
    D, dome = dual(P0), truncate_dome(P0, 0.5)
    assert sorted(set(D._half_edges.size.tolist())) == [5, 6] and (dome._half_edges.twin < 0).any()
    for P in (P0, dome, D, gemmate(D)):
        he, faces = P._half_edges, P.faces
        stored = he.tail.copy(), he.twin.copy()
        for name, want in _derived_by_face_loop(he).items():
            got = getattr(he, name)
            assert got.tolist() == want, name
            got[:] = -7  # a write into one read reaches neither the next read nor the table
            again = getattr(he, name)
            assert again is not got and again.tolist() == want, name
        assert all(np.array_equal(a, b) for a, b in zip((he.tail, he.twin), stored))
        assert dataclasses.replace(P).faces == faces  # faces rebuilt from the table, not the cache


def test_only_tail_and_twin_are_stored_per_half_edge(sphere_21):
    for P in (sphere_21, truncate_dome(sphere_21, 0.5), dual(sphere_21)):
        he = P._half_edges
        for name in ("face", "succ", "prev", "head", "turn"):
            getattr(he, name)  # a read caches nothing
        per_half_edge = {name for name, value in vars(he).items()
                         if isinstance(value, np.ndarray) and len(value) == len(he.tail)}
        assert per_half_edge == {"tail", "twin"}


def _design_pass(make_sphere, out):
    """The icosahedral (14, 0) sphere, its dual twice, three dome cuts, their
    analysis rows, and the sphere's schedule and OBJ written to the folder out."""
    P = make_sphere(14, 0, vertex_up=True)
    duals = [dual(P)]
    duals.append(dual(duals[0]))
    domes = [truncate_dome(P, h) for h in (0.375, 0.5, 0.625)]
    rows = [analysis_rows(M) for M in [P, *domes]]
    export_schedule(P, out / "sphere.json")
    export_obj(P, out / "sphere.obj")
    return P, rows


def _census_batch(make_sphere):
    """Every tetrahedral, octahedral and icosahedral walk with m + n <= 4: edge
    classes and counts; congruence (also of the mirror image) and isomorphism
    with the (n, m) sphere when that is another one; the frequency of the
    icosahedral class I spheres; and rigidity up to 400 vertices."""
    for kind in ("tetrahedron", "octahedron", "icosahedron"):
        for m, n in [(m, s - m) for s in range(1, 5) for m in range(s + 1)]:
            P = make_sphere(m, n, kind)
            edge_length_classes(P)
            verify_counts(P, TessellationSpec(m, n))
            if m and n and m != n:
                Q = make_sphere(n, m, kind)
                chiral = congruent(mirrored(P), Q) and not congruent(P, Q)
                assert chiral and combinatorially_isomorphic(P, Q)
            if kind == "icosahedron" and not m * n:
                detect_frequency(P)
            if len(P.vertices) <= 400:
                is_infinitesimally_rigid(P)


def test_design_pass_peaks_below_a_fixed_memory_bound(make_sphere, tmp_path):
    # tracemalloc sees every numpy array, so the peak does not depend on machine
    # load: it reads 4.19 MB, and 6.32 MB when the table also stores face, succ,
    # prev, head and turn.  Like the pinned bytes, the bound holds for the numpy
    # build it was measured with; on another build, re-measure it.
    import tracemalloc

    tracemalloc.start()
    try:
        P, rows = _design_pass(make_sphere, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.counts == (1962, 5880, 3920) and len(rows) == 4
    assert peak < 5.5e6


def _python_calls(run) -> int:
    """Python-level calls (sys.setprofile "call" events) of run(), after a warm-up run."""
    run()  # imports, first-call paths and caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("workload, limit", [("design", 2940), ("census", 39700)])
def test_python_calls_stay_below_a_fixed_count(workload, limit, make_sphere, tmp_path):
    # A call count, unlike a time, does not depend on machine load: a per-face
    # Python loop at T = 196 adds thousands of calls on any machine.  The limits
    # leave about 10% over the counts measured with Python 3.11.7 and numpy
    # 2.4.6: design 2671 and census 36054 (2875 and 40159 while the isomorphism's
    # dart tree stepped by next and twin alone and np.cross made the cross products).
    # Like the pinned bytes, the counts hold for the Python and numpy builds they
    # were measured with; on another build, re-measure them.
    run = {"design": lambda: _design_pass(make_sphere, tmp_path),
           "census": lambda: _census_batch(make_sphere)}[workload]
    assert _python_calls(run) < limit


def test_cached_face_planes_are_read_only_and_fresh(sphere_21):
    R = rotation_to_z((1.0, 2.0, 3.0))
    for P in (rotated(sphere_21, R), mirrored(sphere_21), dual(sphere_21),
              gemmate(dual(sphere_21)), truncate_dome(sphere_21, 0.5)):
        he, pts = P._half_edges, P.vertices
        # fresh planes from the np.cross formula and a second gather, the reference
        normals = _face_sum_loop(he, np.cross(pts[he.tail], pts[he.head])) + 0.0
        centroids = _face_sum_loop(he, pts[he.tail]) / he.size[:, None]
        for cached, fresh in ((he.face_normals, normals), (he.face_centroids, centroids)):
            assert cached.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                cached[0, 0] = 9.9
        assert P.face_centroids() is he.face_centroids


def test_edges_sorted_and_unique(icosa):
    assert list(icosa.edges) == sorted(set(icosa.edges))
    assert all(a < b for a, b in icosa.edges)


def test_degenerate_face_rejected():
    verts = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0)]
    with pytest.raises(DegenerateFace):
        build_mesh(verts, [(0, 1, 1)], closed=False)
    with pytest.raises(DegenerateFace):
        build_mesh(verts, [(0, 1)], closed=False)
    with pytest.raises(DegenerateFace):
        build_mesh(verts, [(0, 1, 7)], closed=False)


def test_open_mesh_as_closed_violates_euler():
    verts = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    with pytest.raises(EulerViolation):
        build_mesh(verts, [(0, 1, 2)], closed=True)
    open_mesh = build_mesh(verts, [(0, 1, 2)], closed=False)
    assert not open_mesh.closed
    assert len(open_mesh.boundary_edges) == 3


def test_open_mesh_accepts_a_pinched_vertex():
    # closed=False checks edges, not vertices: the faces at vertex 0 form two fans
    verts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    bowtie = build_mesh(verts, [(0, 1, 2), (0, 3, 4)], closed=False)
    assert bowtie.counts == (5, 6, 2)
    assert bowtie.degrees().tolist() == [4, 2, 2, 2, 2]
    assert len(bowtie.boundary_edges) == 6
    assert not bowtie.closed
    # the vertex rotation walks one fan at a time: from each dart leaving vertex 0
    # it reaches the boundary without entering the other fan
    he = bowtie._half_edges
    assert he.turn[he.tail == 0].tolist() == [-1, -1]


def test_three_faces_on_one_edge_non_manifold():
    verts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    faces = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(NonManifoldEdge):
        build_mesh(verts, faces, closed=False)


def test_flipped_face_rejected():
    t = seed("tetrahedron")
    faces = list(t.faces)
    faces[0] = faces[0][::-1]
    # three directed edges repeat; the message names the smallest, 0 -> 2
    with pytest.raises(InvalidOrientation, match=r"directed edge \(0, 2\) traversed twice"):
        build_mesh(t.vertices, faces)


def test_inscribed_radius_enforced():
    t = seed("tetrahedron")
    verts = t.vertices.copy()
    verts[0] *= 1.001
    with pytest.raises(ValueError):
        build_mesh(verts, t.faces, radius=1.0)
    # the check reads DEFAULT_TOL, relative to the radius
    for radius in (1.0, 1e6):
        verts = t.vertices * radius
        verts[0] *= 1.0 + 0.5 * DEFAULT_TOL
        assert build_mesh(verts, t.faces, radius=radius).radius == radius
        verts = t.vertices * radius
        verts[0] *= 1.0 + 2.0 * DEFAULT_TOL
        with pytest.raises(ValueError, match="stray"):
            build_mesh(verts, t.faces, radius=radius)


def test_build_mesh_rejects_bad_radius():
    t = seed("tetrahedron")
    for bad in (0.0, -1.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="radius"):
            build_mesh(t.vertices, t.faces, radius=bad)


@pytest.mark.parametrize(
    "option,error,message",
    [
        ({"closed": "yes"}, TypeError, "closed must be a bool, got str"),
        ({"closed": 1}, TypeError, "closed must be a bool, got int"),
    ],
)
def test_build_mesh_checks_closed(option, error, message):
    t = seed("tetrahedron")
    with pytest.raises(error, match=message):
        build_mesh(t.vertices, t.faces, **option)


@pytest.mark.parametrize(
    "face,shown",
    [([0, 1, 2.7], r"\(0, 1, 2.7\)"), ([0, True, 2], r"\(0, True, 2\)"),
     (["0", "1", "2"], r"\('0', '1', '2'\)"), (np.array([0.0, 1.0, 2.0]), r"\(0.0, 1.0, 2.0\)")],
    ids=["float", "bool", "str", "float-array"],
)
def test_build_mesh_refuses_non_integer_face_ids(face, shown):
    # the ids are refused, not truncated or parsed into face (0, 1, 2)
    t = seed("tetrahedron")
    with pytest.raises(ValueError, match=f"^face {shown} has an id that is not an integer$"):
        build_mesh(t.vertices, [[0, 2, 3], face], closed=False)
    assert build_mesh(t.vertices, [[0, 2, 3], np.array([0, 1, 2])], closed=False).counts[2] == 2
    # a flat id list is not a list of faces
    for flat in ([0, 1, 2], np.arange(3)):
        with pytest.raises(ValueError, match="^face 0 is not a sequence of ids$"):
            build_mesh(t.vertices, flat, closed=False)


def test_build_mesh_refuses_non_numeric_vertices():
    t = seed("tetrahedron")
    numeric_strings = [[str(c) for c in p] for p in t.vertices.tolist()]
    flags = [[c > 0 for c in p] for p in t.vertices.tolist()]
    for bad in ([["a", 0, 0]] + t.vertices[1:].tolist(), [[0, 0, 1], [0, 1]], [], "abc",
                numeric_strings, np.array(numeric_strings), flags):
        with pytest.raises(ValueError, match="^vertices must be a non-empty sequence of 3D points$"):
            build_mesh(bad, t.faces)


def test_build_mesh_copies_its_inputs():
    t = seed("tetrahedron")
    from_points = build_mesh((tuple(p) for p in t.vertices.tolist()), t.faces)
    np.testing.assert_array_equal(from_points.vertices, t.vertices)
    verts = t.vertices.copy()
    P = build_mesh(verts, t.faces, closed=np.True_)
    assert verts.flags.writeable
    verts[0] = 0.0
    np.testing.assert_array_equal(P.vertices, t.vertices)


def test_edge_id_array_matches_edges(sphere_21):
    R = rotation_to_z((1.0, 2.0, 2.0))
    for P in (
        seed("icosahedron"),
        seed("truncated_icosahedron"),
        truncate_dome(sphere_21, 0.5),
        dual(sphere_21),
        gemmate(seed("dodecahedron")),
        mirrored(sphere_21),
        rotated(sphere_21, R),
    ):
        ids = P._half_edges.edges
        assert ids.shape == (len(P.edges), 2) and not ids.flags.writeable
        assert [tuple(e) for e in ids.tolist()] == list(P.edges)
        # the views of a mesh built from arrays equal those built from its tuples
        Q = build_mesh(P.vertices, P.faces, radius=P.radius, closed=P.closed)
        for name in ("faces", "edges", "boundary_edges"):
            got = getattr(P, name)
            assert got == getattr(Q, name)
            assert type(got) is tuple and all(type(t) is tuple for t in got)
            assert all(type(i) is int for t in got for i in t)


def test_mesh_stores_only_the_half_edge_table(sphere_21):
    assert [f.name for f in dataclasses.fields(Mesh)] == [
        "vertices", "radius", "_half_edges"
    ]
    P = rotated(sphere_21, np.eye(3))
    views = ("faces", "edges", "boundary_edges")
    assert not set(views) & set(vars(P))
    assert P.counts == (72, 210, 140)
    assert not set(views) & set(vars(P))
    assert P.faces is P.faces and set(views) & set(vars(P)) == {"faces"}
    assert "_half_edges" not in repr(P)


def test_closed_is_derived_from_the_half_edge_table(sphere_21, tmp_path):
    # a closed sphere read as possibly open is still closed, and has the same dual
    path = tmp_path / "sphere.obj"
    export_obj(sphere_21, path)
    loose = import_obj(path, allow_open=True)
    assert loose.closed
    export_obj(dual(loose), tmp_path / "loose.obj")
    export_obj(dual(import_obj(path)), tmp_path / "strict.obj")
    assert (tmp_path / "loose.obj").read_bytes() == (tmp_path / "strict.obj").read_bytes()
    # a dome has boundary edges
    assert not truncate_dome(sphere_21, 0.5).closed
    # two concentric spheres have no boundary, but V - E + F = 4
    n = len(sphere_21.vertices)
    verts = np.vstack([sphere_21.vertices, 0.5 * sphere_21.vertices])
    faces = list(sphere_21.faces) + [tuple(i + n for i in f) for f in sphere_21.faces]
    union = build_mesh(verts, faces, closed=False)
    assert not union.boundary_edges and not union.closed
    with pytest.raises(EulerViolation):
        build_mesh(verts, faces, closed=True)


def test_package_exports_every_module_export():
    from geodome import analysis, errors, io, mesh, tessellation, transforms

    modules = (analysis, errors, io, mesh, tessellation, transforms)
    assert len(set(geodome.__all__)) == len(geodome.__all__)
    assert set(geodome.__all__) == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(geodome, name) is getattr(m, name), f"{m.__name__}.{name}"


def test_package_dir_lists_its_modules_and_every_export():
    names = geodome.__dir__()
    assert names == sorted(set(names))
    assert {*geodome._MODULES, *geodome.__all__, "__all__", "__version__"} <= set(names)


@pytest.mark.parametrize(
    "call",
    [
        lambda P, tol, out: edge_class_labels(P, tol),
        lambda P, tol, out: edge_length_classes(P, tol),
        lambda P, tol, out: face_metrics(P, tol),
        lambda P, tol, out: strut_schedule(P, tol),
        lambda P, tol, out: export_schedule(P, out, tol),
        lambda P, tol, out: analysis_rows(P, tol),
        lambda P, tol, out: export_analysis_csv(P, out, tol),
    ],
    ids=[
        "edge_class_labels", "edge_length_classes", "face_metrics", "strut_schedule",
        "export_schedule", "analysis_rows", "export_analysis_csv",
    ],
)
def test_every_tolerance_is_a_checked_float(call, icosa, tmp_path):
    out = tmp_path / "never-written"
    with pytest.raises(TypeError, match="^tol must be a number, got str$"):
        call(icosa, "1e-9", out)
    with pytest.raises(ValueError, match="^tol must be positive and finite, got 0.0$"):
        call(icosa, 0.0, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda P: seed("icosahedron", "2"), "radius"),
        (lambda P: build_mesh(P.vertices, P.faces, radius="1"), "radius"),
        (lambda P: truncate_dome(P, "0.5"), "height_fraction"),
        (lambda P: dual(P, sphere_radius="1"), "sphere_radius"),
        (lambda P: edge_length_classes(P, tol="1"), "tol"),
    ],
    ids=["seed", "build_mesh", "truncate_dome", "dual", "edge_length_classes-tol"],
)
def test_number_parameters_name_a_wrong_type(call, name, icosa):
    with pytest.raises(TypeError, match=f"^{name} must be a number, got str$"):
        call(icosa)


def test_tolerance_validation():
    t = seed("tetrahedron")
    # nan compares false everywhere: it would silently fail every tolerance test
    for bad in (0.0, -1e-9, math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            edge_class_labels(t, tol=bad)
    # the fixed tolerances of the geometry checks and of the rank test
    assert DEFAULT_TOL == 1e-9
    assert _RANK_EPS == 1e-10


def test_mirrored_flips_and_revalidates(icosa):
    M = mirrored(icosa)
    assert isinstance(M, Mesh)
    assert M.counts == icosa.counts
    np.testing.assert_array_equal(M.vertices[:, 0], -icosa.vertices[:, 0])
    np.testing.assert_array_equal(M.vertices[:, 1:], icosa.vertices[:, 1:])
    assert M.faces == tuple(f[::-1] for f in icosa.faces)


def test_rotated_preserves_congruence(icosa):
    R = rotation_to_z((1.0, 2.0, 2.0))
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)
    Q = rotated(icosa, R)
    assert congruent(icosa, Q)


def test_rotation_to_z_sends_direction_to_pole():
    for d in [(0, 0, 1), (0, 0, -1), (1, 0, 0), (3, -2, 5)]:
        R = rotation_to_z(d)
        u = np.asarray(d, dtype=float)
        u /= np.linalg.norm(u)
        np.testing.assert_allclose(R @ u, [0, 0, 1], atol=1e-12)



def test_rotation_to_z_rejects_bad_direction():
    for bad in [(0, 0, 0), (math.nan, 0, 1), (math.inf, 0, 0), (1, 2), [(0, 0, 1)], "abc",
                ["0", "0", "1"], (False, False, True)]:
        with pytest.raises(ValueError, match="direction must be a finite non-zero 3-vector"):
            rotation_to_z(bad)


def test_rotated_rejects_non_rotation(icosa):
    R = rotation_to_z((1.0, 2.0, 2.0))
    tilted = R.copy()
    tilted[0, 0] += 1e-6
    for bad in (2.0 * np.eye(3), np.diag([-1.0, 1.0, 1.0]), np.eye(2), np.full((3, 3), np.nan),
                np.eye(4), tilted, -R, "abc", np.eye(3).astype(str), np.eye(3, dtype=bool)):
        with pytest.raises(ValueError, match="finite 3x3 proper rotation"):
            rotated(icosa, bad)
    assert congruent(icosa, rotated(icosa, R.tolist()))
