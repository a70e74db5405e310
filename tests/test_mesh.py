"""Seed solids, mesh validation, and basic transforms."""

from __future__ import annotations

import dataclasses
import math

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
    TolerancePolicy,
    UnsupportedSeed,
    build_mesh,
    congruent,
    dual,
    export_obj,
    gemmate,
    import_obj,
    is_infinitesimally_rigid,
    mirrored,
    project_to_sphere,
    rotated,
    rotation_to_z,
    seed,
    stepping_projection,
    subdivide,
    truncate_dome,
)

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
    dist = np.linalg.norm(P.vertices - P.center, axis=1)
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


def test_build_mesh_rejects_bad_radius():
    t = seed("tetrahedron")
    for bad in (0.0, -1.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="radius"):
            build_mesh(t.vertices, t.faces, radius=bad)


@pytest.mark.parametrize(
    "option,error,message",
    [
        ({"center": (math.nan, 0.0, 0.0)}, ValueError, "center must be a finite 3-vector"),
        ({"center": (0.0, -math.inf, 0.0)}, ValueError, "center must be a finite 3-vector"),
        ({"center": (0.0, 0.0)}, ValueError, "center must be a finite 3-vector"),
        ({"closed": "yes"}, TypeError, "closed must be a bool, got str"),
        ({"closed": 1}, TypeError, "closed must be a bool, got int"),
    ],
)
def test_build_mesh_checks_center_and_closed(option, error, message):
    t = seed("tetrahedron")
    with pytest.raises(error, match=message):
        build_mesh(t.vertices, t.faces, **option)


def test_build_mesh_copies_its_inputs():
    t = seed("tetrahedron")
    from_points = build_mesh((tuple(p) for p in t.vertices.tolist()), t.faces)
    np.testing.assert_array_equal(from_points.vertices, t.vertices)
    verts, ctr = t.vertices.copy(), np.zeros(3)
    P = build_mesh(verts, t.faces, center=ctr, closed=np.True_)
    assert verts.flags.writeable and ctr.flags.writeable
    verts[0], ctr[0] = 0.0, 1.0
    np.testing.assert_array_equal(P.vertices, t.vertices)
    np.testing.assert_array_equal(P.center, np.zeros(3))


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
        Q = build_mesh(P.vertices, P.faces, center=P.center, radius=P.radius, closed=P.closed)
        for name in ("faces", "edges", "boundary_edges"):
            got = getattr(P, name)
            assert got == getattr(Q, name)
            assert type(got) is tuple and all(type(t) is tuple for t in got)
            assert all(type(i) is int for t in got for i in t)


def test_mesh_stores_only_the_half_edge_table(sphere_21):
    assert [f.name for f in dataclasses.fields(Mesh)] == [
        "vertices", "center", "radius", "_half_edges"
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


@pytest.mark.parametrize(
    "call",
    [
        lambda P, tol: build_mesh(P.vertices, P.faces, tol=tol),
        lambda P, tol: project_to_sphere(subdivide(P, 2, 0), tol),
        lambda P, tol: stepping_projection(P, 1, tol),
        lambda P, tol: dual(P, tol=tol),
        lambda P, tol: gemmate(dual(P), tol),
        lambda P, tol: truncate_dome(P, 0.5, tol=tol),
        lambda P, tol: congruent(P, P, tol=tol),
        lambda P, tol: is_infinitesimally_rigid(P, tol),
        lambda P, tol: import_obj("never-read.obj", tol=tol),
    ],
    ids=[
        "build_mesh", "project_to_sphere", "stepping_projection", "dual", "gemmate",
        "truncate_dome", "congruent", "is_infinitesimally_rigid", "import_obj",
    ],
)
def test_tolerance_policy_required(call, icosa):
    with pytest.raises(TypeError, match="tol must be a TolerancePolicy, got float"):
        call(icosa, 1e-9)


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(metric_eps=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(rank_eps=-1e-9)
    # nan compares false everywhere: it would silently fail every tolerance test
    for bad in (math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="positive and finite"):
            TolerancePolicy(metric_eps=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            TolerancePolicy(rank_eps=bad)
    assert DEFAULT_TOL.metric_eps == 1e-9
    assert DEFAULT_TOL.rank_eps == 1e-10


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
    for bad in [(0, 0, 0), (math.nan, 0, 1), (math.inf, 0, 0), (1, 2), [(0, 0, 1)]]:
        with pytest.raises(ValueError, match="direction must be a finite non-zero 3-vector"):
            rotation_to_z(bad)


def test_rotated_rejects_non_rotation(icosa):
    R = rotation_to_z((1.0, 2.0, 2.0))
    tilted = R.copy()
    tilted[0, 0] += 1e-6
    for bad in (2.0 * np.eye(3), np.diag([-1.0, 1.0, 1.0]), np.eye(2), np.full((3, 3), np.nan),
                np.eye(4), tilted, -R):
        with pytest.raises(ValueError, match="finite 3x3 proper rotation"):
            rotated(icosa, bad)
    assert congruent(icosa, rotated(icosa, R.tolist()))
