"""Polar duals, pyramid augmentation, and dome truncation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geodome import (
    EmptyDome,
    FaceThroughCenter,
    StrictCutViolation,
    TriangularFacePresent,
    build_mesh,
    combinatorially_isomorphic,
    congruent,
    dual,
    face_metrics,
    gemmate,
    project_to_sphere,
    seed,
    subdivide,
    truncate_dome,
    vertex_degree_histogram,
)
from geodome.mesh import _scale


def test_dual_of_icosahedron_is_dodecahedral(icosa):
    D = dual(icosa)
    assert D.counts == (20, 30, 12)
    assert all(len(f) == 5 for f in D.faces)
    assert combinatorially_isomorphic(D, seed("dodecahedron"))


def test_dual_swaps_counts(sphere_21):
    D = dual(sphere_21)
    v, s, f = sphere_21.counts
    assert D.counts == (f, s, v)
    sizes = sorted(len(face) for face in D.faces)
    assert sizes.count(5) == 12
    assert sizes.count(6) == 60
    assert set(int(d) for d in D.degrees()) == {3}


def test_dual_of_dual_returns_original(icosa, sphere_21):
    for P in (icosa, sphere_21):
        back = dual(dual(P))
        assert congruent(P, back)


def test_dual_of_a_sphere_off_center_follows_the_face_rotation(sphere_21):
    # around an axis that misses the dual face, polar angle is not ring order;
    # the faces' rotation about each vertex is
    Q = build_mesh(sphere_21.vertices + (0.0, 0.0, 0.5), sphere_21.faces)
    D = dual(Q, sphere_radius=1.0)
    assert D.counts == (140, 210, 72)
    back = dual(D, sphere_radius=1.0)
    assert np.abs(back.vertices - Q.vertices).max() <= 1e-15
    for got, want in zip(back.faces, Q.faces):  # the same cycles, from another start
        k = got.index(want[0])
        assert got[k:] + got[:k] == want


def test_dual_with_explicit_sphere_scales():
    D1 = dual(seed("icosahedron"), sphere_radius=1.0)
    D2 = dual(seed("icosahedron"), sphere_radius=2.0)
    np.testing.assert_allclose(D2.vertices, 4.0 * D1.vertices, atol=1e-12)


def test_dual_rejects_bad_sphere_radius(icosa):
    for bad in (math.nan, math.inf, True, 0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            dual(icosa, sphere_radius=bad)


def test_dual_rejects_face_through_center():
    eps = 1e-12
    verts = [(2, 0, -eps), (-1, 2, -eps), (-1, -2, -eps), (0, 0, 1)]
    faces = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)]
    sliver = build_mesh(verts, faces)
    with pytest.raises(FaceThroughCenter):
        dual(sliver, sphere_radius=1.0)


def test_dual_requires_a_polarity_sphere():
    t = seed("tetrahedron")
    verts = t.vertices.copy()
    verts[0] *= 2.0  # neither inscribed nor tangent to a common sphere
    stretched = build_mesh(verts, t.faces)
    with pytest.raises(ValueError):
        dual(stretched)
    with pytest.raises(ValueError):
        dual(truncate_dome(seed("icosahedron", vertex_up=True), 0.5))  # open
    poked = dual(stretched, sphere_radius=1.0)
    assert poked.counts == (4, 6, 4)


@pytest.mark.parametrize("m, n", [(1, 1), (4, 0)])
def test_dual_rejects_non_convex_sphere(m, n):
    # the tetrahedral (1, 1) sphere has coplanar faces, the (4, 0) one reflex edges
    P = project_to_sphere(subdivide(seed("tetrahedron"), m, n))
    with pytest.raises(ValueError, match="not strictly convex at edge"):
        dual(P)


def test_gemmate_dodecahedron_is_pentakis():
    G = gemmate(seed("dodecahedron"))
    assert G.counts == (32, 90, 60)
    assert vertex_degree_histogram(G) == {5: 12, 6: 20}
    assert G.radius == 1.0
    dist = np.linalg.norm(G.vertices, axis=1)
    np.testing.assert_allclose(dist, 1.0, atol=1e-12)


def test_gemmate_is_isosceles_only_on_regular_faces(make_sphere):
    # the pentakis dodecahedron is all isosceles; the irregular faces of a Goldberg
    # dual are not equidistant from their perpendicular foot, so some slants differ
    for P, scalene, faces in ((seed("dodecahedron"), 0, 60),
                              (dual(make_sphere(2, 1, vertex_up=True)), 240, 420),
                              (dual(make_sphere(3, 0, vertex_up=True)), 120, 540)):
        kinds = [f.kind for f in face_metrics(gemmate(P))]
        assert (kinds.count("scalene"), len(kinds)) == (scalene, faces)
        assert kinds.count("isosceles") == faces - scalene


def test_gemmate_of_an_open_mesh_is_open(make_sphere):
    D = truncate_dome(dual(make_sphere(3, 0, vertex_up=True)), 0.5)
    assert D.counts == (105, 150, 46) and not D.closed
    G = gemmate(D)
    assert G.counts == (151, 420, 270) and not G.closed
    assert G.boundary_edges == D.boundary_edges


def test_gemmate_rejects_triangles(icosa):
    with pytest.raises(TriangularFacePresent):
        gemmate(icosa)


def test_gemmate_without_a_circumsphere_puts_apexes_at_mean_vertex_distance(sphere_21):
    D = dual(sphere_21)
    assert D.radius is None
    G = gemmate(D)
    v, e, f = D.counts
    assert G.counts == (v + f, 3 * e, 2 * e)
    apexes = np.linalg.norm(G.vertices[v:], axis=1)
    np.testing.assert_allclose(apexes, np.linalg.norm(D.vertices, axis=1).mean(), rtol=1e-12)


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.8])
def test_dome_relabel_matches_unique_reference(make_sphere, fraction):
    spheres = [make_sphere(3, 1), make_sphere(5, 3), make_sphere(7, 0)]
    for P in spheres + [dual(spheres[0])]:
        he = P._half_edges
        z_cut = _scale(P) * (1.0 - 2.0 * fraction)
        keep = he.face_sum(P.vertices[he.tail, 2]) / he.size >= z_cut
        used, local = np.unique(he.tail[keep[he.face]], return_inverse=True)
        dome = truncate_dome(P, fraction)
        assert dome.vertices.tobytes() == P.vertices[used].tobytes()
        assert np.array_equal(dome._half_edges.tail, local)
        assert np.array_equal(dome._half_edges.size, he.size[keep])


def test_truncate_full_fraction_returns_same(sphere_2v):
    assert truncate_dome(sphere_2v, 1.0) is sphere_2v


def test_truncate_hemisphere_counts(make_sphere):
    P = make_sphere(2, 0, vertex_up=True)
    dome = truncate_dome(P, 0.5)
    assert not dome.closed
    assert len(dome.faces) == 40
    assert len(dome.boundary_edges) > 0
    heights = dome.vertices[:, 2]
    assert heights.min() >= -1e-12


def test_truncate_rejects_bad_fraction(sphere_2v):
    for bad in (0.0, -0.2, 1.2, np.nan, True, np.True_):
        with pytest.raises(ValueError, match="height_fraction"):
            truncate_dome(sphere_2v, bad)
    for axis in ((0, 0, 0), (0, 0, np.nan), (np.inf, 0, 1)):
        with pytest.raises(ValueError):
            truncate_dome(sphere_2v, 0.5, axis=axis)


def test_truncate_tiny_cap_is_empty(sphere_2v):
    with pytest.raises(EmptyDome):
        truncate_dome(sphere_2v, 1e-6)


def test_truncate_strict_flags_sagging_faces(make_sphere):
    P = make_sphere(2, 0, vertex_up=True)
    assert truncate_dome(P, 0.5, strict=True).counts == truncate_dome(P, 0.5).counts
    tilted = make_sphere(2, 0)
    with pytest.raises(StrictCutViolation):
        truncate_dome(tilted, 0.35, strict=True)


def test_truncate_axis_symmetry(sphere_2v):
    up = truncate_dome(sphere_2v, 0.5, axis=(0, 0, 1))
    down = truncate_dome(sphere_2v, 0.5, axis=(0, 0, -1))
    assert up.counts == down.counts
