"""Histograms, edge classes, face metrics, congruence, and rigidity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geodome import (
    DegenerateGeometry,
    NonTriangularFace,
    NotClassI,
    RigidityReport,
    TessellationSpec,
    TolerancePolicy,
    angle_dms,
    build_mesh,
    circumcenter_deviation,
    combinatorially_isomorphic,
    congruent,
    detect_frequency,
    edge_class_labels,
    edge_length_classes,
    face_metrics,
    gemmate,
    is_infinitesimally_rigid,
    mirrored,
    rigidity_matrix,
    rotated,
    rotation_to_z,
    seed,
    subdivide,
    truncate_dome,
    verify_counts,
    vertex_degree_histogram,
)
from geodome.analysis import _certified_full_rank


def test_degree_histograms(sphere_3v, sphere_21):
    assert vertex_degree_histogram(sphere_3v) == {5: 12, 6: 80}
    assert vertex_degree_histogram(sphere_21) == {5: 12, 6: 60}


def test_verify_counts(sphere_21, icosa):
    assert verify_counts(sphere_21, TessellationSpec(2, 1))
    assert not verify_counts(icosa, TessellationSpec(2, 1))


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


def test_edge_classes_reject_bad_tolerance(sphere_2v):
    for bad in (0.0, -1e-9, math.nan, math.inf, True):
        with pytest.raises(ValueError):
            edge_length_classes(sphere_2v, tol=bad)
        with pytest.raises(ValueError):
            edge_class_labels(sphere_2v, tol=bad)


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
    verts[0] *= 2.0  # not inscribed: the scale is the mean edge length
    for P in (sphere_2v, build_mesh(verts, t.faces)):
        for bad in (math.nan, 0.0, -1e-9, math.inf, True, np.True_):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                face_metrics(P, tol=bad)


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


def test_congruent_under_rotation(sphere_21):
    R = rotation_to_z((1.0, -2.0, 0.5))
    assert congruent(sphere_21, rotated(sphere_21, R))


def test_congruent_rejects_scaled(make_sphere, sphere_2v):
    assert not congruent(sphere_2v, make_sphere(2, 0, radius=1.1))


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


DEFAULT_EPS = TolerancePolicy().rank_eps


def _dense_report(P, tol=TolerancePolicy()):
    """The report of the dense SVD alone, which the certificate must reproduce."""
    sv = np.linalg.svd(rigidity_matrix(P), compute_uv=False)
    rank = int(np.sum(sv > tol.rank_eps * sv[0]))
    return RigidityReport(len(P.edges), 3 * len(P.vertices), rank, 3 * len(P.vertices) - 6)


def _framework(P):
    return np.asarray(P.vertices), np.asarray(P.edges)


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
@pytest.mark.parametrize("vertex_up", [False, True])
def test_certified_rigidity_equals_dense_svd(make_sphere, kind, vertex_up):
    for m, n in [(m, s - m) for s in range(1, 5) for m in range(s + 1)]:
        P = seed(kind, vertex_up=vertex_up) if (m, n) == (1, 0) else make_sphere(m, n, kind, vertex_up=vertex_up)
        assert _certified_full_rank(*_framework(P), DEFAULT_EPS), (m, n)
        report = is_infinitesimally_rigid(P)
        assert report == _dense_report(P) and report.rigid, (m, n)


def test_certified_rigidity_of_gemmated_solids():
    for kind in ("dodecahedron", "truncated_icosahedron"):
        P = gemmate(seed(kind))
        assert _certified_full_rank(*_framework(P), DEFAULT_EPS)
        report = is_infinitesimally_rigid(P)
        assert report == _dense_report(P) and report.rigid


def test_flat_framework_falls_back_to_dense_rank():
    flat = subdivide(seed("icosahedron"), 3, 0)
    P = build_mesh(flat.points, flat.small_faces)
    assert not _certified_full_rank(*_framework(P), DEFAULT_EPS)
    assert is_infinitesimally_rigid(P) == _dense_report(P) == RigidityReport(270, 276, 250, 270)


def test_raised_rank_eps_is_never_proven_weaker(sphere_2v):
    coarse = TolerancePolicy(rank_eps=0.3)
    assert not _certified_full_rank(*_framework(sphere_2v), coarse.rank_eps)
    report = is_infinitesimally_rigid(sphere_2v, coarse)
    assert report == _dense_report(sphere_2v, coarse) and report.rank < 120
