"""Lattice subdivision, projection, great circles, and Schwarz tiles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from geodome import (
    InvalidSpec,
    NonTriangularSeed,
    TessellationSpec,
    UnsupportedSeed,
    VertexAtCenter,
    combinatorially_isomorphic,
    great_circles,
    project_to_sphere,
    schwarz_tiling,
    seed,
    stepping_projection,
    subdivide,
    triangulation_number,
    verify_counts,
    vertex_degree_histogram,
)


@pytest.mark.parametrize(
    "m,n,T", [(1, 0, 1), (2, 0, 4), (3, 0, 9), (1, 1, 3), (2, 1, 7), (8, 8, 192)]
)
def test_triangulation_number(m, n, T):
    assert triangulation_number(m, n) == T
    assert TessellationSpec(m, n).T == T


@pytest.mark.parametrize("m,n,cls", [(2, 0, "I"), (0, 3, "I"), (2, 2, "II"), (2, 1, "III")])
def test_subdivision_class(m, n, cls):
    assert TessellationSpec(m, n).subdivision_class == cls


@pytest.mark.parametrize(
    "m,n", [(0, 0), (-1, 2), (2, -1), (True, 0), (2, False), (2.0, 0), (1, 1.5), ("2", 0)]
)
def test_invalid_spec_rejected(m, n, icosa):
    with pytest.raises(InvalidSpec):
        TessellationSpec(m, n)
    with pytest.raises(InvalidSpec):
        triangulation_number(m, n)
    with pytest.raises(InvalidSpec):
        subdivide(icosa, m, n)


@pytest.mark.parametrize("m,n", [(2, 0), (1, 1), (2, 1), (3, 2)])
def test_flat_tessellation_counts(m, n, icosa):
    t = subdivide(icosa, m, n)
    T = t.spec.T
    assert len(t.small_faces) == 20 * T
    assert len(t.points) == 10 * T + 2


@pytest.mark.parametrize(
    "kind,v_coef,f_coef", [("tetrahedron", 2, 4), ("octahedron", 4, 8)]
)
def test_other_triangular_seeds_subdivide(kind, v_coef, f_coef):
    P = project_to_sphere(subdivide(seed(kind), 3, 1))
    T = 13
    assert P.counts[0] == v_coef * T + 2
    assert P.counts[2] == f_coef * T



def test_subdivide_rejects_non_triangular_seed():
    with pytest.raises(NonTriangularSeed):
        subdivide(seed("dodecahedron"), 2, 0)


def test_projection_lands_on_sphere(make_sphere):
    P = make_sphere(3, 2, radius=4.0)
    dist = np.linalg.norm(P.vertices - P.center, axis=1)
    np.testing.assert_allclose(dist, 4.0, rtol=0, atol=1e-12)
    assert verify_counts(P, TessellationSpec(3, 2))


def test_projection_degree_histogram(make_sphere):
    P = make_sphere(4, 1)
    T = 21
    assert vertex_degree_histogram(P) == {5: 12, 6: 10 * T - 10}


def test_projection_guards_center_vertex(icosa):
    t = subdivide(icosa, 2, 0)
    pts = t.points.copy()
    pts[len(icosa.vertices)] = 0.0  # a lattice point collapsed onto the center
    broken = dataclasses.replace(t, points=pts)
    with pytest.raises(VertexAtCenter):
        project_to_sphere(broken)


def test_stepping_projection_matches_direct_combinatorics(icosa):
    stepped = stepping_projection(icosa, 2)
    direct = project_to_sphere(subdivide(icosa, 4, 0))
    assert stepped.counts == direct.counts
    assert combinatorially_isomorphic(stepped, direct)


def test_stepping_projection_levels_validated(icosa):
    for bad in (0, True):
        with pytest.raises(ValueError):
            stepping_projection(icosa, bad)


def test_great_circles_icosahedron(icosa):
    gc = great_circles(icosa)
    assert len(gc.vertex_axes) == 6
    assert len(gc.edge_axes) == 15
    assert len(gc.face_axes) == 10
    assert len(gc) == 31
    norms = np.linalg.norm(gc.normals, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_great_circles_octahedron():
    gc = great_circles(seed("octahedron"))
    assert (len(gc.vertex_axes), len(gc.edge_axes), len(gc.face_axes)) == (3, 6, 4)


def _spherical_area(tile: np.ndarray) -> float:
    u = tile / np.linalg.norm(tile, axis=1)[:, None]
    total = 0.0
    for i in range(3):
        a, b, c = u[i], u[(i + 1) % 3], u[(i + 2) % 3]
        t1 = np.cross(a, b)
        t2 = np.cross(a, c)
        total += math.atan2(abs(float(a @ np.cross(t1, t2))), float(t1 @ t2))
    return total - math.pi


@pytest.mark.parametrize("kind,tiles", [("tetrahedron", 24), ("octahedron", 48), ("icosahedron", 120)])
def test_schwarz_tiling_counts_and_areas(kind, tiles):
    got = schwarz_tiling(kind)
    assert len(got) == tiles
    want = 4.0 * math.pi / tiles
    for tile in got:
        assert _spherical_area(tile) == pytest.approx(want, abs=1e-9)


def test_schwarz_tiling_rejects_other_seeds():
    with pytest.raises(UnsupportedSeed):
        schwarz_tiling("dodecahedron")
