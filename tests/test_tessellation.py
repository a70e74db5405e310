"""Lattice subdivision, projection, great circles, and Schwarz tiles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from geodome import (
    FlatTessellation,
    InvalidSpec,
    InvariantViolation,
    NonTriangularSeed,
    TessellationSpec,
    UnsupportedSeed,
    VertexAtCenter,
    combinatorially_isomorphic,
    dual,
    great_circles,
    mirrored,
    project_to_sphere,
    rotated,
    rotation_to_z,
    schwarz_tiling,
    seed,
    stepping_projection,
    subdivide,
    truncate_dome,
    verify_counts,
    vertex_degree_histogram,
)
from geodome.tessellation import _axes_up_to_sign, _lattice


@pytest.mark.parametrize(
    "m,n,T", [(1, 0, 1), (2, 0, 4), (3, 0, 9), (1, 1, 3), (2, 1, 7), (8, 8, 192)]
)
def test_triangulation_number(m, n, T):
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
    dist = np.linalg.norm(P.vertices, axis=1)
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


# --- loop references for the array passes ------------------------------------


def _loop_subdivide(P, m, n):
    """Per-tile registry version of `subdivide`, kept as its reference."""
    spec = TessellationSpec(m, n)
    he = P._half_edges
    if (he.size != 3).any():
        raise NonTriangularSeed("lattice subdivision requires a triangular seed")
    T = spec.T
    mn = m + n
    verts = P.vertices
    across_face = np.where(he.twin >= 0, he.face[he.twin], -1).tolist()
    across_far = he.head[he.succ[he.twin]].tolist()

    def neighbor_of(fi, corner):
        h = 3 * fi + (corner + 1) % 3
        if across_face[h] < 0:
            raise ValueError(f"face {fi} has no neighbor across a boundary edge")
        return across_face[h], across_far[h]

    registry = {}
    points = []
    small_faces = []

    def register(frame, nums):
        key = tuple(sorted((v, w) for v, w in zip(frame, nums) if w != 0))
        idx = registry.get(key)
        if idx is None:
            pos = (
                nums[0] * verts[frame[0]]
                + nums[1] * verts[frame[1]]
                + nums[2] * verts[frame[2]]
            ) / T
            idx = len(points)
            points.append(pos)
            registry[key] = idx
        return idx

    for fi, (ia, ib, ic) in enumerate(P.faces):

        def weights(p, q):
            vN = p * mn + q * n
            wN = q * m - p * n
            return T - vN - wN, vN, wN

        def corner_index(nums):
            uN, vN, wN = nums
            if uN >= 0 and vN >= 0 and wN >= 0:
                return register((ia, ib, ic), nums)
            negs = (uN < 0) + (vN < 0) + (wN < 0)
            if negs != 1:
                raise InvariantViolation("tile corner past two edges; centroid ownership broken")
            if uN < 0:
                _, d = neighbor_of(fi, 0)
                frame, out = (d, ib, ic), (-uN, uN + vN, uN + wN)
            elif vN < 0:
                _, d = neighbor_of(fi, 1)
                frame, out = (ia, d, ic), (uN + vN, -vN, vN + wN)
            else:
                _, d = neighbor_of(fi, 2)
                frame, out = (ia, ib, d), (uN + wN, vN + wN, -wN)
            if min(out) < 0:
                raise InvariantViolation(f"unfolded corner weights {out} are negative")
            return register(frame, out)

        for q in range(-1, mn + 2):
            for p in range(-n - 1, m + 2):
                up = ((p, q), (p + 1, q), (p, q + 1))
                down = ((p + 1, q), (p + 1, q + 1), (p, q + 1))
                for tile in (up, down):
                    nums = [weights(pp, qq) for pp, qq in tile]
                    cu = sum(w[0] for w in nums)
                    cv = sum(w[1] for w in nums)
                    cw = sum(w[2] for w in nums)
                    if min(cu, cv, cw) < 0:
                        continue
                    zeros = (cu == 0) + (cv == 0) + (cw == 0)
                    if zeros:
                        if zeros != 1:
                            raise InvariantViolation("tile centroid on a seed vertex")
                        if cu == 0:
                            gi, _ = neighbor_of(fi, 0)
                        elif cv == 0:
                            gi, _ = neighbor_of(fi, 1)
                        else:
                            gi, _ = neighbor_of(fi, 2)
                        if gi < fi:
                            continue
                    small_faces.append(tuple(corner_index(w) for w in nums))

    expected = len(P.faces) * T
    if len(small_faces) != expected:
        raise InvariantViolation(f"assembled {len(small_faces)} tiles, expected {expected}")
    pts = np.array(points)
    faces = np.array(small_faces, dtype=np.intp).reshape(-1, 3)
    for array in (pts, faces):
        array.setflags(write=False)
    return FlatTessellation(base=P, spec=spec, points=pts, small_faces=faces)


def _outcome(build, P, m, n):
    """Everything `subdivide` promises: exact bytes and indices, or the exact error."""
    try:
        t = build(P, m, n)
    except (InvariantViolation, ValueError) as exc:
        return type(exc), str(exc)
    arrays = (t.points, t.small_faces)
    return [(a.tobytes(), a.shape, a.dtype, a.flags.writeable) for a in arrays]


def _walks(most):
    return [(m, s - m) for s in range(1, most + 1) for m in range(s + 1)]


def _assert_matches_loop(P, walks):
    for m, n in walks:
        assert _outcome(subdivide, P, m, n) == _outcome(_loop_subdivide, P, m, n), (m, n)


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
@pytest.mark.parametrize("vertex_up", [False, True])
def test_subdivide_matches_loop_reference_on_seeds(kind, vertex_up):
    _assert_matches_loop(seed(kind, vertex_up=vertex_up), _walks(6))


def test_subdivide_matches_loop_reference_on_mirrored_seed_and_sphere(icosa, sphere_21):
    _assert_matches_loop(mirrored(icosa), _walks(3))
    _assert_matches_loop(sphere_21, _walks(3))


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.8])
def test_subdivide_of_dome_matches_loop_reference(fraction, make_sphere):
    dome = truncate_dome(make_sphere(3, 1), fraction)
    walks = [(1, 0), (2, 0), (1, 1), (2, 1), (3, 0)]
    _assert_matches_loop(dome, walks)
    # walks off the face edges reach across the rim, whose lowest face is named
    for m, n in [(1, 1), (2, 1)]:
        kind, message = _outcome(subdivide, dome, m, n)
        assert kind is ValueError and "has no neighbor across a boundary edge" in message


def test_lattice_template_is_cached_read_only_and_validated_first():
    R = rotation_to_z((1.0, 2.0, 3.0))
    bases = [rotated(seed("octahedron"), R), rotated(seed("icosahedron", vertex_up=True), R.T)]
    walks = [(1, 0), (2, 1), (1, 2), (3, 3)]
    cached = [_outcome(subdivide, P, m, n) for P in bases for m, n in walks]
    _lattice.cache_clear()
    assert [_outcome(subdivide, P, m, n) for P in bases for m, n in walks] == cached
    assert _lattice.cache_info().hits == len(walks)  # the second seed reuses every template
    for arr in _lattice(2, 1)[1:]:
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]
    # validation runs before the cache is reached, so a bool is no 1 here
    _lattice(1, 0)
    with pytest.raises(InvalidSpec):
        subdivide(bases[0], True, 0)
    assert _outcome(subdivide, bases[0], np.int64(2), 0) == _outcome(subdivide, bases[0], 2, 0)


def _dict_axes_up_to_sign(dirs):
    """Registry version of `_axes_up_to_sign`, kept as its reference."""
    units = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    seen = {}
    for u in units:
        v = u.copy()
        for c in v:
            if abs(c) > 1e-9:
                if c < 0:
                    v = -v
                break
        key = tuple(int(round(c * 1e9)) for c in v)
        if key not in seen:
            seen[key] = v
    return np.array([seen[k] for k in sorted(seen)])


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
def test_axes_up_to_sign_matches_dict_reference(kind, make_sphere):
    sphere = make_sphere(2, 1, kind)
    meshes = [seed(kind), sphere, dual(sphere)]
    if kind == "icosahedron":
        meshes += [seed("dodecahedron"), seed("truncated_icosahedron")]
    for P in meshes:
        a, b = P._half_edges.edges.T
        for dirs in (P.vertices, (P.vertices[a] + P.vertices[b]) / 2.0, P.face_centroids()):
            got, want = _axes_up_to_sign(dirs), _dict_axes_up_to_sign(dirs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _loop_schwarz_tiling(kind: str, radius: float) -> list[np.ndarray]:
    """Per-face version of `schwarz_tiling`, kept as its reference."""
    P = seed(kind, radius)

    def project(p: np.ndarray) -> np.ndarray:
        return p * (radius / float(np.linalg.norm(p)))

    tiles = []
    for a, b, c in P.faces:
        A, B, C = P.vertices[a], P.vertices[b], P.vertices[c]
        G = project((A + B + C) / 3.0)
        mab, mbc, mca = project((A + B) / 2.0), project((B + C) / 2.0), project((C + A) / 2.0)
        tiles.extend(
            np.array(t)
            for t in (
                (A, mab, G), (B, mab, G),
                (B, mbc, G), (C, mbc, G),
                (C, mca, G), (A, mca, G),
            )
        )
    return tiles


@pytest.mark.parametrize("kind", ["tetrahedron", "octahedron", "icosahedron"])
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_schwarz_tiling_matches_loop_reference(kind, radius):
    got, want = schwarz_tiling(kind, radius), _loop_schwarz_tiling(kind, radius)
    assert isinstance(got, list) and len(got) == len(want)
    for tile, ref in zip(got, want):
        assert tile.shape == ref.shape == (3, 3) and tile.dtype == ref.dtype
        assert tile.tobytes() == ref.tobytes()
