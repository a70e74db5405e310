"""Acceptance gate: the numbered criteria the package must satisfy.

Each test covers one criterion at its stated tolerance and ends with a
single machine-readable pass line; run with `pytest -v` (or -s for the
lines themselves).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from geodome import (
    TessellationSpec,
    circumcenter_deviation,
    combinatorially_isomorphic,
    congruent,
    dual,
    edge_length_classes,
    export_obj,
    export_schedule,
    face_metrics,
    gemmate,
    great_circles,
    import_obj,
    is_infinitesimally_rigid,
    mirrored,
    project_to_sphere,
    rotation_to_z,
    schwarz_tiling,
    seed,
    stepping_projection,
    strut_schedule,
    subdivide,
    truncate_dome,
    verify_counts,
    vertex_degree_histogram,
)

ARCSECOND = math.pi / (180.0 * 3600.0)


def dms(d: int, m: int, s: float) -> float:
    return math.radians(d + m / 60.0 + s / 3600.0)


@lru_cache(maxsize=None)
def sphere(m: int, n: int, vertex_up: bool = False):
    base = seed("icosahedron", vertex_up=vertex_up)
    return project_to_sphere(subdivide(base, m, n))


def spread(P) -> float:
    lengths = P.edge_lengths()
    return float((lengths.max() - lengths.min()) / lengths.mean())


def spherical_area(tile: np.ndarray) -> float:
    u = tile / np.linalg.norm(tile, axis=1)[:, None]
    total = 0.0
    for i in range(3):
        a, b, c = u[i], u[(i + 1) % 3], u[(i + 2) % 3]
        t1, t2 = np.cross(a, b), np.cross(a, c)
        total += math.atan2(abs(float(a @ np.cross(t1, t2))), float(t1 @ t2))
    return total - math.pi


def test_c01_count_formulas():
    specs = [(1, 0), (2, 0), (3, 0), (5, 0), (1, 1), (2, 2), (2, 1), (3, 1), (4, 1), (8, 8)]
    for m, n in specs:
        P = sphere(m, n)
        assert verify_counts(P, TessellationSpec(m, n)), (m, n, P.counts)
    assert sphere(2, 1).counts == (72, 210, 140)
    assert sphere(4, 1).counts == (212, 630, 420)
    assert sphere(8, 8).counts[2] == 3840
    print(f"PASS criterion 1: V/S/F formulas exact for {len(specs)} lattice specs")


def test_c02_2v_histogram():
    P = sphere(2, 0)
    hist = vertex_degree_histogram(P)
    assert hist == {5: 12, 6: 30}
    assert len(P.edges) == 120
    print(f"PASS criterion 2: 2v histogram {hist} with {len(P.edges)} edges")


def test_c03_edge_class_counts():
    three = edge_length_classes(sphere(3, 0), tol=1e-9).class_count
    nine = edge_length_classes(sphere(5, 0), tol=1e-9).class_count
    assert three == 3
    assert nine == 9
    print(f"PASS criterion 3: edge classes 3v -> {three}, 5v -> {nine}")


# Icosahedral class I chord factors and their counts (Kenner 1976, Geodesic Math
# and How to Use It), rounded to 5 places
KENNER_CHORDS = {
    2: [(0.54653, 60), (0.61803, 60)],
    3: [(0.34862, 60), (0.40355, 90), (0.41241, 120)],
    4: [(0.25318, 60), (0.29453, 120), (0.29524, 60), (0.29859, 60), (0.31287, 120),
        (0.32492, 60)],
}


def test_c03_chord_factors_match_the_published_table():
    for m, want in KENNER_CHORDS.items():
        entries = edge_length_classes(sphere(m, 0), tol=1e-9).entries
        assert [(round(chord, 5), count) for chord, count in entries] == want, m
    print(f"PASS criterion 3: chord factors of {sorted(KENNER_CHORDS)}v match Kenner (1976)")


def test_c04_gemmated_truncated_icosahedron():
    G = gemmate(seed("truncated_icosahedron"))
    assert G.counts == (92, 270, 180)
    classes = edge_length_classes(G, tol=1e-9).class_count
    assert classes == 3
    print(f"PASS criterion 4: gemmation -> {G.counts} with {classes} edge classes")


def _isosceles_summary(P):
    metrics = [m for m in face_metrics(P) if m.kind == "isosceles"]
    assert metrics, "expected isosceles faces"
    ratios = {m.leg_base_ratio for m in metrics}
    apexes = {m.apex_angle for m in metrics}
    return min(ratios), max(ratios), min(apexes), max(apexes)


def test_c05_pentakis_metrics():
    lo, hi, alo, ahi = _isosceles_summary(gemmate(seed("dodecahedron")))
    assert abs(lo - 0.897999085) <= 1e-8 and abs(hi - 0.897999085) <= 1e-8
    assert abs(alo - dms(67, 40, 7)) <= ARCSECOND and abs(ahi - dms(67, 40, 7)) <= ARCSECOND
    lo2, hi2, alo2, ahi2 = _isosceles_summary(dual(seed("truncated_icosahedron")))
    assert abs(lo2 - 0.887057998) <= 1e-8 and abs(hi2 - 0.887057998) <= 1e-8
    assert abs(alo2 - dms(68, 37, 7)) <= ARCSECOND and abs(ahi2 - dms(68, 37, 7)) <= ARCSECOND
    print(
        "PASS criterion 5: pentakis ratios "
        f"{lo:.9f} (inscribed) and {lo2:.9f} (equal-face) with apexes in tolerance"
    )


def test_c06_dodecahedron_edge_and_rounded_ratio():
    edge = float(seed("dodecahedron").edge_lengths().mean())
    target = (math.sqrt(5.0) - 1.0) / math.sqrt(3.0)
    assert abs(edge - target) <= 1e-12
    ratio = face_metrics(gemmate(seed("dodecahedron")))[0].leg_base_ratio
    assert abs(ratio - 0.898) <= 5e-4
    print(f"PASS criterion 6: unit dodecahedron edge {edge:.12f}, slant/edge ~ 0.898")


def test_c07_circumcenter_property():
    worst = 0.0
    for m, n in [(2, 0), (3, 0), (5, 0), (1, 1), (2, 2), (2, 1), (3, 1)]:
        worst = max(worst, circumcenter_deviation(sphere(m, n)))
    assert worst < 1e-9
    assert circumcenter_deviation(seed("icosahedron")) < 1e-12
    print(f"PASS criterion 7: circumcenter foot deviation max {worst:.3e} < 1e-9")


def test_c08_duality():
    for P in (seed("icosahedron"), sphere(2, 1)):
        assert congruent(P, dual(dual(P)))
    for m, n in [(2, 1), (3, 0)]:
        D = dual(sphere(m, n))
        sizes = sorted(len(f) for f in D.faces)
        T = TessellationSpec(m, n).T
        assert sizes.count(5) == 12
        assert sizes.count(6) == 10 * T - 10
        assert len(sizes) == 10 * T + 2
    print("PASS criterion 8: dual involution exact; Goldberg pentagon/hexagon counts hold")


def test_c09_chirality():
    P = sphere(2, 1)
    mirror = mirrored(P)
    assert not congruent(P, mirror)
    assert congruent(P, mirror, allow_reflection=True)
    assert congruent(mirror, sphere(1, 2))
    for m, n in [(3, 0), (2, 2)]:
        Q = sphere(m, n)
        assert congruent(Q, mirrored(Q))
    print("PASS criterion 9: (2,1) chiral with mirror = (1,2); (3,0) and (2,2) achiral")


def test_c10_rigidity():
    ranks = []
    for P, expected in [
        (seed("icosahedron"), 30),
        (sphere(2, 0), 120),
        (gemmate(seed("truncated_icosahedron")), 270),
    ]:
        report = is_infinitesimally_rigid(P)
        assert report.rigid and report.rank == expected == report.required_rank
        ranks.append(report.rank)
    floppy = is_infinitesimally_rigid(
        ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    assert not floppy.rigid and floppy.rank < floppy.required_rank
    P = sphere(2, 0)
    R = rotation_to_z((1.0, 2.0, 3.0))
    moved = is_infinitesimally_rigid((P.vertices @ R.T * 17.0, list(P.edges)))
    assert (moved.rigid, moved.rank) == (True, 120)
    print(f"PASS criterion 10: rigidity ranks {ranks} = 3V-6; 4-cycle floppy; verdict isometry-invariant")


def test_c11_stepping_projection():
    stepped = stepping_projection(seed("icosahedron"), 2)
    direct = sphere(4, 0)
    assert combinatorially_isomorphic(stepped, direct)
    s_stepped, s_direct = spread(stepped), spread(direct)
    assert s_stepped < s_direct
    print(
        f"PASS criterion 11: stepping matches (4,0) combinatorially; spread {s_stepped:.4f} < {s_direct:.4f}"
    )


def test_c12_dome_cuts():
    hemisphere = truncate_dome(sphere(2, 0, vertex_up=True), 0.5)
    assert len(hemisphere.faces) == 40
    big = truncate_dome(sphere(16, 0), 0.8)
    kept = len(big.faces)
    assert abs(kept - 4096) <= 66
    print(f"PASS criterion 12: 2v hemisphere 40 faces; 16v at 0.8 keeps {kept} in 4096 +/- 66")


def test_c13_great_circles_and_schwarz():
    gc = great_circles(seed("icosahedron"))
    parts = (len(gc.vertex_axes), len(gc.edge_axes), len(gc.face_axes))
    assert parts == (6, 15, 10)
    assert len(gc) == 31
    for kind, count in [("tetrahedron", 24), ("octahedron", 48), ("icosahedron", 120)]:
        tiles = schwarz_tiling(kind)
        assert len(tiles) == count
        want = 4.0 * math.pi / count
        for tile in tiles:
            assert abs(spherical_area(tile) - want) <= 1e-9
    print(f"PASS criterion 13: 31 great circles {parts}; Schwarz tilings 24/48/120 equal-area")


def test_c14_serialization(tmp_path):
    P = sphere(2, 1)
    first, second = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(P, first)
    export_obj(import_obj(first), second)
    assert first.read_bytes() == second.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    export_schedule(P, j1)
    export_schedule(import_obj(first), j2)
    assert j1.read_bytes() == j2.read_bytes()
    sched = strut_schedule(P)
    assert len(sched.nodes) == 72
    assert len(sched.struts) == 210
    print("PASS criterion 14: OBJ and JSON byte-stable; (2,1) schedule 72 nodes / 210 struts")


def test_c15_idealized_built_structure_counts():
    faces_20v = sphere(20, 0).counts[2]
    assert faces_20v == 8000
    faces_88 = sphere(8, 8).counts[2]
    assert faces_88 == 3840
    assert 3 * faces_88 == 11520
    print(f"PASS criterion 15: 20v -> {faces_20v} faces; 3 x {faces_88} = {3 * faces_88} panels")
