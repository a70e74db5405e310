"""OBJ round-trips, strut schedules, CSV tables, and the command line."""

from __future__ import annotations

import csv
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodome

from geodome import (
    DEFAULT_TOL,
    GeodomeError,
    InvariantViolation,
    ParseError,
    analysis_rows,
    build_mesh,
    dual,
    export_analysis_csv,
    export_obj,
    export_schedule,
    face_metrics,
    gemmate,
    import_obj,
    mirrored,
    project_to_sphere,
    rotated,
    rotation_to_z,
    seed,
    strut_schedule,
    subdivide,
    truncate_dome,
)
from geodome.cli import main

# A tetrahedron around the origin with one vertex pulled outward: valid and
# closed, but its vertices share no common circumsphere.
STRETCHED_TETRA_OBJ = (
    "v 2 2 2\nv 1 -1 -1\nv -1 1 -1\nv -1 -1 1\n"
    "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"
)


def test_obj_roundtrip_bytes_stable(sphere_21, tmp_path):
    first = tmp_path / "a.obj"
    second = tmp_path / "b.obj"
    export_obj(sphere_21, first)
    back = import_obj(first)
    export_obj(back, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(back.vertices, sphere_21.vertices)
    assert back.faces == sphere_21.faces


def test_int_radius_schedule_and_csv_survive_obj_roundtrip(tmp_path):
    P = seed("icosahedron", 2)
    export_obj(P, tmp_path / "s.obj")
    back = import_obj(tmp_path / "s.obj")
    for write in (export_schedule, export_analysis_csv):
        write(P, tmp_path / "a")
        write(back, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert type(P.radius) is float


def test_outputs_carry_no_negative_zero(tmp_path):
    # mirrored() yields -0.0 coordinates; the transforms below must not pass them on
    octa = mirrored(seed("octahedron"))
    sphere = project_to_sphere(subdivide(octa, 2, 0))
    flip = rotation_to_z((0.0, 0.0, -1.0))
    meshes = [sphere, rotated(sphere, flip), rotated(seed("octahedron"), flip)]
    duals = [dual(mirrored(seed(kind))) for kind in ("tetrahedron", "octahedron", "icosahedron")]
    meshes += duals + [gemmate(D) for D in duals[1:]]
    for i, P in enumerate(meshes):
        v = P.vertices
        assert not (np.signbit(v) & (v == 0.0)).any(), i
        export_obj(P, tmp_path / "z.obj")
        assert "-0" not in (tmp_path / "z.obj").read_text().split(), i


def _spread_tetrahedron(radius, spread):
    """A tetrahedron of the given radius with one vertex pushed out by spread * radius."""
    t = seed("tetrahedron")
    verts = t.vertices * radius
    verts[0] *= 1.0 + spread
    return build_mesh(verts, t.faces)


def test_obj_import_detects_radius(sphere_21, tmp_path):
    path = tmp_path / "s.obj"
    export_obj(sphere_21, path)
    assert import_obj(path).radius == pytest.approx(1.0, abs=1e-12)
    # vertex distances that spread by less than DEFAULT_TOL of their mean give a radius
    for radius in (1.0, 1e6):
        export_obj(_spread_tetrahedron(radius, 0.5 * DEFAULT_TOL), path)
        assert import_obj(path).radius == pytest.approx(radius, rel=DEFAULT_TOL)


def test_obj_import_leaves_radius_unset_for_non_spheres(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(STRETCHED_TETRA_OBJ)
    assert import_obj(path).radius is None
    for radius in (1.0, 1e6):
        export_obj(_spread_tetrahedron(radius, 2.0 * DEFAULT_TOL), path)
        assert import_obj(path).radius is None


def test_obj_import_open_requires_flag(sphere_21, tmp_path):
    dome = truncate_dome(sphere_21, 0.5)
    path = tmp_path / "dome.obj"
    export_obj(dome, path)
    with pytest.raises(Exception) as err:
        import_obj(path)
    assert "expected 2" in str(err.value)
    back = import_obj(path, allow_open=True)
    assert not back.closed
    assert back.counts == dome.counts


@pytest.mark.parametrize(
    "text,phrase",
    [
        ("v 0 0\nf 1 2 3\n", "line 1"),
        ("v a b c\n", "line 1"),
        ("v 0 0 nan\n", "line 1"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2\n", "line 4"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "line 4"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "line 4"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "line 4"),
        # Python's float and int read these, OBJ does not
        ("v 0_1 0 1\n", "line 1: bad coordinate"),
        ("v \u0660 \u0661 \u0660\n", "line 1: bad coordinate"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 0_1 2 3\n", "line 4: face indices must be integers"),
        ("v 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 \u0663\n", "line 4: face indices must be integers"),
    ],
)
def test_obj_parse_errors(text, phrase, tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        import_obj(path, allow_open=True)
    assert phrase in str(err.value)


def test_obj_undecodable_bytes_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.obj"
    path.write_bytes(b"\xff\xfev 0 0 1\n")
    with pytest.raises(ParseError, match="byte 0"):
        import_obj(path)
    assert main(["analyze", "-i", str(path)]) == 3
    assert "byte 0" in capsys.readouterr().err


def test_obj_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "c.obj"
    path.write_text(
        "# header\n\nv 0 0 1\nv 1 0 0\nv 0 1 0\n# body\nf 1 2 3\n"
    )
    mesh = import_obj(path, allow_open=True)
    assert mesh.counts == (3, 3, 1)


def test_schedule_counts_and_labels(sphere_21):
    sched = strut_schedule(sphere_21)
    assert len(sched.nodes) == 72
    assert len(sched.struts) == 210
    assert sched.radius == 1.0
    labels = {s[4] for s in sched.struts}
    assert labels == {0, 1, 2, 3}
    by_class = [0] * len(sched.classes)
    for _, _, _, _, label in sched.struts:
        by_class[label] += 1
    assert by_class == [count for _, count in sched.classes]


def test_schedule_without_a_circumsphere_scales_by_mean_vertex_distance(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(STRETCHED_TETRA_OBJ)
    P = import_obj(path)
    assert P.radius is None
    sched = strut_schedule(P)
    assert sched.radius == float(np.linalg.norm(P.vertices, axis=1).mean())
    for _, a, b, chord, _ in sched.struts:
        length = np.linalg.norm(P.vertices[a] - P.vertices[b])
        assert chord * sched.radius == pytest.approx(length, rel=1e-12, abs=0.0)


def test_schedule_json_stable_and_shaped(sphere_21, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    export_schedule(sphere_21, p1)
    export_schedule(sphere_21, p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert list(data) == ["radius", "nodes", "struts", "classes"]
    assert list(data["nodes"][0]) == ["id", "x", "y", "z"]
    assert list(data["struts"][0]) == ["id", "a", "b", "chord_factor", "class_label"]
    assert list(data["classes"][0]) == ["chord_factor", "count"]
    assert len(data["nodes"]) == 72
    assert len(data["struts"]) == 210


def _schedule_doc(P, tol=DEFAULT_TOL):
    """The document export_schedule writes, built here from strut_schedule."""
    s = strut_schedule(P, tol)
    return {
        "radius": s.radius,
        "nodes": [{"id": i, "x": x, "y": y, "z": z} for i, x, y, z in s.nodes],
        "struts": [
            {"id": k, "a": a, "b": b, "chord_factor": c, "class_label": g}
            for k, a, b, c, g in s.struts
        ],
        "classes": [{"chord_factor": c, "count": n} for c, n in s.classes],
    }


def test_schedule_bytes_are_json_dumps_indent_2(sphere_21, make_sphere, tmp_path):
    mirror = mirrored(project_to_sphere(subdivide(seed("octahedron"), 2, 0)))
    meshes = [
        sphere_21,
        make_sphere(10, 6),
        truncate_dome(make_sphere(3, 1, vertex_up=True), 0.5),
        make_sphere(2, 0, radius=2),
        mirror,
    ]
    path = tmp_path / "s.json"
    for i, P in enumerate(meshes):
        for tol in (DEFAULT_TOL, 1e-3):
            export_schedule(P, path, tol)
            assert path.read_text() == json.dumps(_schedule_doc(P, tol), indent=2) + "\n", (i, tol)
    assert '"x": -0.0,' in path.read_text()


def _obj_text(P):
    """The OBJ file export_obj writes, formatted here as one string."""
    he = P._half_edges
    f_line = ["f" + " %d" * k for k in range(int(he.size.max()) + 1)]
    lines = ["v %.17g %.17g %.17g"] * len(P.vertices) + [f_line[k] for k in he.size.tolist()]
    values = P.vertices.ravel().tolist() + (he.tail + 1).tolist()
    return "\n".join(lines) % tuple(values) + "\n"


@pytest.mark.parametrize("rows", [1, 6, 7])
def test_writers_write_the_same_bytes_in_any_slice_size(rows, sphere_21, monkeypatch, tmp_path):
    # 6 splits the 72 nodes and 210 struts of sphere_21 and the dual's 72 faces exactly,
    # 7 the dual's 140 vertices; the dual's mixed 5- and 6-gons end slices mid-corner-run
    monkeypatch.setattr(geodome.io, "_ROWS", rows)
    path = tmp_path / "out"
    for P in (sphere_21, dual(sphere_21)):
        export_schedule(P, path)
        assert path.read_text() == json.dumps(_schedule_doc(P), indent=2) + "\n"
        export_obj(P, path)
        assert path.read_text() == _obj_text(P)
    up = project_to_sphere(subdivide(seed("icosahedron", vertex_up=True), 2, 1))
    pinned = Path(__file__).parent / "data" / "pinned"
    for name, M in (("icosa_21_up", up), ("icosa_21_up_dome50", truncate_dome(up, 0.5))):
        for suffix, write in ((".obj", export_obj), ("_schedule.json", export_schedule)):
            write(M, path)
            assert path.read_bytes() == (pinned / (name + suffix)).read_bytes(), (name, suffix)


def test_writers_peak_below_three_quarters_of_their_file(make_sphere, tmp_path):
    # formatted as one string, the schedule peaks at 3.2 times its file and the OBJ at 6;
    # written in slices, each needs its arrays and one slice of rows (0.49 and 0.53 here)
    import tracemalloc

    P = make_sphere(28, 0)  # 7842 nodes, 23520 struts and 15680 faces: many slices each
    for write in (export_schedule, export_obj):
        path = tmp_path / write.__name__
        tracemalloc.start()
        try:
            write(P, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * path.stat().st_size, write.__name__


def test_schedule_refuses_a_bad_tol_before_it_opens_the_file(sphere_21, tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(b"an earlier schedule\n")
    with pytest.raises(ValueError, match="tol must be positive"):
        export_schedule(sphere_21, path, tol=-1.0)
    assert path.read_bytes() == b"an earlier schedule\n"


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-2, 3e-2])
def test_analysis_rows_count_face_kinds_like_face_metrics(tol, sphere_2v, sphere_21):
    meshes = [sphere_2v, sphere_21, gemmate(seed("dodecahedron")), truncate_dome(sphere_21, 0.5)]
    for i, P in enumerate(meshes):
        rows = dict(analysis_rows(P, tol))
        kinds = Counter(m.kind for m in face_metrics(P, tol))
        for kind in ("equilateral", "isosceles", "scalene"):
            count = rows[f"{kind}_faces"]
            assert type(count) is int and count == kinds[kind], (i, kind)


def test_analysis_rows_and_csv(sphere_2v, tmp_path):
    rows = analysis_rows(sphere_2v)
    table = dict(rows)
    assert table["vertices"] == 42
    assert table["edges"] == 120
    assert table["faces"] == 80
    assert table["euler_characteristic"] == 2
    assert table["degree_5_vertices"] == 12
    assert table["degree_6_vertices"] == 30
    assert table["edge_classes"] == 2
    assert table["equilateral_faces"] + table["isosceles_faces"] + table["scalene_faces"] == 80
    path = tmp_path / "t.csv"
    export_analysis_csv(sphere_2v, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["quantity", "value"]
    assert len(got) == len(rows) + 1


def test_cli_generate_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "s.obj"
    assert main(["generate", "--seed", "icosahedron", "--m", "2", "--n", "1",
                 "-o", str(out)]) == 0
    assert main(["analyze", "-i", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vertices" in text and "72" in text
    assert "edge_classes" in text


def test_cli_pipeline_dual_truncate_rigidity(tmp_path, capsys):
    sphere = tmp_path / "s.obj"
    dome = tmp_path / "d.obj"
    dual_obj = tmp_path / "g.obj"
    assert main(["generate", "--m", "2", "--vertex-up", "-o", str(sphere)]) == 0
    assert main(["truncate", "-i", str(sphere), "--fraction", "0.5",
                 "-o", str(dome)]) == 0
    assert main(["analyze", "-i", str(dome), "--open"]) == 0
    assert "closed" in capsys.readouterr().out
    assert main(["dual", "-i", str(sphere), "-o", str(dual_obj)]) == 0
    assert main(["rigidity", "-i", str(sphere)]) == 0
    assert "rigid          True" in capsys.readouterr().out
    # the dual has no circumsphere; every command scales it by its mean vertex distance
    assert import_obj(dual_obj).radius is None
    gemmated, dual_dome = tmp_path / "gg.obj", tmp_path / "gd.obj"
    assert main(["gemmate", "-i", str(dual_obj), "-o", str(gemmated)]) == 0
    assert main(["truncate", "-i", str(dual_obj), "--fraction", "0.5",
                 "-o", str(dual_dome)]) == 0
    assert main(["analyze", "-i", str(dual_dome), "--open"]) == 0
    assert main(["export", "-i", str(dual_obj), "--format", "json",
                 "-o", str(tmp_path / "g.json")]) == 0
    capsys.readouterr()
    # dual keeps its polarity rule: the gemmated dual has no canonical sphere
    assert main(["dual", "-i", str(gemmated), "-o", str(tmp_path / "x.obj")]) == 2
    assert "no canonical polarity sphere" in capsys.readouterr().err


def test_cli_stepping_and_gemmate(tmp_path):
    stepped = tmp_path / "s4.obj"
    assert main(["generate", "--m", "4", "--stepping", "-o", str(stepped)]) == 0
    pentakis = tmp_path / "pk.obj"
    dodeca = tmp_path / "dod.obj"
    assert main(["generate", "--seed", "dodecahedron", "-o", str(dodeca)]) == 0
    assert main(["gemmate", "-i", str(dodeca), "-o", str(pentakis)]) == 0
    assert import_obj(pentakis).counts == (32, 90, 60)


def test_cli_export_formats(tmp_path):
    sphere = tmp_path / "s.obj"
    main(["generate", "--m", "2", "-o", str(sphere)])
    for fmt, name in (("obj", "o.obj"), ("json", "o.json"), ("csv", "o.csv")):
        target = tmp_path / name
        assert main(["export", "-i", str(sphere), "--format", fmt,
                     "-o", str(target)]) == 0
        assert target.stat().st_size > 0
    data = json.loads((tmp_path / "o.json").read_text())
    assert len(data["nodes"]) == 42


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0\n")
    assert main(["analyze", "-i", str(bad)]) == 3
    assert main(["analyze", "-i", str(tmp_path / "missing.obj")]) == 3
    sphere = tmp_path / "s.obj"
    main(["generate", "--m", "2", "-o", str(sphere)])
    dome = tmp_path / "dome.obj"
    main(["truncate", "-i", str(sphere), "--fraction", "0.5", "-o", str(dome)])
    assert main(["analyze", "-i", str(dome)]) == 2
    assert main(["truncate", "-i", str(sphere), "--fraction", "2.0",
                 "-o", str(tmp_path / "x.obj")]) == 2
    assert main(["generate", "--m", "3", "--stepping",
                 "-o", str(tmp_path / "x.obj")]) == 2
    assert main(["analyze", "-i", str(sphere), "--tol", "inf"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_exits_4_on_a_failed_invariant(tmp_path, capsys, monkeypatch):
    def broken(P, m, n):
        raise InvariantViolation("tile centroid on a seed vertex")

    assert issubclass(InvariantViolation, GeodomeError) and issubclass(InvariantViolation, AssertionError)
    monkeypatch.setattr("geodome.cli.subdivide", broken)
    assert main(["generate", "--m", "2", "-o", str(tmp_path / "s.obj")]) == 4
    assert capsys.readouterr().err == "error: tile centroid on a seed vertex\n"
    assert not (tmp_path / "s.obj").exists()


def test_cli_invalid_seed_choice():
    with pytest.raises(SystemExit) as err:
        main(["generate", "--seed", "cube", "-o", "x.obj"])
    assert err.value.code == 2


def test_cli_import_leaves_scipy_unloaded():
    # every CLI step is a fresh process, so an eager scipy import is paid on each
    env = dict(os.environ, PYTHONPATH=str(Path(geodome.__file__).parents[1]))
    code = "import geodome.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_rigidity_of_a_dome_leaves_scipy_unloaded(tmp_path):
    # a dome of at most 2000 bars takes the banded certificate, which needs no scipy
    sphere, dome = tmp_path / "sphere.obj", tmp_path / "dome.obj"
    assert main(["generate", "--vertex-up", "--m", "2", "-o", str(sphere)]) == 0
    assert main(["truncate", "-i", str(sphere), "--fraction", "0.5", "-o", str(dome)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(geodome.__file__).parents[1]))
    code = (
        "import sys; from geodome.cli import main; "
        f"code = main(['rigidity', '--open', '-i', {str(dome)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "rigid          False" in out.stdout
    assert out.stdout.splitlines()[-1] == "0 []"


def test_pipeline_leaves_numpy_ma_and_scipy_unloaded(tmp_path):
    # numpy.ma costs every process 12-25 ms to import; a plain np.unique(x) loads it
    env = dict(os.environ, PYTHONPATH=str(Path(geodome.__file__).parents[1]))
    code = f"""
import sys
from pathlib import Path
import geodome as g
out = Path({str(tmp_path)!r})
P = g.project_to_sphere(g.subdivide(g.seed("icosahedron", vertex_up=True), 3, 1))
D, dome = g.dual(P), g.truncate_dome(P, 0.5)
for M in (P, D, dome, g.truncate_dome(D, 0.5)):
    g.analysis_rows(M)
g.export_obj(D, out / "d.obj")
g.export_schedule(P, out / "s.json")
g.export_analysis_csv(dome, out / "a.csv")
g.import_obj(out / "d.obj")
assert g.combinatorially_isomorphic(P, g.mirrored(P)) and g.combinatorially_isomorphic(dome, dome)
assert g.detect_frequency(g.project_to_sphere(g.subdivide(g.seed("icosahedron"), 4, 0))) == 4
C = g.project_to_sphere(g.subdivide(g.seed("icosahedron", vertex_up=True), 1, 3))  # P's mirror image
assert g.congruent(g.mirrored(P), C) and g.congruent(P, C, allow_reflection=True)
assert g.is_infinitesimally_rigid(P).rigid and g.is_infinitesimally_rigid(dome).rank == len(dome.edges)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_under_python_O_writes_the_library_bytes(sphere_21, tmp_path):
    # -O strips assert statements: every check the commands rely on must raise on its own
    obj = tmp_path / "s.obj"
    export_obj(sphere_21, obj)
    export_schedule(sphere_21, tmp_path / "lib.json")
    export_analysis_csv(sphere_21, tmp_path / "lib.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(geodome.__file__).parents[1]))
    for args in (
        ["export", "-i", obj, "--format", "json", "-o", tmp_path / "cli.json"],
        ["analyze", "-i", obj, "--csv", tmp_path / "cli.csv"],
    ):
        cmd = [sys.executable, "-O", "-m", "geodome.cli", *map(str, args)]
        subprocess.run(cmd, env=env, capture_output=True, check=True)
    for name in ("json", "csv"):
        assert (tmp_path / f"cli.{name}").read_bytes() == (tmp_path / f"lib.{name}").read_bytes()
