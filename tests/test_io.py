"""OBJ round-trips, strut schedules, CSV tables, and the command line."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodome

from geodome import (
    ParseError,
    analysis_rows,
    export_analysis_csv,
    export_obj,
    export_schedule,
    import_obj,
    strut_schedule,
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


def test_obj_import_detects_radius(sphere_21, tmp_path):
    path = tmp_path / "s.obj"
    export_obj(sphere_21, path)
    assert import_obj(path).radius == pytest.approx(1.0, abs=1e-12)


def test_obj_import_leaves_radius_unset_for_non_spheres(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(STRETCHED_TETRA_OBJ)
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


def test_schedule_requires_radius(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(STRETCHED_TETRA_OBJ)
    with pytest.raises(ValueError):
        strut_schedule(import_obj(path))


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
    # a dome has fewer than 3V - 6 bars, so it takes the dense SVD, which needs no scipy
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
