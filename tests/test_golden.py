"""Golden outputs: small meshes re-exported and compared with stored files.

Face lines must match exactly, which pins every face's start and winding,
including the ring order of dual faces.  Vertex coordinates must agree to
1e-12 of the circumradius (1 here), so the check holds across BLAS builds.
The analysis CSV and strut schedule JSON follow the same rule: keys, labels
and integers exactly, floats to 1e-12.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from geodome import (
    dual,
    export_analysis_csv,
    export_obj,
    export_schedule,
    gemmate,
    project_to_sphere,
    seed,
    subdivide,
    truncate_dome,
)

DATA = Path(__file__).parent / "data"


def _sphere_21():
    return project_to_sphere(subdivide(seed("icosahedron", vertex_up=True), 2, 1))


CASES = {
    "icosa_21_up": _sphere_21,
    "icosa_21_up_dual": lambda: dual(_sphere_21()),
    "icosa_21_up_dome50": lambda: truncate_dome(_sphere_21(), 0.5),
    "dodecahedron": lambda: seed("dodecahedron"),
    "dodecahedron_gemmate": lambda: gemmate(seed("dodecahedron")),
}


def _read(path: Path) -> tuple[np.ndarray, list[str]]:
    lines = path.read_text().splitlines()
    verts = [[float(c) for c in ln.split()[1:]] for ln in lines if ln.startswith("v ")]
    return np.array(verts), [ln for ln in lines if ln.startswith("f ")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_obj_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.obj"
    export_obj(CASES[name](), path)
    verts, faces = _read(path)
    want_verts, want_faces = _read(DATA / f"{name}.obj")
    assert faces == want_faces
    np.testing.assert_allclose(verts, want_verts, rtol=0, atol=1e-12)


def _same(got, want) -> bool:
    """Equal structure, keys, strings, bools and integers; floats within 1e-12."""
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= 1e-12
    return type(got) is type(want) and got == want


def _csv_value(text: str) -> object:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list[list[object]]:
    with open(path, newline="") as handle:
        return [[q, _csv_value(v)] for q, v in csv.reader(handle)]


ANALYSIS_CASES = {
    "icosa_21_up_analysis.csv": (_sphere_21, export_analysis_csv, _read_csv),
    "icosa_21_up_dome50_analysis.csv": (CASES["icosa_21_up_dome50"], export_analysis_csv, _read_csv),
    "icosa_21_up_schedule.json": (_sphere_21, export_schedule, lambda p: json.loads(p.read_text())),
}


@pytest.mark.parametrize("name", sorted(ANALYSIS_CASES))
def test_analysis_matches_golden(name, tmp_path):
    build, export, read = ANALYSIS_CASES[name]
    export(build(), tmp_path / name)
    assert _same(read(tmp_path / name), read(DATA / name))


# The goldens above compare floats to 1e-12 so that they hold across BLAS builds.
# These files pin every byte instead: each float is written to its last bit, which
# a change of arithmetic order moves and a tolerance hides.  So they also pin this
# environment's numpy build; on another build, regenerate them once the goldens
# above pass.
@pytest.mark.parametrize("mesh", ["icosa_21_up", "icosa_21_up_dome50"])
@pytest.mark.parametrize("suffix, export", [(".obj", export_obj),
                                            ("_schedule.json", export_schedule),
                                            ("_analysis.csv", export_analysis_csv)])
def test_exports_match_pinned_bytes(mesh, suffix, export, tmp_path):
    name = mesh + suffix
    export(CASES[mesh](), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / "pinned" / name).read_bytes()
