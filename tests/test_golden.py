"""Golden outputs: small meshes re-exported and compared with stored OBJ files.

Face lines must match exactly, which pins every face's start and winding,
including the ring order of dual faces.  Vertex coordinates must agree to
1e-12 of the circumradius (1 here), so the check holds across BLAS builds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from geodome import dual, export_obj, gemmate, project_to_sphere, seed, subdivide, truncate_dome

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
