"""The boundary contract, checked over the whole public API.

Every callable in geodome.__all__ is called once with valid arguments, then
once per wrong-kind value of each of its float, int and bool parameters.
Each such call must raise a TypeError, ValueError or GeodomeError whose
message names the parameter, never a message from inside numpy or Python.
"""

from __future__ import annotations

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import geodome
from geodome import GeodomeError

SRC = Path(__file__).resolve().parents[1] / "src" / "geodome"

# Records the library fills in itself, not entry points; build_mesh is the
# checked way to make a Mesh.
RECORDS = {
    "EdgeClassTable", "FaceMetric", "FlatTessellation", "GreatCircleSet", "Mesh",
    "RigidityReport", "StrutSchedule",
}

BAD_NUMBERS = ("1", math.nan, math.inf, True, np.True_)
BAD_FLAGS = ("no", 1, None)


def _valid_calls(
    tmp: Path, P: geodome.Mesh | None = None, polyhedron: geodome.Mesh | None = None
) -> dict[str, tuple[tuple, dict]]:
    """One call per public callable, (args, kwargs), that must succeed: on P,
    a triangular mesh (the icosahedron by default), and for gemmate on
    polyhedron, one without triangles (the dodecahedron by default)."""
    P = geodome.seed("icosahedron") if P is None else P
    polyhedron = geodome.seed("dodecahedron") if polyhedron is None else polyhedron
    obj = tmp / "mesh.obj"
    geodome.export_obj(P, obj)
    return {
        "verify_counts": ((P, geodome.TessellationSpec(1, 0)), {}),
        "edge_length_classes": ((P,), {}),
        "vertex_degree_histogram": ((P,), {}),
        "circumcenter_deviation": ((P,), {}),
        "face_metrics": ((P,), {}),
        "detect_frequency": ((P,), {}),
        "congruent": ((P, P), {}),
        "combinatorially_isomorphic": ((P, P), {}),
        "is_infinitesimally_rigid": ((P,), {}),
        "export_obj": ((P, tmp / "out.obj"), {}),
        "import_obj": ((obj,), {}),
        "strut_schedule": ((P,), {}),
        "export_schedule": ((P, tmp / "out.json"), {}),
        "analysis_rows": ((P,), {}),
        "export_analysis_csv": ((P, tmp / "out.csv"), {}),
        "build_mesh": ((P.vertices, P.faces), {}),
        "seed": (("icosahedron",), {}),
        "mirrored": ((P,), {}),
        "rotated": ((P, np.eye(3)), {}),
        "rotation_to_z": (((0.0, 0.0, 1.0),), {}),
        "TessellationSpec": ((2, 1), {}),
        "subdivide": ((P, 2, 1), {}),
        "project_to_sphere": ((geodome.subdivide(P, 2, 0),), {}),
        "stepping_projection": ((P, 1), {}),
        "great_circles": ((P,), {}),
        "schwarz_tiling": (("icosahedron",), {}),
        "dual": ((P,), {}),
        "gemmate": ((polyhedron,), {}),
        "truncate_dome": ((P, 0.5), {}),
    }


def _entry_points() -> list[str]:
    names = []
    for name in geodome.__all__:
        obj = getattr(geodome, name)
        if not callable(obj) or name in RECORDS:
            continue
        if isinstance(obj, type) and issubclass(obj, GeodomeError):
            continue
        names.append(name)
    return names


def _kind(annotation: object) -> tuple[str | None, bool]:
    """("float" | "int" | "bool" | None, whether None is allowed) of an annotation."""
    text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    parts = {part.strip() for part in text.split("|")}
    return next((k for k in ("bool", "int", "float") if k in parts), None), "None" in parts


def _bad_values(param: inspect.Parameter) -> tuple:
    kind, optional = _kind(param.annotation)
    if kind == "bool":
        return BAD_FLAGS
    if kind in ("int", "float"):
        return BAD_NUMBERS if optional else BAD_NUMBERS + (None,)
    return ()


def test_table_covers_every_entry_point(tmp_path):
    assert sorted(_valid_calls(tmp_path)) == sorted(_entry_points())


def test_every_number_and_flag_is_checked_at_the_boundary(tmp_path):
    calls = _valid_calls(tmp_path)
    checked = 0
    for name in _entry_points():
        fn = getattr(geodome, name)
        args, kwargs = calls[name]
        fn(*args, **kwargs)  # the base call is valid, so each error below is the parameter's
        signature = inspect.signature(fn)
        for param in signature.parameters.values():
            for bad in _bad_values(param):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound.arguments[param.name] = bad
                with pytest.raises((TypeError, ValueError, GeodomeError)) as caught:
                    fn(*bound.args, **bound.kwargs)
                message = str(caught.value)
                assert re.search(rf"\b{param.name}\b", message), (name, param.name, bad, message)
                checked += 1
    # 5 flags, 14 numbers that refuse None and 2 that accept it
    assert checked == 5 * len(BAD_FLAGS) + 14 * (len(BAD_NUMBERS) + 1) + 2 * len(BAD_NUMBERS)


# They read counts and degrees, not lengths, and want a tessellated sphere.
COUNT_ONLY = {"verify_counts", "detect_frequency"}


def test_every_call_accepts_a_mesh_without_a_circumsphere(tmp_path):
    # the mean vertex distance stands in for a missing circumsphere radius,
    # so no call refuses such a mesh: the pentakis dodecahedron everywhere,
    # and for gemmate a Goldberg dual (the dual of a T = 7 sphere)
    pentakis = geodome.dual(geodome.seed("truncated_icosahedron"))
    sphere = geodome.project_to_sphere(geodome.subdivide(geodome.seed("icosahedron"), 2, 1))
    goldberg = geodome.dual(sphere)
    assert pentakis.radius is None and goldberg.radius is None
    calls = _valid_calls(tmp_path, pentakis, goldberg)
    for name in sorted(set(calls) - COUNT_ONLY):
        args, kwargs = calls[name]
        getattr(geodome, name)(*args, **kwargs)


CLASSIFIERS = {
    "edge_length_classes", "face_metrics", "strut_schedule", "export_schedule",
    "analysis_rows", "export_analysis_csv",
}


def test_one_tolerance_type():
    # the classification tolerance is the only one a caller sets: a float
    # relative to the radius with one default; geometry checks and the rank
    # test use fixed constants
    tols = set()
    for name in _entry_points():
        for param in inspect.signature(getattr(geodome, name)).parameters.values():
            if param.name == "tol":
                tols.add(name)
                assert (param.annotation, param.default) == ("float", geodome.DEFAULT_TOL), name
            else:
                assert not re.search("tol|eps", param.name), (name, param.name)
    assert tols == CLASSIFIERS


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; invariants must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statement at lines {lines}"
