"""Mesh serialization: OBJ geometry, JSON strut schedules, CSV summaries.

All writers are deterministic: the same mesh always produces the same bytes,
and exporting what was just imported reproduces the file exactly (vertex
coordinates carry 17 significant digits, enough to round-trip a double).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    _check_tol,
    circumcenter_deviation,
    edge_class_labels,
    face_metrics,
    vertex_degree_histogram,
)
from .errors import ParseError
from .mesh import DEFAULT_TOL, Mesh, TolerancePolicy, _check_policy, _common_radius, _Cycles
from .mesh import _norms, build_mesh

__all__ = [
    "StrutSchedule",
    "export_obj",
    "import_obj",
    "strut_schedule",
    "export_schedule",
    "analysis_rows",
    "export_analysis_csv",
]


def export_obj(P: Mesh, path: str | Path) -> None:
    """Write vertices and faces as OBJ `v` and `f` lines (indices 1-based)."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in P.vertices]
    he = P._half_edges
    words = [str(i) for i in (he.tail + 1).tolist()]
    for a, b in zip(he.start.tolist(), (he.start + he.size).tolist()):
        lines.append("f " + " ".join(words[a:b]))
    Path(path).write_text("\n".join(lines) + "\n")


def _check_plain(line: str) -> None:
    """Refuse underscores and non-ASCII characters, which float() and int() read but OBJ lacks."""
    if "_" in line or not line.isascii():
        raise ValueError(f"underscore or non-ASCII character in {line.strip()!r}")


def import_obj(
    path: str | Path,
    *,
    allow_open: bool = False,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> Mesh:
    """Read the OBJ subset written by export_obj and validate it as a mesh.

    The file is UTF-8 text.  Only `v` and `f` lines are interpreted, and
    they must be ASCII without underscores; other lines are ignored.  Face
    indices are strictly positive 1-based integers.  A detected common
    distance of all vertices from the origin is recorded as the circumsphere
    radius.  Validation failures (from build_mesh) propagate; with
    allow_open=True boundary edges and a non-spherical Euler count are
    accepted.
    """
    _check_policy(tol)
    verts: list[tuple[float, float, float]] = []
    flat: list[int] = []
    sizes: list[int] = []
    tops: list[tuple[int, int]] = []  # (largest index, line) of every face
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) != 4:
                raise ParseError(f"line {ln}: expected 'v x y z'")
            try:
                _check_plain(raw)
                x, y, z = (float(p) for p in parts[1:])
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad coordinate ({exc})") from None
            if not all(math.isfinite(c) for c in (x, y, z)):
                raise ParseError(f"line {ln}: non-finite coordinate")
            verts.append((x, y, z))
        elif parts[0] == "f":
            if len(parts) < 4:
                raise ParseError(f"line {ln}: a face needs at least 3 indices")
            try:
                _check_plain(raw)
                idx = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise ParseError(f"line {ln}: face indices must be integers") from None
            if any(i < 1 for i in idx):
                raise ParseError(f"line {ln}: face indices are 1-based and positive")
            flat.extend(idx)
            sizes.append(len(idx))
            tops.append((max(idx), ln))
    if not verts or not sizes:
        raise ParseError(f"{path}: no mesh data found")
    for top, ln in tops:
        if top > len(verts):
            raise ParseError(f"line {ln}: face index {top} exceeds vertex count {len(verts)}")

    arr = np.asarray(verts)
    return build_mesh(
        arr,
        _Cycles(np.array(flat, dtype=np.intp) - 1, np.array(sizes, dtype=np.intp)),
        radius=_common_radius(np.linalg.norm(arr, axis=1), tol),
        closed=not allow_open,
        tol=tol,
    )


@dataclass(frozen=True)
class StrutSchedule:
    """Build sheet for a strut-and-node structure.

    Nodes are the mesh vertices; struts are the edges with their chord
    factor (length over circumsphere radius) and length-class label, and
    classes summarizes each label as (chord factor, count).
    """

    radius: float
    nodes: tuple[tuple[int, float, float, float], ...]
    struts: tuple[tuple[int, int, int, float, int], ...]  # id, node a, node b, chord, class
    classes: tuple[tuple[float, int], ...]


def strut_schedule(P: Mesh, tol: float = DEFAULT_TOL.metric_eps) -> StrutSchedule:
    """Schedule of an inscribed mesh: every edge priced by its length class."""
    if P.radius is None:
        raise ValueError("a strut schedule requires an inscribed mesh")
    table, labels = edge_class_labels(P, tol)
    nodes = tuple(zip(range(len(P.vertices)), *P.vertices.T.tolist()))
    a, b = P._half_edges.edges.T
    chords = _norms(P.vertices[a] - P.vertices[b]) / P.radius
    struts = tuple(zip(range(len(a)), a.tolist(), b.tolist(), chords.tolist(), labels))
    return StrutSchedule(
        radius=P.radius, nodes=nodes, struts=struts, classes=table.entries
    )


def export_schedule(P: Mesh, path: str | Path, tol: float = DEFAULT_TOL.metric_eps) -> None:
    """Write the strut schedule as JSON with a stable key order."""
    sched = strut_schedule(P, tol)
    doc = {
        "radius": sched.radius,
        "nodes": [
            {"id": i, "x": x, "y": y, "z": z} for i, x, y, z in sched.nodes
        ],
        "struts": [
            {"id": k, "a": a, "b": b, "chord_factor": c, "class_label": g}
            for k, a, b, c, g in sched.struts
        ],
        "classes": [
            {"chord_factor": c, "count": n} for c, n in sched.classes
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def analysis_rows(P: Mesh, tol: float = DEFAULT_TOL.metric_eps) -> list[tuple[str, object]]:
    """Quantity/value pairs summarizing a mesh, in a fixed order."""
    _check_tol(tol)
    he = P._half_edges
    v, s, f = P.counts
    rows: list[tuple[str, object]] = [
        ("vertices", v),
        ("edges", s),
        ("faces", f),
        ("euler_characteristic", v - s + f),
        ("closed", P.closed),
        ("boundary_edges", int(np.count_nonzero(he.uses == 1))),
        ("radius", P.radius if P.radius is not None else ""),
    ]
    for degree, count in vertex_degree_histogram(P).items():
        rows.append((f"degree_{degree}_vertices", count))
    if P.radius is not None:
        table, _ = edge_class_labels(P, tol)
        rows.append(("edge_classes", table.class_count))
        for i, (chord, count) in enumerate(table.entries):
            rows.append((f"class_{i}_chord_factor", chord))
            rows.append((f"class_{i}_count", count))
    if (he.size == 3).all():
        if P.radius is not None:
            rows.append(("circumcenter_deviation", circumcenter_deviation(P)))
        kinds = {"equilateral": 0, "isosceles": 0, "scalene": 0}
        for metric in face_metrics(P, tol):
            kinds[metric.kind] += 1
        for kind, count in kinds.items():
            rows.append((f"{kind}_faces", count))
    return rows


def _write_analysis_csv(rows: list[tuple[str, object]], path: str | Path) -> None:
    """Write analysis rows as a quantity,value CSV table."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([("quantity", "value"), *rows])


def export_analysis_csv(P: Mesh, path: str | Path, tol: float = DEFAULT_TOL.metric_eps) -> None:
    """Write the analysis summary as a quantity,value CSV table."""
    _write_analysis_csv(analysis_rows(P, tol), path)
