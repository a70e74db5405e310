"""Mesh serialization: OBJ geometry, JSON strut schedules, CSV summaries.

All writers are deterministic: the same mesh always produces the same bytes,
and exporting what was just imported reproduces the file exactly (vertex
coordinates carry 17 significant digits, enough to round-trip a double).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .errors import ParseError
from .mesh import DEFAULT_TOL, Mesh, _common_radius, _Cycles, _flag, _lengths, _norms, _real
from .mesh import _scale, build_mesh

if TYPE_CHECKING:  # analysis loads only where a schedule or table needs it
    from .analysis import EdgeClassTable

__all__ = [
    "StrutSchedule",
    "export_obj",
    "import_obj",
    "strut_schedule",
    "export_schedule",
    "analysis_rows",
    "export_analysis_csv",
]


# Rows formatted per write: each slice of a column becomes a Python list on
# its own, so a writer's transient memory is one slice, not one file.
_ROWS = 2048


def export_obj(P: Mesh, path: str | Path) -> None:
    """Write vertices and faces as OBJ `v` and `f` lines (indices 1-based), _ROWS to a write."""
    he = P._half_edges
    f_line = ["f" + " %d" * k + "\n" for k in range(int(he.size.max()) + 1)]  # by face size
    with open(path, "w") as out:
        for a in range(0, len(P.vertices), _ROWS):
            xyz = P.vertices[a : a + _ROWS]
            out.write("v %.17g %.17g %.17g\n" * len(xyz) % tuple(xyz.ravel().tolist()))
        for a in range(0, len(he.size), _ROWS):
            sizes, lo = he.size[a : a + _ROWS], he.start[a]
            corners = he.tail[lo : lo + sizes.sum()] + 1
            out.write("".join([f_line[k] for k in sizes.tolist()]) % tuple(corners.tolist()))


def _check_plain(line: str) -> None:
    """Refuse underscores and non-ASCII characters, which float() and int() read but OBJ lacks."""
    if "_" in line or not line.isascii():
        raise ValueError(f"underscore or non-ASCII character in {line.strip()!r}")


def import_obj(path: str | Path, *, allow_open: bool = False) -> Mesh:
    """Read the OBJ subset written by export_obj and validate it as a mesh.

    The file is UTF-8 text.  Only `v` and `f` lines are interpreted, and
    they must be ASCII without underscores; other lines are ignored.  Face
    indices are strictly positive 1-based integers.  A common distance of
    all vertices from the origin, within DEFAULT_TOL of its size, is
    recorded as the circumsphere radius.  Validation failures (from
    build_mesh) propagate; with allow_open=True boundary edges and a
    non-spherical Euler count are accepted.
    """
    allow_open = _flag(allow_open, "allow_open")
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
        radius=_common_radius(_lengths(arr)),
        closed=not allow_open,
    )


@dataclass(frozen=True)
class StrutSchedule:
    """Build sheet for a strut-and-node structure.

    Nodes are the mesh vertices; struts are the edges with their chord
    factor (length over radius) and length-class label, and classes
    summarizes each label as (chord factor, count).  radius is the
    circumsphere radius, else the mean vertex distance from the origin.
    """

    radius: float
    nodes: tuple[tuple[int, float, float, float], ...]
    struts: tuple[tuple[int, int, int, float, int], ...]  # id, node a, node b, chord, class
    classes: tuple[tuple[float, int], ...]


def _struts(P: Mesh, tol: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, EdgeClassTable]:
    """Scale, chord factors, edge ends, class labels and class table of a mesh's struts."""
    from .analysis import _edge_class_labels

    table, labels = _edge_class_labels(P, tol)
    ends, scale = P._half_edges.edges, _scale(P)
    chords = _norms(P.vertices[ends[:, 0]] - P.vertices[ends[:, 1]]) / scale
    return scale, chords, ends, labels, table


def strut_schedule(P: Mesh, tol: float = DEFAULT_TOL) -> StrutSchedule:
    """Schedule of a mesh: every edge priced by its length class.

    A dome cut from a mesh with no circumsphere scales by its own vertices,
    so its chord factors differ from the full mesh's (by 1e-5 to 3e-5 for
    icosahedral (5, 3) half domes, 4e-3 for octahedral (2, 1)); radius x
    chord factor is still each strut's length.
    """
    scale, chords, ends, labels, table = _struts(P, tol)
    nodes = tuple(zip(range(len(P.vertices)), *P.vertices.T.tolist()))
    struts = tuple(zip(range(len(ends)), *ends.T.tolist(), chords.tolist(), labels.tolist()))
    return StrutSchedule(radius=scale, nodes=nodes, struts=struts, classes=table.entries)


# One row of each schedule list as json.dumps(indent=2) lays it out; %r is
# float.__repr__, the shortest round-trip digits json writes for a float, and
# the chord factor comes in already written that way.
_NODE_ROW = '    {\n      "id": %d,\n      "x": %r,\n      "y": %r,\n      "z": %r\n    }'
_STRUT_ROW = (
    '    {\n      "id": %d,\n      "a": %d,\n      "b": %d,\n'
    '      "chord_factor": %s,\n      "class_label": %d\n    }'
)
_CLASS_ROW = '    {\n      "chord_factor": %r,\n      "count": %d\n    }'
_SCHEDULE = (
    '{\n  "radius": %r,\n  "nodes": [\n',
    '\n  ],\n  "struts": [\n',
    '\n  ],\n  "classes": [\n',
    '\n  ]\n}\n',
)


def _json_rows(out: TextIO, head: str, row: str, columns: list) -> None:
    """Write head, then the inside of a JSON list: one filled-in row per
    entry of the columns, ",\\n" between rows, _ROWS rows to a write; numpy
    columns become lists one slice at a time."""
    out.write(head)
    for a in range(0, len(columns[0]), _ROWS):
        part = [c[a : a + _ROWS] for c in columns]
        part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
        text = ",\n".join([row] * len(part[0])) % tuple(chain.from_iterable(zip(*part)))
        out.write(",\n" + text if a else text)


def export_schedule(P: Mesh, path: str | Path, tol: float = DEFAULT_TOL) -> None:
    """Write the strut schedule as JSON with a stable key order.

    The text is exactly `json.dumps(doc, indent=2) + "\\n"` of the schedule
    as a document, floats written as their shortest round-trip repr (a test
    pins the bytes).  Fixed row templates fill it in several times faster
    than the pure-Python encoder that indent selects.  The file is opened once
    all is computed and tol checked, then written _ROWS rows at a time.
    """
    scale, chords, ends, labels, table = _struts(P, tol)
    # each distinct chord factor is written once; none is -0.0, which unique merges with 0.0
    distinct, which = np.unique(chords, return_inverse=True)
    chord_text = np.array(list(map(repr, distinct.tolist())), dtype=object)[which]
    with open(path, "w") as out:
        _json_rows(out, _SCHEDULE[0] % scale, _NODE_ROW, [range(len(P.vertices)), *P.vertices.T])
        _json_rows(out, _SCHEDULE[1], _STRUT_ROW, [range(len(ends)), *ends.T, chord_text, labels])
        _json_rows(out, _SCHEDULE[2], _CLASS_ROW, list(zip(*table.entries)))
        out.write(_SCHEDULE[3])


def analysis_rows(P: Mesh, tol: float = DEFAULT_TOL) -> list[tuple[str, object]]:
    """Quantity/value pairs summarizing a mesh, in a fixed order; the radius
    row is the length every chord factor divides by."""
    from .analysis import _edge_class_labels, _equal_legs, circumcenter_deviation
    from .analysis import vertex_degree_histogram

    tol = _real(tol, "tol")
    he = P._half_edges
    v, s, f = P.counts
    rows: list[tuple[str, object]] = [
        ("vertices", v),
        ("edges", s),
        ("faces", f),
        ("euler_characteristic", v - s + f),
        ("closed", P.closed),
        ("boundary_edges", int(np.count_nonzero(he.uses == 1))),
        ("radius", _scale(P)),
    ]
    for degree, count in vertex_degree_histogram(P).items():
        rows.append((f"degree_{degree}_vertices", count))
    table, _ = _edge_class_labels(P, tol)
    rows.append(("edge_classes", table.class_count))
    for i, (chord, count) in enumerate(table.entries):
        rows.append((f"class_{i}_chord_factor", chord))
        rows.append((f"class_{i}_count", count))
    if (he.size == 3).all():
        rows.append(("circumcenter_deviation", circumcenter_deviation(P)))
        # faces by how many corners sit between equal legs: 3, 1 or 2, and 0
        n_same = np.bincount(_equal_legs(P, tol)[3].sum(axis=1), minlength=4).tolist()
        rows.append(("equilateral_faces", n_same[3]))
        rows.append(("isosceles_faces", n_same[1] + n_same[2]))
        rows.append(("scalene_faces", n_same[0]))
    return rows


def _write_analysis_csv(rows: list[tuple[str, object]], path: str | Path) -> None:
    """Write analysis rows as a quantity,value CSV table."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([("quantity", "value"), *rows])


def export_analysis_csv(P: Mesh, path: str | Path, tol: float = DEFAULT_TOL) -> None:
    """Write the analysis summary as a quantity,value CSV table."""
    _write_analysis_csv(analysis_rows(P, tol), path)
