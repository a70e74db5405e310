"""Independent correctness oracle: plain numpy and stdlib, no geodome checks.

Each check returns a list of problem strings; an empty list is a pass.  The
expectations come from counting laws and theorems, not from geodome:

- an (m, n) lattice on a seed with F0 triangles has F = F0*T faces,
  E = 3F/2 edges and V = E - F + 2 vertices (Euler);
- the polar dual swaps V and F, and the dual of the dual is the original;
- a higher dome cut keeps more faces;
- a strut schedule prices every edge exactly once;
- Dehn (1916): every convex closed simplicial polyhedron is infinitesimally
  rigid, so every closed projected sphere must be reported rigid;
- a class III (m, n) sphere is chiral, and its mirror image is (n, m);
- an OBJ file exported from what was imported is byte-identical.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

METRIC_EPS = 1e-9  # relative to the circumsphere radius
CLASS_TOL = 1e-9  # chord-factor gap that separates two strut classes

SEED_FACES = {"tetrahedron": 4, "octahedron": 8, "icosahedron": 20}


def edge_table(faces) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges (sorted pairs, lexicographic) and how many faces use each."""
    pairs = [(f[i], f[(i + 1) % len(f)]) for f in faces for i in range(len(f))]
    arr = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    return np.unique(arr, axis=0, return_counts=True)


def counts(vertices, faces) -> tuple[int, int, int]:
    return len(vertices), len(edge_table(faces)[0]), len(faces)


def count_laws(vertices, faces, f0: int, T: int, label: str) -> list[str]:
    v, e, f = counts(vertices, faces)
    if (f, 2 * e, v) != (f0 * T, 3 * f, e - f + 2):
        return [f"{label}: counts V={v} E={e} F={f} break F={f0}*{T}, E=3F/2, V=E-F+2"]
    return []


def on_sphere(vertices, radius: float, label: str) -> list[str]:
    worst = float(np.abs(np.linalg.norm(np.asarray(vertices), axis=1) - radius).max())
    return [] if worst <= METRIC_EPS * radius else [f"{label}: a vertex strays {worst:.3e} off the sphere"]


def class_count(vertices, faces, radius: float) -> int:
    """Number of chord-factor classes: sorted factors split at gaps over CLASS_TOL."""
    edges, _ = edge_table(faces)
    v = np.asarray(vertices)
    factors = np.sort(np.linalg.norm(v[edges[:, 0]] - v[edges[:, 1]], axis=1) / radius)
    return 1 + int(np.count_nonzero(np.diff(factors) > CLASS_TOL))


def dome_face_counts(vertices, faces, radius: float, fractions) -> list[int]:
    """Faces whose centroid height reaches the cut z = R(1 - 2h), per fraction."""
    heights = np.asarray(vertices) @ np.array([0.0, 0.0, 1.0])
    centroid = heights[np.asarray(faces)].mean(axis=1)
    return [int(np.count_nonzero(centroid >= radius * (1.0 - 2.0 * h))) for h in fractions]


def read_obj(path) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    verts, faces = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            verts.append([float(p) for p in parts[1:]])
        elif parts and parts[0] == "f":
            faces.append(tuple(int(p) - 1 for p in parts[1:]))
    return np.asarray(verts), faces


def schedule_classes(path, n_vertices: int, n_edges: int, label: str) -> list[str]:
    doc = json.loads(Path(path).read_text())
    total = sum(row["count"] for row in doc["classes"])
    if (len(doc["nodes"]), len(doc["struts"]), total) != (n_vertices, n_edges, n_edges):
        return [
            f"{label}: schedule has {len(doc['nodes'])} nodes, {len(doc['struts'])} struts and "
            f"class counts summing to {total}; expected V={n_vertices}, E={n_edges}"
        ]
    return []


def analysis_table(rows, vertices, faces, closed: bool, label: str) -> list[str]:
    """Rows of an analysis summary (quantity -> value) against the mesh itself."""
    table = {str(k): v for k, v in rows}
    edges, uses = edge_table(faces)
    v, e, f = len(vertices), len(edges), len(faces)
    expect = {"vertices": v, "edges": e, "faces": f, "boundary_edges": int(np.count_nonzero(uses == 1))}
    if closed:
        expect["euler_characteristic"] = 2
    got = {k: int(table[k]) for k in expect if k in table}
    problems = [] if got == expect else [f"{label}: analysis rows {got} != {expect}"]
    n_classes = int(table.get("edge_classes", 0))
    class_total = sum(int(table[f"class_{i}_count"]) for i in range(n_classes))
    if class_total != e:
        problems.append(f"{label}: {n_classes} edge classes count {class_total} struts, expected E={e}")
    return problems


def read_csv_rows(path) -> list[tuple[str, str]]:
    with open(path, newline="") as handle:
        return [tuple(row) for row in list(csv.reader(handle))[1:]]


def read_printed_rows(text: str) -> list[tuple[str, str]]:
    """`quantity  value` lines as printed by the CLI (columns split by 2+ spaces)."""
    rows = [re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in text.splitlines() if line.strip()]
    return [(row[0], row[1] if len(row) > 1 else "") for row in rows]


def bar_lengths(mesh) -> np.ndarray:
    v, edges = np.asarray(mesh.vertices), np.asarray(mesh.edges)
    return np.sort(np.linalg.norm(v[edges[:, 0]] - v[edges[:, 1]], axis=1))


# --- per-workload checks -----------------------------------------------------


def check_design(job, out) -> list[str]:
    """Sphere, dual pair, domes, analysis rows and exported files of one design job."""
    (m, n), radius, fractions = job.walk, 1.0, job.fractions
    T = m * m + m * n + n * n
    P = out["sphere"]
    v, e, f = counts(P.vertices, P.faces)
    problems = count_laws(P.vertices, P.faces, 20, T, f"sphere{job.walk}")
    problems += on_sphere(P.vertices, radius, "sphere")

    D, DD = out["dual"], out["dual2"]
    if counts(D.vertices, D.faces) != (f, e, v):
        problems.append(f"dual counts {counts(D.vertices, D.faces)} do not swap V/F of {(v, e, f)}")
    back = float(np.linalg.norm(np.asarray(DD.vertices) - np.asarray(P.vertices), axis=1).max())
    if len(DD.vertices) != v or back > METRIC_EPS * radius:
        problems.append(f"dual(dual(P)) vertices stray {back:.3e} from P")

    expected = dome_face_counts(P.vertices, P.faces, radius, fractions)
    got = [len(dome.faces) for dome in out["domes"]]
    if got != expected or any(a >= b for a, b in zip(got, got[1:])):
        problems.append(f"dome face counts {got} at {fractions}; expected rising {expected}")

    for label, mesh, rows in zip(
        ["sphere"] + [f"dome{h}" for h in fractions], [P] + out["domes"], out["rows"]
    ):
        problems += analysis_table(rows, mesh.vertices, mesh.faces, label == "sphere", label)
    problems += schedule_classes(out["schedule"], v, e, "sphere schedule")

    verts, faces = read_obj(out["obj"])
    if not np.array_equal(verts, np.asarray(P.vertices)) or faces != [tuple(x) for x in P.faces]:
        problems.append("exported OBJ does not reproduce the sphere exactly")
    return problems


def check_census(job, out) -> tuple[list[str], int]:
    """One census case; also returns 1 when verify_counts disagrees with the count laws."""
    P = out["mesh"]
    label = f"{job.kind} {job.what}"
    if job.what == "gemmate":
        base = out["base"]
        bv, be, bf = counts(base.vertices, base.faces)
        got = counts(P.vertices, P.faces)
        problems = [] if got == (bv + bf, 3 * be, 2 * be) else [
            f"{label}: counts {got}, expected (V+F, 3E, 2E) = {(bv + bf, 3 * be, 2 * be)}"
        ]
    else:
        problems = count_laws(P.vertices, P.faces, SEED_FACES[job.kind], job.T, label)
    laws_hold = not problems
    problems += on_sphere(P.vertices, P.radius, label)

    table = out["classes"]
    if sum(c for _, c in table.entries) != len(P.edges) or table.class_count != class_count(
        P.vertices, P.faces, P.radius
    ):
        problems.append(f"{label}: edge classes {table.entries} disagree with own clustering")

    disagree = 0
    if "verify_counts" in out:
        disagree = int(out["verify_counts"] != laws_hold)

    if "mirror_congruent" in out:
        Q = out["partner"]
        a, b = bar_lengths(P), bar_lengths(Q)
        if len(a) != len(b) or float(np.abs(a - b).max()) > METRIC_EPS * P.radius:
            problems.append(f"{label}: edge lengths differ from the (n, m) sphere")
        verdicts = (out["mirror_congruent"], out["congruent"], out["isomorphic"])
        if verdicts != (True, False, True):
            problems.append(
                f"{label}: (mirror congruent, congruent, isomorphic) to (n, m) = {verdicts}, "
                "expected (True, False, True)"
            )

    if "frequency" in out and out["frequency"] != job.frequency:
        problems.append(f"{label}: detected frequency {out['frequency']}, expected {job.frequency}")

    if "rigidity" in out:
        r = out["rigidity"]
        v = len(P.vertices)
        if (r.rigid, r.dof_cols, r.required_rank, r.edge_rows) != (True, 3 * v, 3 * v - 6, len(P.edges)):
            problems.append(f"{label}: closed convex sphere not reported rigid (Dehn): {r}")
    return problems, disagree


def check_cli(job, out) -> list[str]:
    """Exit codes, files and printed reports of one CLI pipeline."""
    bad = [(i + 1, code) for i, code in enumerate(out["codes"]) if code != 0]
    if bad:
        return [f"cli steps exited non-zero (step, code): {bad}; stderr: {out['stderr']}"]
    work = Path(out["dir"])
    (m, n) = job.walk
    T = m * m + m * n + n * n
    sv, sf = read_obj(work / "sphere.obj")
    v, e, f = counts(sv, sf)
    problems = count_laws(sv, sf, 20, T, f"cli sphere{job.walk}")
    problems += on_sphere(sv, 1.0, "cli sphere")

    dv, df = read_obj(work / "dual.obj")
    if counts(dv, df) != (f, e, v):
        problems.append(f"cli dual counts {counts(dv, df)} do not swap V/F of {(v, e, f)}")

    hv, hf = read_obj(work / "dome.obj")
    (expected,) = dome_face_counts(sv, sf, 1.0, (0.5,))
    if len(hf) != expected:
        problems.append(f"cli dome keeps {len(hf)} faces, expected {expected}")

    stdout = out["stdout"]
    problems += analysis_table(read_printed_rows(stdout[3]), sv, sf, True, "cli analyze sphere")
    problems += analysis_table(read_csv_rows(work / "sphere.csv"), sv, sf, True, "cli sphere csv")
    problems += analysis_table(read_printed_rows(stdout[4]), hv, hf, False, "cli analyze dome")
    problems += schedule_classes(work / "sphere.json", v, e, "cli schedule")

    rig = dict(read_printed_rows(stdout[6]))
    hv_n, he_n = len(hv), len(edge_table(hf)[0])
    # An open dome has fewer bars than 3V - 6, so it cannot be rigid.
    expect = {
        "edge rows": str(he_n),
        "dof columns": str(3 * hv_n),
        "required rank": str(3 * hv_n - 6),
        "rigid": "False",
    }
    if he_n >= 3 * hv_n - 6 or {k: rig.get(k) for k in expect} != expect:
        problems.append(f"cli rigidity report {rig}, expected {expect}")

    if (work / "roundtrip.obj").read_bytes() != (work / "dome.obj").read_bytes():
        problems.append("cli OBJ round trip of the dome is not byte-identical")
    return problems
