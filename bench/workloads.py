"""The three workloads: job lists made from a seed, and how one job runs.

Importing this module imports numpy and geodome, so ``run.py`` imports it
inside the timed set-up.  A workload object holds the inputs made from the
seed (set-up), runs one job (timed) and hands its outputs to the oracle
(untimed).  The seed changes the inputs but not how much work they take.

- ``design``: large meshes through every transform, analysis and export.
- ``census``: many small spheres through counts, classes, congruence and
  dense rigidity.
- ``cli``: one ``python -m geodome.cli`` process per pipeline step.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import geodome as g
import oracle
from child import child_env

BENCH = Path(__file__).resolve().parent


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


# --- design ------------------------------------------------------------------

# One class I and one class III walk per pass, all with T = 196 at full size:
# the two classes differ in cost by about 10%, so every pass holds one of each
# and the seed picks which walk of each pair, the order, and the rotations.
DESIGN_WALKS = {
    "full": (((14, 0), (0, 14)), ((10, 6), (6, 10))),
    "tiny": (((3, 0), (0, 3)), ((2, 1), (1, 2))),
}
DESIGN_FRACTIONS = (0.375, 0.5, 0.625)


@dataclass(frozen=True, eq=False)
class DesignJob:
    walk: tuple[int, int]
    base: g.Mesh = field(repr=False)  # vertex-up icosahedron turned about z
    fractions: tuple[float, ...] = DESIGN_FRACTIONS


class Design:
    name = "design"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        ico = g.seed("icosahedron", vertex_up=True)
        walks = [pair[rng.integers(2)] for pair in DESIGN_WALKS[size]]
        rng.shuffle(walks)
        self.jobs = [
            DesignJob(tuple(w), g.rotated(ico, rotation_about_z(rng.uniform(0.0, 2.0 * math.pi))))
            for w in walks
        ]
        self.workdir = workdir

    def run(self, job: DesignJob, recorder=None) -> dict:
        out_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        P = g.project_to_sphere(g.subdivide(job.base, *job.walk))
        D = g.dual(P)
        DD = g.dual(D)
        domes = [g.truncate_dome(P, h) for h in job.fractions]
        rows = [g.analysis_rows(M) for M in [P] + domes]
        g.export_schedule(P, out_dir / "sphere.json")
        g.export_obj(P, out_dir / "sphere.obj")
        return {
            "sphere": P, "dual": D, "dual2": DD, "domes": domes, "rows": rows,
            "schedule": out_dir / "sphere.json", "obj": out_dir / "sphere.obj", "dir": out_dir,
        }

    def check(self, job: DesignJob, out: dict) -> list[str]:
        try:
            return oracle.check_design(job, out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)


# --- census ------------------------------------------------------------------

CENSUS_SIZES = {"full": (6, 3), "tiny": (3, 1)}  # (largest m + n, stepping levels)
LATTICE_SEEDS = ("tetrahedron", "octahedron", "icosahedron")
GEMMATE_SEEDS = ("dodecahedron", "truncated_icosahedron")
RIGIDITY_MAX_V = 400  # dense SVD of a (3V-6) x 3V matrix; larger spheres are skipped


@dataclass(frozen=True)
class CensusJob:
    kind: str
    what: str  # "lattice" | "stepping" | "gemmate"
    walk: tuple[int, int] = (1, 0)  # lattice walk, or (2**levels, 0) for stepping
    levels: int = 0

    @property
    def T(self) -> int:
        m, n = self.walk
        return m * m + m * n + n * n

    @property
    def frequency(self) -> int | None:
        """Expected detect_frequency of an icosahedral class I sphere."""
        m, n = self.walk
        return m + n if self.kind == "icosahedron" and self.what != "gemmate" and m * n == 0 else None


class Census:
    name = "census"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.bases = {
            kind: g.rotated(g.seed(kind), random_rotation(rng)) for kind in LATTICE_SEEDS + GEMMATE_SEEDS
        }
        top, levels = CENSUS_SIZES[size]
        jobs = [
            CensusJob(kind, "lattice", (m, s - m))
            for kind in LATTICE_SEEDS
            for s in range(1, top + 1)
            for m in range(s + 1)
        ]
        jobs += [CensusJob(k, "stepping", (2**lv, 0), lv) for k in LATTICE_SEEDS for lv in range(1, levels + 1)]
        jobs += [CensusJob(kind, "gemmate") for kind in GEMMATE_SEEDS]
        order = rng.permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self.verify_counts_disagree = 0

    def run(self, job: CensusJob, recorder=None) -> dict:
        base = self.bases[job.kind]
        if job.what == "gemmate":
            P = g.gemmate(base)
        elif job.what == "stepping":
            P = g.stepping_projection(base, job.levels)
        else:
            P = g.project_to_sphere(g.subdivide(base, *job.walk))
        out = {"mesh": P, "base": base, "classes": g.edge_length_classes(P)}
        if job.what != "gemmate":
            out["verify_counts"] = g.verify_counts(P, g.TessellationSpec(*job.walk))
        m, n = job.walk
        if job.what == "lattice" and m and n and m != n:
            Q = g.project_to_sphere(g.subdivide(base, n, m))
            out["partner"] = Q
            out["mirror_congruent"] = g.congruent(g.mirrored(P), Q)
            out["congruent"] = g.congruent(P, Q)
            out["isomorphic"] = g.combinatorially_isomorphic(P, Q)
        if job.frequency is not None:
            out["frequency"] = g.detect_frequency(P)
        if len(P.vertices) <= RIGIDITY_MAX_V:
            out["rigidity"] = g.is_infinitesimally_rigid(P)
        return out

    def check(self, job: CensusJob, out: dict) -> list[str]:
        problems, disagree = oracle.check_census(job, out)
        self.verify_counts_disagree += disagree
        return problems


# --- cli ---------------------------------------------------------------------

CLI_WALKS = {"full": ((7, 0), (0, 7), (5, 3), (3, 5)), "tiny": ((2, 0), (0, 2), (2, 1), (1, 2))}


def cli_steps(m: int, n: int) -> list[list[str]]:
    return [
        ["generate", "--vertex-up", "--m", str(m), "--n", str(n), "-o", "sphere.obj"],
        ["dual", "-i", "sphere.obj", "-o", "dual.obj"],
        ["truncate", "-i", "sphere.obj", "--fraction", "0.5", "-o", "dome.obj"],
        ["analyze", "-i", "sphere.obj", "--csv", "sphere.csv"],
        ["analyze", "--open", "-i", "dome.obj"],
        ["export", "-i", "sphere.obj", "--format", "json", "-o", "sphere.json"],
        ["rigidity", "--open", "-i", "dome.obj"],
        ["export", "--open", "-i", "dome.obj", "--format", "obj", "-o", "roundtrip.obj"],
    ]


@dataclass(frozen=True)
class CliJob:
    walk: tuple[int, int]


class Cli:
    name = "cli"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        walks = CLI_WALKS[size]
        self.jobs = [CliJob(walks[np.random.default_rng(seed).integers(len(walks))])]
        self.workdir = workdir
        self.env = child_env()

    def run(self, job: CliJob, recorder=None) -> dict:
        """Each step is its own process; with a recorder, each runs under the
        tracing launcher and its spans are adopted beneath a ``cli.subprocess``
        span covering the whole process lifetime."""
        out_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        codes, stdout, stderr = [], [], []
        for i, step in enumerate(cli_steps(*job.walk)):
            if recorder is None:
                argv = [sys.executable, "-m", "geodome.cli", *step]
            else:
                span_file = out_dir / f"spans-{i}.json"
                argv = [sys.executable, str(BENCH / "child.py"), "cli", str(span_file), *step]
                span = recorder.open("cli.subprocess")
            proc = subprocess.run(argv, cwd=out_dir, env=self.env, capture_output=True, text=True)
            if recorder is not None:
                recorder.close(span)
                if span_file.is_file():
                    recorder.adopt(json.loads(span_file.read_text()), span)
            codes.append(proc.returncode)
            stdout.append(proc.stdout)
            stderr.append(proc.stderr[-2000:])
        return {"codes": codes, "stdout": stdout, "stderr": stderr, "dir": out_dir}

    def check(self, job: CliJob, out: dict) -> list[str]:
        try:
            return oracle.check_cli(job, out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)


WORKLOADS = {"design": Design, "census": Census, "cli": Cli}


def warm_up(name: str, seed: int, workdir: Path) -> None:
    """Run the tiny job list once so lazy imports and caches are filled."""
    wl = WORKLOADS[name](seed, "tiny", workdir)
    for job in wl.jobs:
        wl.check(job, wl.run(job))
