"""Byte parity of the CLI between two source trees.

    python3 tools/parity.py OLD_ROOT NEW_ROOT [--keep DIR]

Runs the same corpus of ``python -m geodome.cli`` steps against the
``src/`` of each tree, one process per step, and lists every step whose
exit code, standard output or standard error differs, and every written
file whose bytes differ or that only one tree wrote.  Exits 0 when there is
no difference, 1 otherwise.  Each step runs in the tree's own working
directory with relative file names, so messages that quote a path match.

The corpus starts with steps that only parse: the usage text of ``--help``
and of ``--help`` on every subcommand, and the usage errors (exit code 2) of
an unknown seed, of a missing ``-o``, of a missing ``-i`` and of ``--open``
on ``dual``, which does not take it.  Then, for every walk in WALKS, seed in
SEEDS and vertex-up on and off, generate a sphere; take its dual; cut its
0.5 dome; analyze the sphere (with ``--csv``) and the dome (``--open``);
export the sphere as json and obj; test the rigidity of the sphere and of
the dome (``--open``), which takes the banded certificate up to 2000 bars
and the sparse one above (the icosahedral (8, 0) sphere, 1920 bars, is the
corpus's largest closed sphere below that limit); and gemmate, analyze,
export as json and cut the 0.5 dome of the dual.  The (24, 0) walk is there
for the writers, which format 2048 rows at a time: its icosahedral sphere's
5762 nodes, 17280 struts and 11520 faces each span several slices, and so
do its dual's.  The seeds in FACETED_SEEDS take no lattice walk: each, with
vertex-up on and off, is generated as it is, runs the same steps as a
sphere, and is gemmated.  A step that fails is recorded like any other;
later steps that read its missing output fail too, the same way in both
trees.  Last, each sphere in FLAG_SPHERES (a stepping, a radius-2 and
three plain icosahedral ones) runs the flags no other step passes: a
``--strict`` 0.5 cut, which holds on the vertex-up (2, 0) sphere and fails
without vertex-up, the csv export, and ``--tol 1e-3`` on ``analyze`` and on
the json export, which merges length classes of the (4, 0) sphere.
The report ends with the line count of each tree's ``src/geodome``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WALKS = ((7, 0), (0, 7), (5, 3), (3, 5), (2, 1), (8, 0), (14, 0), (24, 0))
SEEDS = ("tetrahedron", "octahedron", "icosahedron")
FACETED_SEEDS = ("dodecahedron", "truncated_icosahedron")  # built from the icosahedron
COMMANDS = ("generate", "dual", "gemmate", "truncate", "analyze", "rigidity", "export")
FLAG_SPHERES = (("step-4", ["--stepping", "--m", "4"]), ("r2", ["--radius", "2", "--m", "2"]),
                ("ico-4", ["--m", "4"]), ("ico-2", ["--m", "2"]),
                ("ico-2-up", ["--m", "2", "--vertex-up"]))


def sphere_steps(s: str) -> list[list[str]]:
    """The steps run on the sphere written to s.obj, file names prefixed with s."""
    return [
        ["dual", "-i", f"{s}.obj", "-o", f"{s}-dual.obj"],
        ["truncate", "-i", f"{s}.obj", "--fraction", "0.5", "-o", f"{s}-dome.obj"],
        ["analyze", "-i", f"{s}.obj", "--csv", f"{s}.csv"],
        ["analyze", "-i", f"{s}-dome.obj", "--open"],
        ["export", "-i", f"{s}.obj", "--format", "json", "-o", f"{s}.json"],
        ["export", "-i", f"{s}.obj", "--format", "obj", "-o", f"{s}-copy.obj"],
        ["rigidity", "-i", f"{s}.obj"],
        ["rigidity", "-i", f"{s}-dome.obj", "--open"],
        ["gemmate", "-i", f"{s}-dual.obj", "-o", f"{s}-dual-gem.obj"],
        ["analyze", "-i", f"{s}-dual.obj"],
        ["export", "-i", f"{s}-dual.obj", "--format", "json", "-o", f"{s}-dual.json"],
        ["truncate", "-i", f"{s}-dual.obj", "--fraction", "0.5", "-o", f"{s}-dual-dome.obj"],
    ]


def flag_steps(s: str) -> list[list[str]]:
    """The steps that pass the flags sphere_steps leaves out, run on the sphere in s.obj."""
    return [
        ["truncate", "-i", f"{s}.obj", "--fraction", "0.5", "--strict", "-o", f"{s}-strict.obj"],
        ["export", "-i", f"{s}.obj", "--format", "csv", "-o", f"{s}.csv"],
        ["analyze", "-i", f"{s}.obj", "--tol", "1e-3"],
        ["export", "-i", f"{s}.obj", "--format", "json", "--tol", "1e-3", "-o", f"{s}-tol.json"],
    ]


def corpus() -> list[list[str]]:
    """Every step's CLI arguments, in the order they must run."""
    steps = [["--help"], *([cmd, "--help"] for cmd in COMMANDS),
             ["generate", "--seed", "cube", "-o", "x.obj"], ["generate"],
             ["dual", "-o", "x.obj"], ["dual", "-i", "x.obj", "--open", "-o", "y.obj"]]
    for kind in SEEDS:
        for m, n in WALKS:
            for up in (False, True):
                s = f"{kind[:4]}-{m}-{n}{'-up' if up else ''}"
                gen = ["generate", "--seed", kind, "--m", str(m), "--n", str(n), "-o", f"{s}.obj"]
                steps += [gen + ["--vertex-up"] * up, *sphere_steps(s)]
    for kind in FACETED_SEEDS:
        for up in (False, True):
            s = f"{kind[:5]}{'-up' if up else ''}"
            steps += [["generate", "--seed", kind, "-o", f"{s}.obj"] + ["--vertex-up"] * up,
                      *sphere_steps(s), ["gemmate", "-i", f"{s}.obj", "-o", f"{s}-gem.obj"]]
    for s, flags in FLAG_SPHERES:
        steps += [["generate", *flags, "-o", f"{s}.obj"], *flag_steps(s)]
    return steps


def run_tree(root: Path, workdir: Path, steps: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of every step, run from workdir on root's src/."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    workdir.mkdir(parents=True)
    results = []
    for argv in steps:
        done = subprocess.run(
            [sys.executable, "-m", "geodome.cli", *argv],
            cwd=workdir, env=env, capture_output=True, check=False,
        )
        results.append((done.returncode, done.stdout, done.stderr))
    return results


def source_lines(root: Path) -> int:
    """Lines in the modules of root's src/geodome, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "geodome").rglob("*.py"))


def compare(steps: list[list[str]], old: list[tuple], new: list[tuple],
            old_dir: Path, new_dir: Path) -> list[str]:
    """One line per differing step output and per differing or one-sided file."""
    diffs = []
    for argv, a, b in zip(steps, old, new):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                diffs.append(f"{what} differs: geodome {' '.join(argv)}")
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            diffs.append(f"only in {'old' if a.exists() else 'new'}: {name}")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"bytes differ: {name}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the reference source tree")
    parser.add_argument("new", type=Path, help="root of the source tree under test")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    args = parser.parse_args(argv)
    steps = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep or Path(tmp)
        dirs = (base / "old", base / "new")
        with ThreadPoolExecutor(2) as pool:  # one step process per tree at a time
            old, new = pool.map(run_tree, (args.old, args.new), dirs, (steps, steps))
        diffs = compare(steps, old, new, *dirs)
        files = len(list(dirs[0].iterdir()))
    for line in diffs:
        print(line)
    failed = sum(code != 0 for code, _, _ in new)
    print(f"{len(steps)} steps ({failed} exit non-zero), {files} files: "
          f"{len(diffs)} difference(s)")
    print(f"src/geodome: {source_lines(args.old)} -> {source_lines(args.new)} lines")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
