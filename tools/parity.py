"""Byte parity of the CLI between two source trees.

    python3 tools/parity.py OLD_ROOT NEW_ROOT [--keep DIR]

Runs the same corpus of ``python -m geodome.cli`` steps against the
``src/`` of each tree, one process per step, and lists every step whose
exit code, standard output or standard error differs, and every written
file whose bytes differ or that only one tree wrote.  Exits 0 when there is
no difference, 1 otherwise.  Each step runs in the tree's own working
directory with relative file names, so messages that quote a path match.

The corpus: for every walk in WALKS, seed in SEEDS and vertex-up on and off,
generate a sphere; take its dual; cut its 0.5 dome; analyze the sphere
(with ``--csv``) and the dome (``--open``); export the sphere as json and
obj; test the rigidity of the sphere and of the dome (``--open``), which
takes the banded certificate up to 2000 bars and the sparse one above (the
icosahedral (8, 0) sphere, 1920 bars, is the corpus's largest closed sphere
below that limit); and gemmate, analyze, export as json and cut the 0.5
dome of the dual.  The (24, 0) walk is there for the writers, which format
2048 rows at a time: its icosahedral sphere's 5762 nodes, 17280 struts and
11520 faces each span several slices, and so do its dual's.  A step that
fails is recorded like any other; later steps that read its missing output
fail too, the same way in both trees.
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


def corpus() -> list[list[str]]:
    """Every step's CLI arguments, in the order they must run."""
    steps = []
    for kind in SEEDS:
        for m, n in WALKS:
            for up in (False, True):
                s = f"{kind[:4]}-{m}-{n}{'-up' if up else ''}"
                gen = ["generate", "--seed", kind, "--m", str(m), "--n", str(n), "-o", f"{s}.obj"]
                steps += [
                    gen + ["--vertex-up"] * up,
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
                    ["truncate", "-i", f"{s}-dual.obj", "--fraction", "0.5",
                     "-o", f"{s}-dual-dome.obj"],
                ]
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
