"""In-process A/B timing of the census workload between two source trees.

    python3 tools/ab.py OLD_ROOT NEW_ROOT [--rounds N] [--seed S]

Copies the ``src/geodome`` of each tree into a temporary folder under its
own package name (``geodome_old``, ``geodome_new``), so both load into one
process, and builds one ``bench/workloads.Census`` per side from NEW_ROOT's
benchmark, with ``workloads.g`` bound to that side's package while it is
built and while it runs.  Each side first runs one untimed pass.  Then every
round runs one pass of each side, the order alternating from round to
round, and times every job as ``bench/run.py`` does; the oracle checks each
job's outputs outside the timing, and a failed check stops the run.

The report gives, per side, the median pass time, the median job time
(``job_s.p50`` over all rounds), and the rounds that side won on pass time
and on the round's median job time; then the new/old ratio of both medians.
One process running both sides removes start-up and machine drift from the
comparison, which the benchmark's separate runs cannot.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load(root: Path, name: str, into: Path):
    """root's src/geodome, copied into the folder into as the package name."""
    shutil.copytree(root.resolve() / "src" / "geodome", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def timed_pass(workloads, pkg, wl) -> list[float]:
    """Every job of one pass run with workloads.g bound to pkg; the job times.
    Each job's outputs are checked after its timing ends."""
    workloads.g = pkg
    times = []
    for job in wl.jobs:
        t0 = time.perf_counter()
        out = wl.run(job)
        times.append(time.perf_counter() - t0)
        problems = wl.check(job, out)
        if problems:
            raise SystemExit(f"{pkg.__name__}: job {job} failed its check: {problems[0]}")
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the reference source tree")
    parser.add_argument("new", type=Path, help="root of the source tree under test")
    parser.add_argument("--rounds", type=int, default=40, help="timed passes per side")
    parser.add_argument("--seed", type=int, default=1, help="seed of the census inputs")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = ("old", "new")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path[:0] = [tmp, str(args.new.resolve() / "bench")]
        pkgs = [load(root, f"geodome_{side}", Path(tmp)) for root, side in zip((args.old, args.new), sides)]
        sys.modules["geodome"] = pkgs[0]  # workloads imports geodome; g is rebound per side
        import workloads

        del sys.modules["geodome"]
        census = []
        for pkg in pkgs:
            workloads.g = pkg
            census.append(workloads.Census(args.seed, "full", Path(tmp)))
            timed_pass(workloads, pkg, census[-1])  # warm-up: imports and first-call paths
        passes, jobs = ([], []), ([], [])
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times = timed_pass(workloads, pkgs[i], census[i])
                passes[i].append(sum(times))
                jobs[i].append(times)
    pass_wins = [sum(a < b for a, b in zip(passes[i], passes[1 - i])) for i in (0, 1)]
    p50s = [[statistics.median(t) for t in jobs[i]] for i in (0, 1)]
    p50_wins = [sum(a < b for a, b in zip(p50s[i], p50s[1 - i])) for i in (0, 1)]
    pass_med = [statistics.median(passes[i]) for i in (0, 1)]
    job_med = [statistics.median([t for times in jobs[i] for t in times]) for i in (0, 1)]
    print(f"census, seed {args.seed}, {args.rounds} rounds, {len(census[0].jobs)} jobs per pass")
    for i, side in enumerate(sides):
        print(f"{side}: pass {1e3 * pass_med[i]:.2f} ms (won {pass_wins[i]}), "
              f"job p50 {1e3 * job_med[i]:.4f} ms (won {p50_wins[i]})")
    print(f"new/old: pass {pass_med[1] / pass_med[0]:.3f}, job p50 {job_med[1] / job_med[0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
