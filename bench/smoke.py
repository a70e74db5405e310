"""Fast self-check of the benchmark, on tiny job lists.

    python3 bench/smoke.py

For each workload, untraced and traced: the oracle passes on every job, and
the printed metric names and units are exactly those in ``BENCHMARK.json``.
A held-out seed must give the same job count as the seed the runs use, at
both sizes.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED, HELD_OUT = 101, 977


def expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        for name, cls in workloads.WORKLOADS.items():
            for size in ("tiny", "full"):
                counts = {len(cls(seed, size, work).jobs) for seed in (SEED, HELD_OUT)}
                check(len(counts) == 1, f"{name} {size}: job count differs by seed: {counts}")
            for trace in (0, 1):
                argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
                check(proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{name} trace {trace}: oracle failed: {proc.stderr[-2000:]}")
                units = {k: m["unit"] for k, m in result["metrics"].items()}
                check(units == expected_metrics(trace), f"{name} trace {trace}: metrics differ from BENCHMARK.json")
                print(f"smoke ok: {name} trace {trace}, {result['attempted']} jobs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
