"""Pool job times over many benchmark runs.

    python3 bench/pool.py [workload ...]

Reads every untraced result in ``.bench_out/`` and prints, per workload, the
median job time and the highest job time with at least ten jobs beyond it
over all pooled jobs, with its percentile and the sample count.  A single
run of ``design`` or ``cli`` has too few jobs for such a percentile; pooled
over a check's runs it has enough.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def main(argv: list[str]) -> int:
    pooled: dict[str, list[float]] = {}
    for path in sorted(OUT.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        pooled.setdefault(record["workload"], []).extend(t for phase in record["job_times"] for t in phase)
    for workload in argv or sorted(pooled):
        times = sorted(pooled.get(workload, []))
        if len(times) <= 10:
            print(f"{workload}: {len(times)} jobs, too few for a percentile with ten beyond")
            continue
        rank = len(times) - 11
        print(f"{workload}: {len(times)} jobs  p50 {statistics.median(times):.6g} s  "
              f"p{100.0 * (rank + 1) / len(times):.1f} {times[rank]:.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
