"""geodome benchmark: times whole workloads and, traced, each layer.

    python3 bench/run.py --workload {design,census,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The seed makes the inputs.  A
run repeats the workload's fixed job list (one *pass*) until ``--seconds``
would be exceeded, always finishing at least one pass, and checks every
job's outputs against the benchmark's own oracle (``oracle.py``).

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: median over passes of the time to run the job list (oracle
  checks excluded);
- ``job_s.p50``: median job time;
- ``job_s.tail``: job time at the highest percentile that leaves at least
  ten of one pass's jobs beyond it (the largest job time when a pass has ten
  jobs or fewer); the percentile and the job count are printed beside it,
  and ``pool.py`` pools job times over a check's runs;
- ``setup_s``: median of several set-ups (import geodome, build the seeded
  inputs, warm up on a tiny job list), each in a fresh interpreter but the
  last; for ``cli``, which runs no set-up before its jobs because every
  command pays its own import, it is the median time of
  ``python -m geodome.cli --help``;
- ``peak_rss_mb``: peak resident memory of this process (of the largest child
  process for ``cli``).

The failed-job ratio is printed as ``failed_ratio`` and carried by the
``attempted`` and ``failed`` fields of the result line; it is 0 on correct
code, so it is not a gated metric.

``--trace 1`` first runs untraced for half the time, then traced for the other
half, and prints per-layer metrics per pass: for every wrapped public
function ``M.F``, ``M.F.s`` (inclusive), ``M.F.self_s`` and ``M.F.calls``,
plus work counts, the tracing overhead (traced minus untraced ``wall_s``) and
the job time no layer span covers.  Spans are written to ``.bench_out/``.

The last line of standard output is the JSON result.  Results, job times and
run metadata (git SHA, CPU, library versions, BLAS threads, seed, source line
count) are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from child import child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("design", "census", "cli")  # workloads.WORKLOADS, which imports geodome
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

END_TO_END = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Public functions whose spans are reported; the wrapper covers every public
# function, these are the ones some workload calls inside its jobs.
TRACED = (
    "mesh.build_mesh", "mesh.seed", "mesh.mirrored",
    "tessellation.subdivide", "tessellation.project_to_sphere", "tessellation.stepping_projection",
    "transforms.dual", "transforms.gemmate", "transforms.truncate_dome",
    "analysis.verify_counts", "analysis.edge_length_classes", "analysis.edge_class_labels",
    "analysis.vertex_degree_histogram", "analysis.circumcenter_deviation", "analysis.face_metrics",
    "analysis.detect_frequency", "analysis.congruent", "analysis.combinatorially_isomorphic",
    "analysis.rigidity_matrix", "analysis.is_infinitesimally_rigid",
    "io.export_obj", "io.import_obj", "io.strut_schedule", "io.export_schedule",
    "io.analysis_rows", "io.export_analysis_csv",
    "cli.main", "cli.subprocess",
)
LAYER_COUNTS = {
    "mesh.build_mesh.faces": "count",
    "tessellation.subdivide.tiles": "count",
    "analysis.is_infinitesimally_rigid.dofs": "count",
    "analysis.verify_counts.disagree": "count",
    "io.bytes_read": "count",
    "io.bytes_written": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update(LAYER_COUNTS)
    return units


def python_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
    )


def timed_setup(name: str, seed: int, size: str, workdir: Path):
    """Import geodome, build the seeded inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, size, workdir)
    workloads.warm_up(name, seed, workdir)
    return wl, time.perf_counter() - start


def set_up(name: str, seed: int, size: str, workdir: Path):
    """The workload and its set-up time samples."""
    if name == "cli":
        import workloads

        samples = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            python_child(["-m", "geodome.cli", "--help"])
            samples.append(time.perf_counter() - start)
        return workloads.Cli(seed, size, workdir), samples
    samples = [
        float(python_child([str(BENCH / "child.py"), "setup", name, str(seed), size, str(workdir)]).stdout)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    wl, seconds = timed_setup(name, seed, size, workdir)
    return wl, samples + [seconds]


def measure(wl, seconds: float, recorder=None) -> dict:
    """Run passes of the job list until the next would end after `seconds`."""
    pass_times, job_times, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_time = 0.0
        for job in wl.jobs:
            if recorder is not None:
                recorder.job = attempted
                root = recorder.open("bench.job")
            t0 = time.perf_counter()
            try:
                out, job_problems = wl.run(job, recorder), None
            except Exception:
                job_problems = [traceback.format_exc(limit=4)]
            elapsed = time.perf_counter() - t0
            if recorder is not None:
                recorder.close(root)
            if job_problems is None:
                try:
                    job_problems = wl.check(job, out)
                except Exception:
                    job_problems = [traceback.format_exc(limit=4)]
            attempted += 1
            if job_problems:
                failed += 1
                problems += [f"job {attempted - 1} {job}: {p}" for p in job_problems]
            job_times.append(elapsed)
            pass_time += elapsed
        pass_times.append(pass_time)
        if time.perf_counter() - start + statistics.median(pass_times) > seconds:
            break
    return {
        "pass_times": pass_times,
        "job_times": job_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def tail_percentile(jobs_per_pass: int) -> float:
    """The highest percentile with at least ten of one pass's jobs beyond it.

    Fixing it from the job list, not from the run's job count, keeps the
    statistic the same however many passes fit in a run.  A list of ten jobs
    or fewer has no such percentile; the largest job time stands in for it.
    """
    return 100.0 * (jobs_per_pass - 10) / jobs_per_pass if jobs_per_pass > 10 else 100.0


def tail(times: list[float], percentile: float) -> float:
    """Nearest-rank percentile of the job times."""
    ordered = sorted(times)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)]


def import_time() -> float:
    """Median seconds of `import geodome.cli`, each in a fresh interpreter."""
    samples = [float(python_child([str(BENCH / "child.py"), "import"]).stdout) for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    sha = cpu = None
    try:  # a checkout may be no git repository, or have no git at hand
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "geodome").glob("*.py")))
    return {
        "git_sha": sha,
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
        "src_geodome_lines": lines,
    }


def layer_metrics(recorder: spans.Recorder, traced: dict, untraced: dict, wl) -> dict[str, float]:
    """Per-layer metrics per traced pass."""
    passes = len(traced["pass_times"])
    agg = spans.aggregate(recorder.spans)
    counts = spans.counts(recorder.spans)
    values = {}
    for name in TRACED:
        row = agg.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        values.update({f"{name}.{key}": row[key] / passes for key in ("s", "self_s", "calls")})
    values.update({key: counts.get(key, 0) / passes for key, _ in spans.COUNTS.values()})
    values["analysis.verify_counts.disagree"] = getattr(wl, "verify_counts_disagree", 0) / (
        len(traced["pass_times"]) + len(untraced["pass_times"])
    )
    values["cli.import_s"] = import_time()
    values["trace.overhead_s"] = statistics.median(traced["pass_times"]) - statistics.median(untraced["pass_times"])
    values["trace.unattributed_s"] = agg.get("bench.job", {"self_s": 0.0})["self_s"] / passes
    return values


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        wl, setup_samples = set_up(name, seed, size, workdir)
        import geodome

        if SRC.resolve() not in Path(geodome.__file__).resolve().parents:
            raise SystemExit(f"geodome was imported from {geodome.__file__}, not from {SRC}")
        if not trace:
            result = measure(wl, seconds)
            phases = [result]
        else:
            untraced = measure(wl, seconds / 2.0)
            recorder = spans.Recorder()
            installed = spans.Installed(geodome, recorder)
            try:
                traced = measure(wl, seconds / 2.0, recorder)
            finally:
                installed.remove()
            phases = [untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    job_times = [t for p in phases for t in p["job_times"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "jobs_per_pass": len(wl.jobs),
        "meta": metadata(seed),
        "setup_samples": setup_samples,
        "pass_times": [p["pass_times"] for p in phases],
        "job_times": [p["job_times"] for p in phases],
        "attempted": attempted,
        "failed": failed,
        "problems": [x for p in phases for x in p["problems"]][:50],
    }
    if not trace:
        percentile = tail_percentile(len(wl.jobs))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
        values = {
            "wall_s": statistics.median(result["pass_times"]),
            "job_s.p50": statistics.median(job_times),
            "job_s.tail": tail(job_times, percentile),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["tail"] = {"percentile": percentile, "jobs": len(job_times)}
    else:
        values = layer_metrics(recorder, traced, untraced, wl)
        units = per_layer_units()
        record["wall_s"] = {"untraced": untraced["pass_times"], "traced": traced["pass_times"]}
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(recorder.spans))
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    metrics = record["metrics"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {sum(len(p) for p in record['pass_times'])}  jobs {record['attempted']}  "
          f"({record['jobs_per_pass']} per pass)")
    for key, m in metrics.items():
        note = ""
        if key == "job_s.tail":
            t = record["tail"]
            largest = "; the largest, as a pass has ten jobs or fewer" if t["percentile"] == 100.0 else ""
            note = f"  (p{t['percentile']:.1f} of {t['jobs']} jobs{largest})"
        print(f"{key:<44} {m['value']:.6g} {m['unit']}{note}")
    ratio = record["failed"] / record["attempted"]
    print(f"{'failed_ratio':<44} {ratio:.6g} ratio  ({record['failed']} of {record['attempted']} jobs)")
    if record["trace"]:
        self_sum = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
        walls = record["wall_s"]
        print(f"layer self times sum to {self_sum:.4f} s per pass; wall_s traced "
              f"{statistics.median(walls['traced']):.4f} s, untraced {statistics.median(walls['untraced']):.4f} s")
    print("meta " + json.dumps(record["meta"]))
    for problem in record["problems"][:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny job lists, for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "geodome" / "__init__.py").is_file():
        print(f"error: no geodome source at {SRC / 'geodome'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
