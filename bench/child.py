"""Child processes the benchmark starts, and the environment they get.

    child.py setup <workload> <seed> <size> <workdir>   print one set-up time
    child.py import                                     print the time of `import geodome.cli`
    child.py cli <spans.json> <geodome arguments...>    run one traced CLI command

Only the standard library is imported before each timed region.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def child_env() -> dict[str, str]:
    """This environment with the checkout's `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        start = time.perf_counter()
        import geodome.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    if mode == "setup":
        import run

        name, seed, size, workdir = rest
        _, seconds = run.timed_setup(name, int(seed), size, Path(workdir))
        print(seconds)
        return 0
    if mode == "cli":
        import json

        import spans

        recorder = spans.Recorder()
        import geodome
        import geodome.cli

        installed = spans.Installed(geodome, recorder)
        try:
            code = geodome.cli.main(rest[1:])
        finally:
            installed.remove()
            Path(rest[0]).write_text(json.dumps(recorder.spans))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
