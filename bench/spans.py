"""In-memory span recorder that wraps geodome's public functions from outside.

Every public function ``F`` defined in module ``geodome.M`` (the names in the
module's ``__all__``) is replaced, wherever a geodome module holds a reference
to it, by a wrapper that records one span per call.  Sibling modules import
each other's functions by name (``geodome.transforms.build_mesh`` is
``geodome.mesh.build_mesh``), so patching every reference makes work nested
inside ``dual`` or ``project_to_sphere`` show up as child spans.

A span is ``[name, start, end, parent, job, count]``: ``parent`` is the index
of the enclosing span (-1 at the root), ``job`` the job id, and ``count`` an
optional number of work items the call handled (faces built, bytes written).
Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in a child process line up with the
parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("mesh", "tessellation", "transforms", "analysis", "io", "cli")


def _file_size(position: int):
    """Count: size of the file named by the call's path argument."""
    return lambda args, kwargs, out: os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])


# Span name -> (count name, function of (args, kwargs, result)).
COUNTS = {
    "mesh.build_mesh": ("mesh.build_mesh.faces", lambda a, k, out: len(out.faces)),
    "tessellation.subdivide": ("tessellation.subdivide.tiles", lambda a, k, out: len(out.small_faces)),
    "analysis.is_infinitesimally_rigid": (
        "analysis.is_infinitesimally_rigid.dofs",
        lambda a, k, out: out.dof_cols,
    ),
    "io.import_obj": ("io.bytes_read", _file_size(0)),
    "io.export_obj": ("io.bytes_written", _file_size(1)),
    "io.export_schedule": ("io.bytes_written", _file_size(1)),
    "io.export_analysis_csv": ("io.bytes_written", _file_size(1)),
}


class Recorder:
    """Collects spans of one process; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def open(self, name: str) -> int:
        """Start a span; returns its index for `close`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.spans[index][5] = count(args, kwargs, out)
            return out

        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under `parent`."""
        base = len(self.spans)
        for name, start, end, par, _job, count in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.job, count])


def public_functions(package) -> dict[str, object]:
    """Span name -> function, for every public function the layers define."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out[f"{layer}.{attr}"] = fn
    return out


class Installed:
    """Wrappers patched into a package; `remove` restores every reference."""

    def __init__(self, package, recorder: Recorder) -> None:
        functions = public_functions(package)
        names = {id(fn): name for name, fn in functions.items()}
        wrappers = {name: recorder.wrap(name, fn) for name, fn in functions.items()}
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        self._patched: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = names.get(id(value))
                if name is not None and functions[name] is value:
                    setattr(module, attr, wrappers[name])
                    self._patched.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive time `s`, self time `self_s`, `calls`.

    Self time is the span's duration minus the time its direct children
    cover.  Inclusive time counts only the outermost span of a name, so a
    function reached again beneath itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _job, _count) in enumerate(spans):
        row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out


def counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_rest, count in spans:
        if count is not None:
            key = COUNTS[name][0]
            out[key] = out.get(key, 0) + count
    return out
