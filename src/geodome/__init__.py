"""Geodesic sphere toolkit.

Builds geodesic spheres from Platonic and Archimedean seeds by lattice
tessellation and central projection, derives Goldberg duals, pyramid
augmentations, and domes, and analyzes the results: strut schedules,
edge-length classes, symmetry circles, congruence, and rigidity.

The package loads lazily (PEP 562): ``import geodome`` imports no module,
and the first read of a public name imports the one that defines it and
binds the name here, as an eager ``from .module import *`` would have.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Searched in dependency order, so a name loads no module past its own.
_MODULES = ("errors", "mesh", "tessellation", "transforms", "analysis", "io")


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in sorted(_MODULES) for n in __getattr__(m).__all__]
    else:
        # a dunder probe (inspect, doctest) loads nothing
        modules = () if name.startswith("__") else map(__getattr__, _MODULES)
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, "__all__", *__getattr__("__all__")})
