"""Command line front end.

Subcommands compose through OBJ files: `generate` writes a sphere, the
transform commands read one OBJ and write another, and `analyze`,
`rigidity`, and `export` report on an existing file.  Exit codes: 0 on
success, 2 when a geometry or validation rule is violated, 3 on parse or
I/O failures, 4 when an internal invariant fails (a bug in geodome).

Arguments are parsed before numpy loads: this module imports only the
standard library and `errors`, and each command imports the layers it runs.
`command` in `_build_parser` declares each subcommand and every shared flag.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .errors import DEFAULT_TOL, SEED_KINDS, GeodomeError, InvalidSpec, InvariantViolation
from .errors import ParseError

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> None:
    from .io import export_obj
    from .mesh import seed

    base = seed(args.seed, args.radius, vertex_up=args.vertex_up)
    if args.stepping:
        if args.n != 0 or args.m < 2 or args.m & (args.m - 1):
            raise InvalidSpec("--stepping needs n = 0 and m a power of two >= 2")
        from .tessellation import stepping_projection

        mesh = stepping_projection(base, args.m.bit_length() - 1)
    elif (args.m, args.n) == (1, 0):
        mesh = base
    else:
        from .tessellation import project_to_sphere, subdivide

        mesh = project_to_sphere(subdivide(base, args.m, args.n))
    export_obj(mesh, args.output)


def _cmd_transform(args: argparse.Namespace) -> None:
    from . import transforms
    from .io import export_obj, import_obj

    cut = {"height_fraction": args.fraction, "strict": args.strict} if "fraction" in args else {}
    export_obj(getattr(transforms, args.transform)(import_obj(args.input), **cut), args.output)


def _print_report(rows: list[tuple[str, object]]) -> None:
    width = max(len(quantity) for quantity, _ in rows)
    for quantity, value in rows:
        print(f"{quantity:<{width}}  {value}")


def _cmd_analyze(args: argparse.Namespace) -> None:
    from .io import _write_analysis_csv, analysis_rows, import_obj

    mesh = import_obj(args.input, allow_open=args.allow_open)
    rows = analysis_rows(mesh, args.tol)
    _print_report(rows)
    if args.csv:
        _write_analysis_csv(rows, args.csv)


def _cmd_rigidity(args: argparse.Namespace) -> None:
    from .analysis import is_infinitesimally_rigid
    from .io import import_obj

    report = is_infinitesimally_rigid(import_obj(args.input, allow_open=args.allow_open))
    _print_report([("edge rows", report.edge_rows), ("dof columns", report.dof_cols),
                   ("rank", report.rank), ("required rank", report.required_rank),
                   ("rigid", report.rigid)])


def _cmd_export(args: argparse.Namespace) -> None:
    from .io import export_analysis_csv, export_obj, export_schedule, import_obj

    mesh = import_obj(args.input, allow_open=args.allow_open)
    if args.format == "obj":
        export_obj(mesh, args.output)
    else:
        write = export_schedule if args.format == "json" else export_analysis_csv
        write(mesh, args.output, args.tol)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodome",
        description="Build and analyze geodesic spheres, domes, and their duals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    tol = dict(type=float, default=DEFAULT_TOL, help="length classification tolerance")

    def command(name: str, summary: str, func: Callable, reads: str | None = "closed",
                **defaults: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(func=func, **defaults)
        if reads is not None:
            sub.add_argument("-i", "--input", required=True, help="input OBJ file")
        if reads == "open":
            sub.add_argument(
                "--open",
                dest="allow_open",
                action="store_true",
                help="accept an open shell (dome) as input",
            )
        return sub

    gen = command("generate", "tessellate a seed and project it", _cmd_generate, reads=None)
    gen.add_argument("--seed", type=lambda kind: kind.replace("-", "_"), choices=SEED_KINDS,
                     default="icosahedron")
    gen.add_argument("--m", type=int, default=1)
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--radius", type=float, default=1.0)
    gen.add_argument(
        "--stepping",
        action="store_true",
        help="reach frequency m by repeated 2-fold subdivision and projection",
    )
    gen.add_argument(
        "--vertex-up",
        action="store_true",
        help="rotate the seed so a vertex points along +z before tessellating",
    )
    gen.add_argument("-o", "--output", required=True, help="output OBJ file")

    dua = command("dual", "polar dual about the circumsphere", _cmd_transform, transform="dual")
    dua.add_argument("-o", "--output", required=True)

    gem = command("gemmate", "erect a pyramid on every face", _cmd_transform, transform="gemmate")
    gem.add_argument("-o", "--output", required=True)

    tru = command("truncate", "cut a dome off a sphere", _cmd_transform, transform="truncate_dome")
    tru.add_argument("--fraction", type=float, required=True, help="kept height fraction in (0, 1]")
    tru.add_argument("--strict", action="store_true", help="error if a kept face dips below the cut")
    tru.add_argument("-o", "--output", required=True)

    ana = command("analyze", "print counts, classes, and face metrics", _cmd_analyze, "open")
    ana.add_argument("--tol", **tol)
    ana.add_argument("--csv", help="also write the table to this CSV file")

    command("rigidity", "rank test of the rigidity matrix", _cmd_rigidity, "open")

    exp = command("export", "rewrite a mesh as obj, json schedule, or csv", _cmd_export, "open")
    exp.add_argument("--format", choices=("obj", "json", "csv"), required=True)
    exp.add_argument("--tol", **tol)
    exp.add_argument("-o", "--output", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (GeodomeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, OSError)):
            return 3
        return 4 if isinstance(exc, InvariantViolation) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
