"""Command line front end.

Subcommands compose through OBJ files: `generate` writes a sphere, the
transform commands read one OBJ and write another, and `analyze`,
`rigidity`, and `export` report on an existing file.  Exit codes: 0 on
success, 2 when a geometry or validation rule is violated, 3 on parse or
I/O failures, 4 when an internal invariant fails (a bug in geodome).

Arguments are parsed before numpy loads: this module imports only the
standard library and `errors`, and each command imports the layers it runs.
"""

from __future__ import annotations

import argparse
import sys

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


def _cmd_dual(args: argparse.Namespace) -> None:
    from .io import export_obj, import_obj
    from .transforms import dual

    export_obj(dual(import_obj(args.input)), args.output)


def _cmd_gemmate(args: argparse.Namespace) -> None:
    from .io import export_obj, import_obj
    from .transforms import gemmate

    export_obj(gemmate(import_obj(args.input)), args.output)


def _cmd_truncate(args: argparse.Namespace) -> None:
    from .io import export_obj, import_obj
    from .transforms import truncate_dome

    mesh = truncate_dome(import_obj(args.input), args.fraction, strict=args.strict)
    export_obj(mesh, args.output)


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
    elif args.format == "json":
        export_schedule(mesh, args.output, args.tol)
    else:
        export_analysis_csv(mesh, args.output, args.tol)


def _seed_kind(text: str) -> str:
    return text.replace("-", "_")


def _add_input(sub: argparse.ArgumentParser, allow_open: bool = False) -> None:
    sub.add_argument("-i", "--input", required=True, help="input OBJ file")
    if allow_open:
        sub.add_argument(
            "--open",
            dest="allow_open",
            action="store_true",
            help="accept an open shell (dome) as input",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodome",
        description="Build and analyze geodesic spheres, domes, and their duals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="tessellate a seed and project it")
    gen.add_argument("--seed", type=_seed_kind, choices=SEED_KINDS, default="icosahedron")
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
    gen.set_defaults(func=_cmd_generate)

    dua = commands.add_parser("dual", help="polar dual about the circumsphere")
    _add_input(dua)
    dua.add_argument("-o", "--output", required=True)
    dua.set_defaults(func=_cmd_dual)

    gem = commands.add_parser("gemmate", help="erect a pyramid on every face")
    _add_input(gem)
    gem.add_argument("-o", "--output", required=True)
    gem.set_defaults(func=_cmd_gemmate)

    tru = commands.add_parser("truncate", help="cut a dome off a sphere")
    _add_input(tru)
    tru.add_argument("--fraction", type=float, required=True, help="kept height fraction in (0, 1]")
    tru.add_argument("--strict", action="store_true", help="error if a kept face dips below the cut")
    tru.add_argument("-o", "--output", required=True)
    tru.set_defaults(func=_cmd_truncate)

    ana = commands.add_parser("analyze", help="print counts, classes, and face metrics")
    _add_input(ana, allow_open=True)
    ana.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="length classification tolerance")
    ana.add_argument("--csv", help="also write the table to this CSV file")
    ana.set_defaults(func=_cmd_analyze)

    rig = commands.add_parser("rigidity", help="rank test of the rigidity matrix")
    _add_input(rig, allow_open=True)
    rig.set_defaults(func=_cmd_rigidity)

    exp = commands.add_parser("export", help="rewrite a mesh as obj, json schedule, or csv")
    _add_input(exp, allow_open=True)
    exp.add_argument("--format", choices=("obj", "json", "csv"), required=True)
    exp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="length classification tolerance")
    exp.add_argument("-o", "--output", required=True)
    exp.set_defaults(func=_cmd_export)

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
