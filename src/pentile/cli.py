"""Command-line front end.

Subcommands tie the catalog, solver, tiling generator, verifier and
statistics together into reproducible runs. Angles are degrees at this
surface and radians inside; numeric output is rounded to nine significant
digits so identical configurations give identical bytes.

Exit codes: 0 success (property holds), 1 a checked property fails,
2 usage or input errors.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import arrangement, jsontext, render, stats, tiling, verifier
from .catalog import TYPE_IDS, get_type_spec, representative
from .errors import ParseError
from .pentagon import (
    Pentagon,
    pentagon_from_json_dict,
    satisfied_relations,
)

DEFAULT_TOL_DEG = 1e-4


def _emit(document, out_path: str | None, *files) -> None:
    """Write document to out_path, or to stdout without one, and each
    further (document, path) pair in files to its path. Text goes out as it
    is; anything else as strict JSON at nine significant digits. Every
    document is formatted, and every path opened, before anything is
    written, so a path that cannot be opened leaves stdout empty. A path
    that cannot be opened or written is a ParseError."""
    outputs = [(document, out_path), *files]
    texts = [doc if isinstance(doc, str) else jsontext.dumps(doc) + "\n"
             for doc, _ in outputs]
    with contextlib.ExitStack() as stack:
        streams = [_opened(path, stack) for _, path in outputs]
        for (_, path), stream, text in zip(outputs, streams, texts):
            if not path:
                stream.write(text)
                continue
            try:
                with stream:
                    stream.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {path}: {exc}") from None


def _opened(path: str | None, stack: contextlib.ExitStack):
    """path opened for writing and closed with stack; stdout without one."""
    if not path:
        return sys.stdout
    try:
        return stack.enter_context(open(path, "w"))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _load_json_file(path: str):
    """The parsed JSON in the file at path, for the library's document
    readers; ParseError when the file cannot be read or decoded."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:   # undecodable, too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _resolve_pentagon(args) -> Pentagon:
    if args.pentagon:
        return pentagon_from_json_dict(_load_json_file(args.pentagon))
    if args.type is not None:
        return representative(args.type).pentagon
    raise ParseError("give a pentagon with --pentagon FILE or --type ID")


def _resolve_recipe(args) -> tiling.TilingRecipe:
    if args.recipe:
        return tiling.load_recipe(_load_json_file(args.recipe))
    if args.type is None:
        raise ParseError("give a recipe with --recipe FILE or --type ID")
    return tiling.builtin_recipe(args.type, _resolve_pentagon(args))


def _resolve_patch(args, recipe=None) -> arrangement.Patch:
    """The --patch file when given, else a patch generated on the --r disk
    from `recipe` or the one the flags name."""
    if getattr(args, "patch", None):
        return arrangement.patch_from_json_dict(_load_json_file(args.patch))
    recipe = recipe or _resolve_recipe(args)
    if args.r is None:
        raise ParseError("give --r, the patch radius")
    return tiling.generate_patch(recipe, args.r)


def _equations(eqs) -> list[str]:
    return [eq.text.replace(" ", "") for eq in eqs]


def _spec_json(type_id: int) -> dict:
    spec = get_type_spec(type_id)
    rep = representative(type_id)
    return {
        "id": spec.id,
        "angle_equations": _equations(spec.angle_eqs),
        "edge_classes": ["=".join(cls) for cls in spec.edge_classes],
        "edge_equations": _equations(spec.edge_eqs),
        "degrees_of_freedom": spec.dof,
        "representative": {**rep.pentagon.to_json_dict(), "note": rep.note},
    }


def cmd_catalog(args) -> int:
    if args.action == "show" and args.id is None:
        raise ParseError("catalog show needs a Type id")
    if args.action == "list" and args.id is not None:
        raise ParseError("catalog list takes no Type id")
    if args.action == "list":
        specs = [get_type_spec(tid) for tid in TYPE_IDS]
        _emit([{"id": spec.id, "angle_equations": _equations(spec.angle_eqs),
                "degrees_of_freedom": spec.dof} for spec in specs], args.out)
        return 0
    _emit(_spec_json(args.id), args.out)
    return 0


def cmd_theorem1(args) -> int:
    pentagon = _resolve_pentagon(args)
    tol = math.radians(args.tol_deg)
    hits = satisfied_relations(pentagon, tol=tol)
    _emit({"satisfied": [rel.name for rel in hits],
           "holds": bool(hits),
           "tol_deg": args.tol_deg}, args.out)
    return 0 if hits else 1


def cmd_tile(args) -> int:
    recipe = _resolve_recipe(args)
    patch = _resolve_patch(args, recipe)
    document = jsontext.patch_document(patch)
    document["recipe"] = recipe.to_json_dict()
    svg = [(render.patch_to_svg(patch), args.svg)] if args.svg else []
    _emit(document, args.out, *svg)
    return 0


def cmd_verify(args) -> int:
    if args.patch:
        report = verifier.verify_patch(_resolve_patch(args))
    else:
        recipe = _resolve_recipe(args)
        report = verifier.check_periodicity(recipe)
        if args.r is not None:
            report = report.merge(verifier.verify_patch(
                _resolve_patch(args, recipe)))
    _emit({"pass": report.ok, "violations": report.violations,
           "metrics": report.metrics}, args.out)
    return 0 if report.ok else 1


def cmd_stats(args) -> int:
    patch = _resolve_patch(args)
    st = stats.compute_stats(patch, mode=args.mode)
    document = {
        "mode": st.mode, "r": st.r,
        "v": st.v, "e": st.e, "t": st.t,
        "t_h": {str(h): n for h, n in sorted(st.t_h.items())},
        "v_j": {str(j): n for j, n in sorted(st.v_j.items())},
        "average_valence": stats.average_valence(st),
        "average_adjacents": stats.average_adjacents(st),
    }
    if st.mode == stats.FULL:
        document["euler_residual"] = stats.euler_residual(st)
    _emit(document, args.out)
    return 0


def cmd_sweep(args) -> int:
    recipe = _resolve_recipe(args)
    radii = _parse_radii(args.radii)
    limit = stats.limit_sweep(recipe, radii)
    document = limit.to_json_dict()
    document["per_radius_balance_residual"] = (
        stats.per_radius_balance_residuals(limit))
    csv = []
    if args.csv:
        import io

        buffer = io.StringIO()
        stats.write_sweep_csv(limit, buffer)
        csv = [(buffer.getvalue(), args.csv)]
    _emit(document, args.out, *csv)
    return 0


def cmd_render(args) -> int:
    patch = _resolve_patch(args)
    _emit(render.patch_to_svg(patch), args.out)
    return 0


def _parse_radii(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParseError(f"bad radii list {text!r}; "
                         "expected comma-separated numbers") from None


# Flags by the input they give; each command names the groups it reads.
INPUT_FLAGS = {
    "pentagon": [("--type", dict(type=int, help="catalog Type id")),
                 ("--pentagon", dict(help="pentagon JSON file"))],
    "recipe": [("--recipe", dict(help="tiling recipe JSON file"))],
    "patch": [("--patch", dict(help="patch JSON file"))],
    "disk": [("--r", dict(type=float, help="patch disk radius"))],
}

# name, handler, help, input groups, the command's own flags
COMMANDS = [
    ("catalog", cmd_catalog, "list the 15 Types or show one", [],
     [("action", dict(choices=["list", "show"])),
      ("id", dict(type=int, nargs="?", help="Type id, required for show"))]),
    ("theorem1", cmd_theorem1,
     "which three-angle relations a pentagon satisfies", ["pentagon"],
     [("--tol-deg", dict(type=float, default=DEFAULT_TOL_DEG))]),
    ("tile", cmd_tile, "generate a patch as JSON",
     ["pentagon", "recipe", "disk"], [("--svg", {})]),
    ("verify", cmd_verify, "check recipe or patch health",
     ["pentagon", "recipe", "patch", "disk"], []),
    ("stats", cmd_stats, "count vertices, edges, tiles",
     ["pentagon", "recipe", "patch", "disk"],
     [("--mode", dict(choices=[stats.FULL, stats.INTERIOR],
                      default=stats.FULL))]),
    ("sweep", cmd_sweep, "limit statistics over growing radii",
     ["pentagon", "recipe"],
     [("--radii", dict(required=True,
                       help="comma-separated increasing radii")),
      ("--csv", {})]),
    ("render", cmd_render, "patch to SVG",
     ["pentagon", "recipe", "patch", "disk"], []),
]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they leave main like input errors."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pentile",
        description="Convex pentagon tilings: catalog, patches, statistics.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, groups, own in COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for flag, options in [f for g in groups for f in INPUT_FLAGS[g]] + own:
            sub.add_argument(flag, **options)
        sub.add_argument("--out")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command. Every exception, usage errors included, ends in
    exit 2 with a JSON error on stderr; a failed property is exit 1."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
