"""Command-line front end.

Each subcommand returns its exit code and the body of its manifest
(``parameters``, ``result``, and ``seed`` where a run draws at random);
``dispatch`` adds ``subcommand``, ``tool_version`` and ``wall_time_s``
and prints the one JSON manifest of the run to stdout.  Human-readable
notes go to stderr, so scripts never parse prose.  A run that fails
before it has a result prints no manifest.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from functools import lru_cache

from . import __version__
from .compositions import block_coloring, completions, zero_lower_bound
from .core import SignFunction, is_transitive, monotone_violation, read_file, write_file
from .enumeration import SEARCH_EDGE_CAP, count_monotone, project, ramsey_number
from .errors import (
    InvalidArgument,
    InvalidEdge,
    InvalidWiring,
    NoReduction,
    ParseError,
    SignotopeError,
    TernaryNotAllowed,
    TooLarge,
)
from .geometry import render_svg, sweep_text, wiring_diagram
from .paths import longest_mono_paths
from .tower import TowerGroundSet

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _coloring_payload(c: SignFunction) -> dict:
    return {"r": c.r, "n": c.n, "colors": c.color_string()}


def _cmd_verify(args) -> tuple[int, dict]:
    c = read_file(args.infile)
    witness = monotone_violation(c)
    result = {
        "monotone": witness is None,
        "witness": list(witness) if witness else None,
        "transitive": is_transitive(c),
    }
    _note("monotone" if witness is None else f"not monotone: violating subset {witness}")
    code = EXIT_OK if witness is None else EXIT_VERIFY_FAILED
    return code, {"parameters": {"in": args.infile}, "result": result}


def _cmd_path(args) -> tuple[int, dict]:
    c = read_file(args.infile)
    rep = longest_mono_paths(c)
    records = [
        {"color": "-", "length": rep.best_minus, "witness": list(rep.witness_minus)},
        {"color": "+", "length": rep.best_plus, "witness": list(rep.witness_plus)},
    ]
    _note(f"longest minus path: {rep.best_minus} {rep.witness_minus}")
    _note(f"longest plus path:  {rep.best_plus} {rep.witness_plus}")
    return EXIT_OK, {"parameters": {"in": args.infile}, "result": {"paths": records}}


def _cmd_tower(args) -> tuple[int, dict]:
    ground = TowerGroundSet(args.r, args.n)
    coloring = ground.coloring()
    result = {
        "sizes": ground.sizes[1:],
        "vertices": ground.size,
        "edges": coloring.edge_count,
    }
    failed = False
    if args.verify:
        witness = monotone_violation(coloring)
        rep = longest_mono_paths(coloring)
        bound = 2 * args.n + args.r - 2
        result["monotone"] = witness is None
        result["witness"] = list(witness) if witness else None
        result["longest_paths"] = [rep.best_minus, rep.best_plus]
        result["path_bound"] = bound
        result["path_bound_ok"] = rep.best <= bound
        failed = witness is not None or rep.best > bound
    if args.emit:
        write_file(coloring, args.emit)
        result["emitted"] = args.emit
    _note(f"built coloring on {ground.size} vertices")
    params = {"r": args.r, "n": args.n, "verify": args.verify}
    return EXIT_VERIFY_FAILED if failed else EXIT_OK, {"parameters": params, "result": result}


def _parse_verify_mode(spec: str) -> tuple[str, int, int]:
    if spec == "all":
        return "all", 0, 0
    sample = re.fullmatch(r"sample:([0-9]+):([0-9]+)", spec)  # \d would take any Unicode digit
    if sample:
        try:
            return "sample", int(sample[1]), int(sample[2])
        except ValueError:  # more digits than int() converts
            raise InvalidArgument("verify mode sample:COUNT:SEED: number too long") from None
    raise InvalidArgument(f"bad verify mode {spec!r}; use all or sample:COUNT:SEED")


def _cmd_comp(args) -> tuple[int, dict]:
    ternary = block_coloring(args.r, args.h)
    result = {
        "n": ternary.n,
        "zeros": len(ternary.zero_positions),
        "transversal_zeros": len(ternary.transversal_zero_positions()),
        "zero_lower_bound": (
            zero_lower_bound(args.r, args.h) if args.h >= 2 else None
        ),
    }
    seed = None
    failed = False
    if args.verify:
        mode, count, seed_val = _parse_verify_mode(args.verify)
        seed = seed_val if mode == "sample" else None
        checked = 0
        bad = 0
        stream = completions(ternary, mode=mode, count=count, seed=seed_val)
        for candidate in stream:
            checked += 1
            if monotone_violation(candidate) is not None:
                bad += 1
        result["completions_checked"] = checked
        result["completions_non_monotone"] = bad
        failed = bad > 0
    if args.emit:
        write_file(ternary.fun, args.emit)
        result["emitted"] = args.emit
    _note(f"block coloring on {ternary.n} vertices, {result['zeros']} zeros")
    params = {"r": args.r, "h": args.h, "verify": args.verify}
    return (EXIT_VERIFY_FAILED if failed else EXIT_OK,
            {"parameters": params, "result": result, "seed": seed})


def _cmd_count(args) -> tuple[int, dict]:
    report = count_monotone(args.r, args.n, max_edges=args.max_edges,
                            max_nodes=args.max_nodes, workers=args.workers)
    result = {key: getattr(report, key)
              for key in ("count", "nodes", "exponent", "upper_exponent", "bounds_ok")}
    _note(f"{report.count} monotone colorings ({report.nodes} nodes)")
    code = EXIT_OK if report.bounds_ok else EXIT_VERIFY_FAILED
    return code, {"parameters": {"r": args.r, "n": args.n}, "result": result}


def _cmd_ramsey(args) -> tuple[int, dict]:
    report = ramsey_number(args.r, args.path, args.max,
                           max_edges=args.max_edges, max_nodes=args.max_nodes)
    result = {
        "number": report.number,
        "lower_bound": report.lower_bound,
        "nodes": report.nodes,
        "witness": _coloring_payload(report.witness) if report.witness else None,
    }
    if args.witness and report.witness is not None:
        write_file(report.witness, args.witness)
        result["witness_file"] = args.witness
    if report.number is None:
        _note(f"unresolved up to {args.max}: number is at least {report.lower_bound}")
    else:
        _note(f"number = {report.number}")
    params = {"r": args.r, "path": args.path, "max": args.max}
    return EXIT_OK, {"parameters": params, "result": result}


def _cmd_project(args) -> tuple[int, dict]:
    c = read_file(args.infile)
    p = project(c, args.i)
    write_file(p, args.out)
    _note(f"projected onto vertex {args.i}: r={p.r}, n={p.n}")
    params = {"in": args.infile, "i": args.i, "out": args.out}
    return EXIT_OK, {"parameters": params, "result": {"r": p.r, "n": p.n}}


def _cmd_wiring(args) -> tuple[int, dict]:
    c = read_file(args.infile)
    w = wiring_diagram(c)
    result = {"crossings": len(w.sweep)}
    if args.svg:
        with open(args.svg, "w", newline="\n") as fh:
            fh.write(render_svg(w))
        result["svg"] = args.svg
    if args.sweep:
        with open(args.sweep, "w", newline="\n") as fh:
            fh.write(sweep_text(w))
        result["sweep_file"] = args.sweep
    _note(f"swept {len(w.sweep)} crossings")
    return EXIT_OK, {"parameters": {"in": args.infile}, "result": result}


def _cmd_selftest(args) -> tuple[int, dict]:
    from .acceptance import run_criteria

    results = run_criteria(only=args.only, log=_note)
    passed = all(res.passed for res in results)
    result = {"criteria": [dataclasses.asdict(res) for res in results], "all_passed": passed}
    code = EXIT_OK if passed else EXIT_VERIFY_FAILED
    return code, {"parameters": {"only": args.only}, "result": result}


def _integer(text: str) -> int:
    """An integer option: ASCII digits after an optional minus, as the
    header and ``--verify`` parsers read them; ``int`` alone would take
    any Unicode decimal digit and surrounding whitespace."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so it is built once."""
    parser = argparse.ArgumentParser(
        prog="signotopes",
        description="Monotone colorings of ordered uniform hypergraphs",
        allow_abbrev=False,  # the ramsey --max flag must not clash with --max-*
    )
    parser.add_argument("--max-edges", type=_integer, default=SEARCH_EDGE_CAP,
                        help="edge cap for the count and ramsey searches (exit 3 beyond)")
    parser.add_argument("--max-nodes", type=_integer, default=None,
                        help="search node budget (exit 3 beyond)")
    parser.add_argument("--workers", type=_integer, default=1,
                        help="count jobs, run by at most as many processes as CPUs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a coloring file for monotonicity")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("path", help="longest monochromatic monotone paths")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("tower", help="build the tower coloring")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("comp", help="build the block coloring")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--h", type=_integer, required=True)
    p.add_argument("--verify", default=None, metavar="all|sample:K:SEED")
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_comp)

    p = sub.add_parser("count", help="count monotone colorings exactly")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ramsey", help="smallest N forcing a monochromatic path")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--path", type=_integer, required=True, help="path vertex count m")
    p.add_argument("--max", type=_integer, required=True)
    p.add_argument("--witness", default=None, help="persist the avoiding coloring")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("project", help="project onto a vertex")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--i", type=_integer, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("wiring", help="wiring diagram and SVG export")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--sweep", default=None)
    p.set_defaults(func=_cmd_wiring)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", type=_integer, default=None, help="run a single criterion")
    p.set_defaults(func=_cmd_selftest)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    start = time.perf_counter()
    try:
        code, body = args.func(args)
    except TooLarge as exc:
        _note(f"resource cap: {exc}")
        return EXIT_TOO_LARGE
    except (ParseError, InvalidArgument, InvalidEdge, NoReduction,
            InvalidWiring, TernaryNotAllowed, OSError) as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except SignotopeError as exc:  # NotMonotone, NotRealizable
        _note(f"verification failure: {exc}")
        return EXIT_VERIFY_FAILED
    manifest = {"subcommand": args.command, "seed": None, "tool_version": __version__, **body,
                "wall_time_s": round(time.perf_counter() - start, 6)}
    print(json.dumps(manifest, sort_keys=True))
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
