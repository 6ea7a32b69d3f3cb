"""Batch command-line front end.

Each command is one row of ``COMMANDS``: its runner, help text, default
``--bound`` and carrier size, and its own options; ``build_parser``
builds every subcommand from the table and ``main`` calls its runner.

Exit status: 0 when every check passes, 1 when a check fails, checks
nothing (``EMPTY``) or an expression cannot be normalised, 2 for usage
errors (unknown names, malformed files, bad arguments).  Output is
deterministic: one CHECK line per diagram instance class, witnesses on
failure, then a summary with the worst verdict.
"""

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout

from .checks import CheckReport, check_monad_laws
from .errors import DistlawError, FileFormatError, IndexOrder, ShapeMismatch, UnknownGenerator
from .expr import parse_expr, tokenize
from .globular import free_ncat, load_gset, oracle_cells
from .laws import REGISTERED_LAWS
from .monads import ZOO
from .normalize import SERIES, THEORIES, format_normal, normalize_expr
from .series import (all_routes, check_distlaw, check_route_independence, check_yang_baxter,
                     compare_routes, compose_series, parse_route, validate_series)
from .terms import Carrier


class UsageError(Exception):
    pass


def _carrier(args):
    if args.names is not None:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
    else:
        names = Carrier.of_size(max(args.generators, 0)).names
    if not names or len(set(names)) != len(names):
        raise UsageError(f"the carrier needs one or more distinct generator names, got {list(names)}")
    return Carrier(names)


def _lookup(kind, table, name, has_all=False):
    """The entries of ``table`` that ``name`` selects: its own, or every one for ``all``."""
    if has_all and name == "all":
        return list(table.values())
    if name not in table:
        known = ", ".join([*table, "all"] if has_all else table)
        raise UsageError(f"unknown {kind} {name!r}; known: {known}")
    return [table[name]]


def _report(reports, summary, out):
    """Print each report's CHECK lines as it finishes, then ``<worst verdict>: <summary>``."""
    done = []
    for report in reports:
        for line in report.lines():
            print(line, file=out)
        done.append(report)
    verdict = CheckReport(summary, sections=done).verdict
    print(f"{verdict}: {summary}", file=out)
    return verdict == "PASS"


def cmd_laws(args, out):
    monads = _lookup("monad", ZOO, args.monad, has_all=True)
    carrier = _carrier(args)
    return _report((check_monad_laws(m, carrier, args.bound) for m in monads),
                   f"{len(monads)} monads", out)


def cmd_distlaw(args, out):
    laws = _lookup("law", REGISTERED_LAWS, args.law, has_all=True)
    carrier = _carrier(args)
    return _report((check_distlaw(law, carrier, args.bound) for law in laws),
                   f"{len(laws)} laws", out)


def cmd_yang_baxter(args, out):
    series, = _lookup("theory", SERIES, args.theory)
    carrier = _carrier(args)
    triples = series.triples()
    if not triples:
        raise UsageError(f"series {series.name} has {len(series)} monads; "
                         "a Yang-Baxter hexagon needs three")
    if args.triple:
        if tuple(args.triple) not in triples:
            raise UsageError(f"--triple needs {len(series)} >= I > J > K >= 1, got {args.triple}")
        triples = [tuple(args.triple)]
    return _report((check_yang_baxter(series, *t, carrier, args.bound) for t in triples),
                   f"{len(triples)} YB triples", out)


def cmd_series(args, out):
    series, = _lookup("theory", SERIES, args.theory)
    carrier = _carrier(args)
    return _report([validate_series(series, carrier, args.bound)],
                   f"{len(series)} monads, {len(series.pairs())} laws, "
                   f"{len(series.triples())} YB triples", out)


def cmd_routes(args, out):
    series, = _lookup("theory", SERIES, args.theory)
    carrier = _carrier(args)
    if args.route is None:
        return _report([check_route_independence(series, carrier, args.bound)],
                       f"{len(all_routes(len(series)))} routes agree", out)
    try:
        route = parse_route(args.route)
        compose_series(series, route)
    except (ValueError, ShapeMismatch, IndexOrder) as exc:
        raise UsageError(str(exc)) from None
    # the first bracketing is the reference; given itself, it meets the next one
    routes = all_routes(len(series))
    pair = routes[:2] if route == routes[0] else [routes[0], route]
    return _report([compare_routes(series, pair, carrier, args.bound)],
                   f"route {args.route.replace(' ', '')} agrees", out)


def cmd_normalize(args, out):
    _lookup("theory", THEORIES, args.theory)
    if args.names is not None:
        carrier = _carrier(args)
    else:
        seen = []
        for kind, value, _ in tokenize(args.expression):
            if kind == "IDENT" and value not in seen:
                seen.append(value)
        carrier = Carrier(tuple(sorted(seen)))
    ast = parse_expr(args.expression, carrier)
    print(format_normal(args.theory, normalize_expr(args.theory, ast)), file=out)
    return True


def cmd_ncat(args, out):
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            gset = load_gset(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    result = free_ncat(gset, args.bound)
    for dim, count in enumerate(result.counts()):
        print(f"dim {dim}: {count} cells", file=out)
    if args.command == "oracle-compare":
        oracle = oracle_cells(gset, args.bound)
        differ = [dim for dim, cells in oracle.items() if set(result.cells_at(dim)) != cells]
        if not differ:
            print("ORACLE MATCH", file=out)
            return True
        print(f"ORACLE MISMATCH: {[len(cells) for cells in oracle.values()]}, "
              f"cells differ in dimensions {differ}", file=out)
        return False
    return True


THEORY = {"--theory": dict(required=True)}
INPUT = {"--input": dict(required=True)}

# name: (runner, help, default --bound or None, default carrier size or None, own options)
COMMANDS = {
    "laws": (cmd_laws, "monad laws for zoo monads", 3, 2, {"--monad": dict(default="all")}),
    "distlaw": (cmd_distlaw, "coherence diagrams for registered laws", 3, 2,
                {"--law": dict(default="all")}),
    "yang-baxter": (cmd_yang_baxter, "hexagon checks for a series", 3, 1,
                    {**THEORY, "--triple": dict(type=int, nargs=3, metavar=("I", "J", "K"))}),
    "series": (cmd_series, "validate a whole distributive series", 3, 1, THEORY),
    "routes": (cmd_routes, "route independence of the composite", 2, 1,
               {**THEORY, "--route": dict(help="one bracketing to compare, e.g. ((1,2),3)")}),
    "normalize": (cmd_normalize, "canonical form of an expression", None, None,
                  {**THEORY, "--names": {}, "expression": {}}),
    "ncat": (cmd_ncat, "free n-category cell counts from a file", 2, None, INPUT),
    "oracle-compare": (cmd_ncat, "free n-category versus brute force", 2, None, INPUT),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distlaw",
        description="Check monad laws, distributive laws and Yang-Baxter "
                    "conditions; normalise expressions; build free n-categories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, bound, generators, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if generators is not None:
            p.add_argument("--generators", type=int, default=generators,
                           help=f"carrier size, names a, b, c, ... (default {generators})")
            p.add_argument("--names", help="explicit comma-separated generator names")
        if bound is not None:
            p.add_argument("--bound", type=int, default=bound)
    return parser


def main(argv=None, out=None, err=None):
    """Run one command; help goes to ``out``, usage and ``error:`` lines to ``err``."""
    out, err = out or sys.stdout, err or sys.stderr
    parser = build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if getattr(args, "bound", 0) < 0:
            raise UsageError(f"--bound must be non-negative, got {args.bound}")
        ok = args.run(args, out)
    except (UsageError, FileFormatError, UnknownGenerator) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except DistlawError as exc:
        print(f"error: {exc}", file=err)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
