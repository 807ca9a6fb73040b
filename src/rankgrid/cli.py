"""Command-line front end: solve, evaluate, construct, sweep, compare, draw.

Exit codes: 0 success, 1 usage or bad input, 2 budget exhausted (an interval
is still printed), 3 internal invariant violation (a construction failed its
own verifier; this should never happen and aborts loudly).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import bounds, construct, formulas
from .cache import CACHE_VERSION, SolutionCache, resolve_cache_path
from .graphs import Graph, GraphShape, ShapeError, StickyEnd, _require_ints, build
from .render import render_ascii, render_svg
from .solve import Budget, grid_rank, rank_decision, rank_exact
from .verify import Ranking

__all__ = ["main"]


def _json_text(x: object, pad: str = "") -> str:
    """json.dumps(x, indent=2, sort_keys=True), byte for byte, nested at pad.

    Strings, plain ints, str-keyed dicts, int lists and equal-length int rows
    take fast paths that move the per-element work into C-level join and %;
    empty lists, tuples and dicts are written directly, other lists and
    tuples item by item.  bool, None and floats go to json.dumps without
    indent; only subclasses and dicts with non-str keys reach json.dumps
    with it.
    """
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return str(x)
    if t is float or t is bool or x is None:
        # indent changes no scalar, and json.dumps without it reuses the
        # shared C encoder, where indent=2 builds closures that form cycles
        return json.dumps(x)
    if (t is list or t is tuple or t is dict) and not x:
        return "{}" if t is dict else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if t is dict and all(type(k) is str for k in x):
        items = sep.join(f"{encode_basestring_ascii(k)}: {_json_text(x[k], inner)}" for k in sorted(x))
        return f"{{\n{inner}{items}\n{pad}}}"
    if t is list or t is tuple:
        kinds = set(map(type, x))
        if kinds == {int}:
            return f"[\n{inner}{sep.join(map(str, x))}\n{pad}]"
        if kinds <= {list, tuple} and x[0] and len(set(map(len, x))) == 1:
            flat = tuple(chain.from_iterable(x))
            if set(map(type, flat)) == {int}:
                cell = ",\n" + inner + "  "
                row = f"[{cell[1:]}{cell.join(['%d'] * len(x[0]))}\n{inner}]"
                return f"[\n{inner}{sep.join([row] * len(x)) % flat}\n{pad}]"
        return f"[\n{inner}{sep.join(_json_text(v, inner) for v in x)}\n{pad}]"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _write(text: str, out: str | None = None) -> None:
    """Write text to stdout, or to the file out unless it is "-"."""
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: object, out: str | None = None) -> None:
    _write(_json_text(payload) + "\n", out)


# -- shared flag handling --------------------------------------------------


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m_str, n_str = text.lower().split("x", 1)
        return int(m_str), int(n_str)
    except ValueError:
        raise ShapeError(f"expected MxN, got {text!r}") from None


def _parse_sticky(text: str) -> StickyEnd:
    side, _, align = text.partition(":")
    return StickyEnd(side=side, align=align or "bottom")


def _shape_from_args(args: argparse.Namespace) -> GraphShape:
    picked = [x for x in (args.grid, args.path, args.triangle) if x is not None]
    if len(picked) != 1:
        raise ShapeError("give exactly one of --grid MxN, --path N, --triangle S")
    if args.grid is not None:
        m, n = _parse_dims(args.grid)
        decorations = tuple(_parse_sticky(s) for s in (args.sticky or []))
        return GraphShape.grid(m, n, decorations)
    if args.sticky:
        raise ShapeError("sticky ends attach only to grids")
    if args.path is not None:
        return GraphShape.path(args.path)
    return GraphShape.triangle(args.triangle)


def _budget_from_args(args: argparse.Namespace) -> Budget | None:
    if args.budget is None and args.budget_nodes is None:
        return None
    return Budget(seconds=args.budget, nodes=args.budget_nodes)


# flags as (name, add_argument keywords): exact and decide share them, sweep the budget pair
_SHAPE_FLAGS = (
    ("--grid", dict(metavar="MxN", help="grid with M rows and N columns")),
    ("--path", dict(type=int, metavar="N", help="path on N vertices")),
    ("--triangle", dict(type=int, metavar="S", help="triangle grid with S rows")),
    ("--sticky", dict(action="append", metavar="SIDE[:ALIGN]",
                      help="staircase attachment (left|right, align bottom|top); repeatable")),
)
_BUDGET_FLAGS = (
    ("--budget", dict(type=float, metavar="SECONDS",
                      help="wall-clock cap; exceeded solves report an interval")),
    ("--budget-nodes", dict(type=int, metavar="N", help="search-node cap")),
)
_SOLVER_FLAGS = _BUDGET_FLAGS + (
    ("--deterministic", dict(action="store_true", help="no cache traffic, zeroed timings")),
    ("--cache", dict(metavar="PATH",
                     help="cache file (default: RANKGRID_CACHE or the user data dir)")),
    ("--no-cache", dict(action="store_true", help="skip the cache entirely")),
)


def _open_cache(args: argparse.Namespace) -> SolutionCache | None:
    if args.no_cache or args.deterministic:
        return None
    return SolutionCache(resolve_cache_path(args.cache))


# -- subcommands -----------------------------------------------------------


def _cmd_exact(args: argparse.Namespace) -> int:
    g = build(_shape_from_args(args))
    store = _open_cache(args)
    res = store.get_exact(g) if store is not None else None
    if res is None:
        res = rank_exact(g, budget=_budget_from_args(args))
        if store is not None:
            labels = list(res.certificate.labels) if res.certificate else None
            store.put_exact(g, res.lb, res.ub, labels, res.elapsed)
    payload = res.to_json_dict()
    if args.deterministic:
        payload["elapsed"] = 0.0
    _emit(payload)
    return 2 if res.budget_exhausted and not res.exact else 0


def _cmd_decide(args: argparse.Namespace) -> int:
    g = build(_shape_from_args(args))
    store = _open_cache(args)
    out = store.get_decision(g, args.k) if store is not None else None
    hit = out is not None
    if not hit:
        out = rank_decision(g, args.k, budget=_budget_from_args(args))
        if store is not None and out.feasible is not None:
            labels = list(out.ranking.labels) if out.ranking else None
            store.put_decision(g, args.k, out.feasible, labels, out.elapsed)
    _emit({
        "k": args.k,
        "feasible": out.feasible,
        "proven": out.feasible is not None,
        "elapsed": 0.0 if args.deterministic else round(out.elapsed, 6),
        "labels": list(out.ranking.labels) if out.ranking else None,
        "method": "cache" if hit else "search",
    })
    return 2 if out.feasible is None else 0


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.recursive and args.m != 4:
        raise ShapeError("--recursive applies only to --m 4")
    if args.recursive:
        value = formulas.rank_4xn_recursive(args.n)
    else:
        value = formulas.rank_formula(args.m, args.n)
    bucket = None
    if args.m == 4 and args.n >= 5:
        bucket = list(formulas.bucket_4xn(args.n))
    _emit({
        "n": args.n,
        "value": value,
        "form": "recursive" if args.recursive else "closed",
        "bucket": bucket,
    })
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.triangle is not None:
        if args.m is not None or args.n is not None:
            raise ShapeError("--triangle excludes --m/--n")
        s = args.triangle
        _emit({
            "n": s,
            "lower": {"cor2": str(bounds.corollary_lower_tri(s))},
            "upper": {"stacked": bounds.tri_bound(s)},
        })
        return 0
    if args.m is None:
        raise ShapeError("give --m (with optional --n) or --triangle")
    m = args.m
    n = args.n if args.n is not None else m
    side = min(m, n)
    lower = {
        "thm2": bounds.square_lower(side),
        "cor1": str(bounds.corollary_lower_square(side)),
    }
    report = bounds.compare_upper(m, n)
    payload: dict[str, object] = {
        "m": m,
        "lower": lower,
        "upper": {"alpert": report["alpert"], "diagonal": report["diagonal"]},
        "comparator": report,
    }
    if args.n is not None:
        payload["n"] = n
    _emit(payload)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    picked = [x for x in (args.four_rows, args.triangle, args.endpoints) if x is not None]
    if len(picked) != 1:
        raise ShapeError("give exactly one of --four-rows N, --triangle S, --endpoints KMAX")
    if args.four_rows is not None:
        _emit(construct.four_row_certificate(args.four_rows).to_json_dict(), args.out)
        return 0
    if args.triangle is not None:
        _emit(construct.triangle_certificate(args.triangle).to_json_dict(), args.out)
        return 0
    chains = construct.run_endpoint_certificates(args.endpoints)
    _emit({
        "count": len(chains),
        "chains": [{"width": c.width, "labels": c.labels,
                    "steps": [s.name for s in c.steps]} for c in chains],
    }, args.out)
    return 0


# -- sweep -----------------------------------------------------------------

_SWEEP_METHODS = ("formula", "exact", "bucket", "bounds", "cert")
_SWEEP_COLUMNS = ["m", "n", "formula", "exact_lo", "exact_hi", "bucket_lo", "bucket_hi",
                  "alpert", "diagonal", "cert_labels", "flags"]


def _sweep_row(m: int, n: int, methods: set[str], budget: Budget | None) -> dict[str, object]:
    """One width of a sweep over _SWEEP_COLUMNS; a method not run leaves None,
    and flags name the checks its numbers pass against the formula."""
    row: dict[str, object] = dict.fromkeys(_SWEEP_COLUMNS)
    row["m"], row["n"] = m, n
    if "formula" in methods and m <= 4:
        row["formula"] = formulas.rank_formula(m, n)
    if "exact" in methods and budget is None:
        row["exact_lo"] = row["exact_hi"] = grid_rank(m, n)
    elif "exact" in methods:
        res = rank_exact(build(GraphShape.grid(m, n)), budget=budget)
        row["exact_lo"], row["exact_hi"] = res.lb, res.ub
    if "bucket" in methods and m == 4 and n >= 5:
        row["bucket_lo"], row["bucket_hi"] = formulas.bucket_4xn(n)
    if "bounds" in methods:
        row["alpert"] = bounds.alpert_upper(m, n)
        row["diagonal"] = bounds.diagonal_upper(m, n)
    if "cert" in methods and m == 4:
        row["cert_labels"] = construct.four_row_certificate(n).labels
    f = row["formula"]
    toks = []
    if f is not None:
        if row["exact_lo"] == row["exact_hi"] == f:
            toks.append("formula_exact")
        if row["bucket_lo"] is not None and row["bucket_lo"] <= f <= row["bucket_hi"]:
            toks.append("bucket_brackets")
        if row["cert_labels"] == f:
            toks.append("cert_matches")
        if row["alpert"] is not None and row["alpert"] >= f and (
                row["diagonal"] is None or row["diagonal"] >= f):
            toks.append("upper_dominates")
    row["flags"] = ";".join(toks)
    return row


def _parse_range(text: str) -> range:
    try:
        lo_str, hi_str = text.replace("..", ":").split(":", 1)
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise ShapeError(f"expected LO:HI, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ShapeError(f"empty or invalid range {text!r}")
    return range(lo, hi + 1)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise ShapeError(f"sweep needs --m >= 1, got {args.m}")
    span = _parse_range(args.n_range)
    methods = set(args.methods.split(","))
    unknown = methods.difference(_SWEEP_METHODS)
    if unknown:
        raise ShapeError(f"unknown methods: {sorted(unknown)}; pick from {_SWEEP_METHODS}")
    budget = _budget_from_args(args)
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8", newline="")
    rows: list[dict[str, object]] = []
    try:
        if args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=_SWEEP_COLUMNS)
            writer.writeheader()
            for n in span:
                writer.writerow(_sweep_row(args.m, n, methods, budget))
                out.flush()
        else:
            try:
                for n in span:
                    rows.append(_sweep_row(args.m, n, methods, budget))
            finally:
                # interrupted sweeps still flush what they have
                out.write(_json_text({"columns": _SWEEP_COLUMNS, "rows": rows}) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _emit(bounds.compare_upper(args.m, args.n))
    return 0


def _json_object(data: dict, field: str) -> dict:
    value = data[field]
    if not isinstance(value, dict):
        raise TypeError(f"{field!r} is not a JSON object")
    return value


def _load_ranking(path: str) -> Ranking:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if not isinstance(data, dict):
            raise TypeError("the top level is not a JSON object")
        g = Graph.from_json_dict(_json_object(data, "graph"))
        if "ranking" in data:
            stored = _json_object(data, "ranking")
            if stored.get("graph_hash") not in (None, g.graph_hash):
                raise ValueError("the ranking's graph_hash does not match its graph")
            labels = stored["labels"]
        else:
            labels = data["labels"]
    except KeyError as exc:
        raise ValueError(f"malformed ranking file {path}: missing {exc}") from None
    except ShapeError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed ranking file {path}: {exc}") from None
    try:
        _require_ints(labels)
    except TypeError:
        raise ValueError(f"ranking file {path} needs integer labels") from None
    return Ranking(g, tuple(labels))


def _cmd_render(args: argparse.Namespace) -> int:
    ranking = _load_ranking(args.file)
    text = render_svg(ranking) if args.format == "svg" else render_ascii(ranking) + "\n"
    _write(text, args.out)
    return 0


def _cmd_cache_inspect(args: argparse.Namespace) -> int:
    path = resolve_cache_path(args.cache)
    store = SolutionCache(path)
    records = store.entries()
    payload: dict[str, object] = {
        "path": str(path),
        "version": CACHE_VERSION,
        "entries": len(records),
        "exact": sum(1 for r in records if r["kind"] == "exact"),
        "decisions": sum(1 for r in records if r["kind"] == "decision"),
    }
    if args.verbose:
        payload["records"] = records
    _emit(payload)
    return 0


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        raise ShapeError(message)


# every subcommand in the order the full parser lists them:
# name -> (one-line help, handler, flags as (name, add_argument keywords))
_COMMANDS = {
    "exact": ("exact rank number with certificate", _cmd_exact, _SHAPE_FLAGS + _SOLVER_FLAGS),
    "decide": ("is there a ranking with at most k labels", _cmd_decide, _SHAPE_FLAGS + _SOLVER_FLAGS + (
        ("--k", dict(type=int, required=True, help="label budget")),
    )),
    "formula": ("closed-form values for 1..4 rows", _cmd_formula, (
        ("--m", dict(type=int, required=True, choices=(1, 2, 3, 4))),
        ("--n", dict(type=int, required=True)),
        ("--recursive", dict(action="store_true",
                             help="use the interval recursion instead of the closed form (m=4)")),
    )),
    "bounds": ("lower and upper bounds", _cmd_bounds, (
        ("--m", dict(type=int)),
        ("--n", dict(type=int)),
        ("--triangle", dict(type=int, metavar="S")),
    )),
    "construct": ("build verified ranking certificates", _cmd_construct, (
        ("--four-rows", dict(type=int, metavar="N", help="certificate chain for the 4xN grid")),
        ("--triangle", dict(type=int, metavar="S",
                            help="triangle ranking: the solver's optimum (step \"solve\") for S <= 6,"
                                 " row cuts (step \"triangle-rows\") above")),
        ("--endpoints", dict(type=int, metavar="KMAX",
                             help="summary of the run-endpoint chains of widths 1..7*2^(KMAX-2)-2")),
        ("--out", dict(metavar="FILE", help="write JSON here instead of stdout")),
    )),
    "sweep": ("tabulate methods over a width range", _cmd_sweep, (
        ("--m", dict(type=int, required=True)),
        ("--n-range", dict(required=True, metavar="LO:HI")),
        ("--methods", dict(default="formula,bucket",
                           help=f"comma list from {','.join(_SWEEP_METHODS)}")),
        ("--format", dict(choices=("csv", "json"), default="csv")),
        ("--out", dict(metavar="FILE")),
    ) + _BUDGET_FLAGS),
    "compare": ("halving vs diagonal upper bound", _cmd_compare, (
        ("--m", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)),
    )),
    "render": ("draw a ranking file as ascii or svg", _cmd_render, (
        ("file", dict(help="JSON with 'graph' plus 'ranking' or 'labels'")),
        ("--format", dict(choices=("ascii", "svg"), default="ascii")),
        ("--out", dict(metavar="FILE")),
    )),
    "cache-inspect": ("show cache location and contents", _cmd_cache_inspect, (
        ("--cache", dict(metavar="PATH")),
        ("--verbose", dict(action="store_true", help="list every record")),
    )),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Command's own parser if it names one, else the parser of all nine."""
    if command in _COMMANDS:
        parser = _Parser(prog=f"rankgrid {command}")
        parsers = {command: parser}
    else:
        parser = _Parser(prog="rankgrid", description="Vertex-ranking toolkit for grid graphs.")
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=row[0]) for name, row in _COMMANDS.items()}
    for name, p in parsers.items():
        _, func, flags = _COMMANDS[name]
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic collector paused.

    rankgrid's data are acyclic (int-keyed dicts, tuples, frozen
    records), so reference counting frees them without the collector.
    A named command is parsed by its own parser, so each of its errors
    prints that command's usage.  A command leaves 27 to 67 cyclic
    objects, its parser's among them, whatever its size; the JSON writer
    builds no encoder.  The caller's collector state is restored on every
    exit path, --help's SystemExit included.
    """
    if argv is None:
        argv = sys.argv[1:]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = _build_parser(command).parse_args(argv[1:] if command else argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # ShapeError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
