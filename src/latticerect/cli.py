"""Command-line front end: count, verify, bijections, oeis, render.

Exit codes are stable across commands: 0 success, 2 usage or parse error,
3 verification mismatch, 4 external-service failure.  Every command takes
``--json`` for a machine-readable report (keys sorted, schema stable) and
``--no-timing`` to drop wall-clock fields so reports are byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .geometry import (Family, ShapeError, ShapeSpec, ascii_int, build, parse_shape_spec,
                       vertical_axis)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_EXTERNAL = 4

#: The O(W^2 H^2) oracle is kept honest by refusing absurd orders.
NAIVE_MAX_ORDER = 40
#: ``count aztec:20000``: 0.15-0.24 s wall, 40 MiB peak RSS (32 runs; 2-core x86-64, Python 3.11).
FAST_MAX_ORDER = 20000
#: A render writes every cell: ``render aztec:1000 --format svg`` wrote 92 MB.
RENDER_MAX_ORDER = 1000
#: Each ``--method`` route and its order guard; ``formula`` counts from the spec, unguarded.
COUNT_METHODS = {"naive": NAIVE_MAX_ORDER, "fast": FAST_MAX_ORDER, "formula": None}


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_list(text: str, parse) -> list:
    """Parse each comma-separated token; repeats are dropped, first-seen order kept."""
    return list(dict.fromkeys(map(parse, text.split(","))))


def _elapsed_ms(started: float) -> float:
    return round((time.perf_counter() - started) * 1000, 3)


def _check_order(spec: ShapeSpec, limit: int, guard: str) -> None:
    """Refuse an order past the named guard, before anything is built."""
    if spec.n > limit:
        raise CommandError(EXIT_USAGE, f"order {spec.n} exceeds the {guard} guard ({limit})")


def _compare_routes(spec: ShapeSpec, methods, region, timing: dict) -> tuple[dict, str]:
    """Count by each route in order, timing each: (counts, ``m=v ...`` if they disagree)."""
    from . import counting  # with the first count, not with the CLI
    counts = {}
    for method in methods:
        started = time.perf_counter()
        counter = getattr(counting, f"count_{method}")
        counts[method] = counter(spec if method == "formula" else region)
        timing[method] = _elapsed_ms(started)
    agree = len(set(counts.values())) == 1
    return counts, "" if agree else " ".join(f"{m}={v}" for m, v in counts.items())


def cmd_count(args) -> tuple[dict, str, int]:
    from . import counting  # here, so that no method's timer includes its import
    spec = parse_shape_spec(args.spec)
    methods = list(COUNT_METHODS) if args.method == "all" else [args.method]
    for method in filter(COUNT_METHODS.get, methods):  # in order: the first is named
        _check_order(spec, COUNT_METHODS[method], f"{method}-method")
    # a d-digit order counts at most 4d + 1 digits; 0 is no limit, and 3.10 < 3.10.7 has none
    limit, digits = getattr(sys, "get_int_max_str_digits", lambda: 0)(), len(str(spec.n))
    if "formula" in methods and 0 < limit < 4 * digits + 1:
        raise CommandError(EXIT_USAGE, f"a {digits}-digit order exceeds the formula guard: "
                           f"its count may pass Python's {limit}-digit int string limit")
    timing = {}
    region = None
    if methods != ["formula"]:
        started = time.perf_counter()
        import numpy  # noqa: F401  the region counts load it; timed apart from them
        timing["numpy_import"] = _elapsed_ms(started)
        started = time.perf_counter()
        region = build(spec)
        timing["build"] = _elapsed_ms(started)
    counts, disagreement = _compare_routes(spec, methods, region, timing)
    report = {
        "spec": str(spec),
        "methods": methods,
        "counts": counts,
        "agreement": not disagreement,
        "backend": counting.BACKEND if "fast" in methods else None,
        "region": None if region is None else {
            "width": 0 if region.is_empty else region.bounding_box().width,
            "height": region.height,
            "cells": region.cell_count,
        },
        "timing_ms": timing,
    }
    if disagreement:
        return report, f"{spec}: METHOD DISAGREEMENT {disagreement}", EXIT_MISMATCH
    suffix = f" ({' = '.join(methods)} agree)" if len(methods) > 1 else ""
    return report, f"{spec}: {counts[methods[0]]}{suffix}", EXIT_OK


def _check_max_n(max_n: int, limit: int) -> None:
    if not 1 <= max_n <= limit:
        raise CommandError(EXIT_USAGE, f"--max-n must be in 1..{limit}, got {max_n}")


def _check_each(items, check) -> tuple[list, list[str], int]:
    """Run ``check`` -> (report entry, text line, ok) on every item; exit 3 if any failed."""
    entries, lines, failed = [], [], False
    for item in items:
        entry, line, ok = check(item)
        entries.append(entry)
        lines.append(line)
        failed = failed or not ok
    return entries, lines, EXIT_MISMATCH if failed else EXIT_OK


def cmd_verify(args) -> tuple[dict, str, int]:
    from .formulas import SequenceId

    def parse_family(token: str) -> SequenceId:
        key = token.strip().lower()
        for seq in SequenceId:
            if key in (seq.value, Family[seq.name].value):
                return seq
        choices = ", ".join([seq.value for seq in SequenceId]
                            + [Family[seq.name].value for seq in SequenceId])
        raise CommandError(EXIT_USAGE, f"unknown family {token!r} (choices: {choices})")

    _check_max_n(args.max_n, NAIVE_MAX_ORDER)
    families = (_parse_list(args.families, parse_family) if args.families is not None
                else list(SequenceId))

    def check(seq):
        family = Family[seq.name]
        for n in range(1, args.max_n + 1):
            region = build(spec := ShapeSpec(family, n))
            counts, shown = _compare_routes(spec, COUNT_METHODS, region, {})
            if shown:
                return ({"ok": False, "counterexample": {"n": n, **counts}},
                        f"{family.value:<13} MISMATCH at n={n}: {shown}", False)
        return ({"ok": True, "counterexample": None},
                f"{family.value:<13} n=1..{args.max_n}: ok", True)

    results, lines, code = _check_each(families, check)
    lines.append("FAILED" if code else
                 f"all counts agree (naive = fast = formula, n <= {args.max_n})")
    keys = [seq.value for seq in families]
    report = {"max_n": args.max_n, "families": keys, "results": dict(zip(keys, results))}
    return report, "\n".join(lines), code


def cmd_bijections(args) -> tuple[dict, str, int]:
    from . import bijections
    _check_max_n(args.max_n, bijections.MAX_VERIFY_ORDER)
    names = [args.map] if args.map else list(bijections.BIJECTION_NAMES)

    def check(name):
        sizes = []
        for n in range(1, args.max_n + 1):
            result = bijections.verify_bijection(name, n)
            sizes.append(result.domain_size)
            if not result.verified:
                line = (f"{name:<15} FAILED at n={n}: "
                        f"injective={result.is_injective} surjective={result.is_surjective} "
                        f"roundtrip={result.roundtrip_ok} counterexample={result.counterexample}")
                return ({"verified": False, "domain_sizes": sizes,
                         "counterexample": str(result.counterexample)}, line, False)
        shown = ", ".join(str(s) for s in sizes)
        return ({"verified": True, "domain_sizes": sizes, "counterexample": None},
                f"{name:<15} n=1..{args.max_n}: verified (domain sizes {shown})", True)

    results, lines, code = _check_each(names, check)
    report = {"max_n": args.max_n, "maps": names, "results": dict(zip(names, results))}
    return report, "\n".join(lines), code


def cmd_oeis(args) -> tuple[dict, str, int]:
    from . import oeis

    def parse_oeis_id(token: str) -> str:
        sequence_id = token.strip().upper()
        if sequence_id not in oeis.SEQUENCE_FOR_ID:
            known = ", ".join(sorted(oeis.SEQUENCE_FOR_ID))
            raise CommandError(
                EXIT_USAGE, f"{sequence_id!r} is not a supported OEIS id (known: {known})")
        return sequence_id

    ids = (_parse_list(args.ids, parse_oeis_id) if args.ids is not None
           else list(oeis.SEQUENCE_FOR_ID))
    if args.terms < 1:
        raise CommandError(EXIT_USAGE, f"--terms must be >= 1, got {args.terms}")

    def check(sequence_id):
        seq = oeis.SEQUENCE_FOR_ID[sequence_id]
        family = Family[seq.name].value
        try:
            result = oeis.check(sequence_id, seq, args.terms,
                                source=args.source, cache_dir=args.cache_dir)
        except oeis.FetchError as err:
            raise CommandError(EXIT_EXTERNAL, str(err)) from None
        except ValueError as err:
            raise CommandError(EXIT_USAGE, str(err)) from None
        except OSError as err:  # the b-file cache, as in render --out
            where = Path(args.cache_dir or oeis.default_cache_dir())
            raise CommandError(EXIT_USAGE, f"cannot write {where}: {err.strerror}") from None
        entry = {
            "sequence_id": sequence_id,
            "family": family,
            "terms": args.terms,
            "matches": result.matches,
            "first_mismatch": result.first_mismatch,
            "source": result.source,
        }
        if result.ok:
            return entry, (f"{sequence_id} ({family}): {result.matches}/{args.terms} "
                           f"terms match [{result.source}]"), True
        n, reference, computed = result.first_mismatch
        return entry, (f"{sequence_id} ({family}): {result.matches}/{args.terms} match; "
                       f"first mismatch at n={n}: reference={reference}, computed={computed} "
                       f"[{result.source}]"), False

    checks, lines, code = _check_each(ids, check)
    report = {"ids": ids, "terms": args.terms, "source": args.source, "checks": checks}
    return report, "\n".join(lines), code


def cmd_render(args) -> tuple[dict, str, int]:
    from .render import render_ascii, render_svg
    spec = parse_shape_spec(args.spec)
    _check_order(spec, RENDER_MAX_ORDER, "render")
    axis = vertical_axis(spec) if args.axis else None
    region = build(spec)
    rendered = render_ascii(region, axis) if args.format == "ascii" \
        else render_svg(region, axis)
    report = {
        "spec": str(spec),
        "format": args.format,
        "cells": region.cell_count,
        "output": rendered,
    }
    if not args.out:
        return report, rendered.rstrip("\n"), EXIT_OK
    try:
        Path(args.out).write_text(rendered, encoding="utf-8")
    except OSError as err:
        raise CommandError(EXIT_USAGE, f"cannot write {args.out}: {err.strerror}") from None
    report["output_path"] = args.out
    return report, f"wrote {args.out}", EXIT_OK


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command is listed, but only ``command`` gets its arguments: only its modules load."""
    parser = argparse.ArgumentParser(
        prog="latticerect",
        description="Exact lattice-rectangle counting in Aztec diamonds, "
                    "square biscuits, staircases, and their halves.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report (keys sorted)")
        sp.add_argument("--no-timing", action="store_true",
                        help="omit timing fields for byte-deterministic output")
        sp.set_defaults(handler=handler)

    count = sub.add_parser("count", help="count lattice rectangles in one shape")
    if command == "count":
        count.add_argument("spec", help="shape spec, e.g. aztec:5, staircase:3:ul")
        count.add_argument("--method", choices=(*COUNT_METHODS, "all"),
                           default="fast", help="counting route (all = cross-check)")
        common(count, cmd_count)

    verify = sub.add_parser(
        "verify", help="sweep naive/fast/formula agreement over all families")
    if command == "verify":
        verify.add_argument("--max-n", type=ascii_int, default=10,
                            help=f"top order per family (1..{NAIVE_MAX_ORDER})")
        verify.add_argument("--families",
                            help="comma list: s, ah, bh, a, b or family names")
        common(verify, cmd_verify)

    bij = sub.add_parser(
        "bijections", help="exhaustively verify the rectangle bijections")
    if command == "bijections":
        from .bijections import BIJECTION_NAMES, MAX_VERIFY_ORDER
        bij.add_argument("--max-n", type=ascii_int, default=8,
                         help=f"top order (1..{MAX_VERIFY_ORDER})")
        bij.add_argument("--map", choices=BIJECTION_NAMES, help="verify a single map")
        common(bij, cmd_bijections)

    oeis_cmd = sub.add_parser(
        "oeis", help="compare the closed forms against OEIS reference terms")
    if command == "oeis":
        from .oeis import SOURCES
        oeis_cmd.add_argument("--ids", help="comma list of OEIS ids (default: all four)")
        oeis_cmd.add_argument("--terms", type=ascii_int, default=20,
                              help="number of terms to compare from n=1")
        oeis_cmd.add_argument("--source", choices=SOURCES, default="fixture",
                              help="term source: bundled fixtures, local cache, or network")
        oeis_cmd.add_argument("--cache-dir",
                              help="override the b-file cache directory "
                                   "(default: $LATTICERECT_OEIS_CACHE or ~/.cache/latticerect)")
        common(oeis_cmd, cmd_oeis)

    render = sub.add_parser("render", help="draw a shape as ASCII or SVG")
    if command == "render":
        render.add_argument("spec", help="shape spec, e.g. biscuit:2")
        render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
        render.add_argument("--axis", action="store_true",
                            help="overlay the vertical symmetry axis")
        render.add_argument("--out", help="write to a file instead of stdout")
        common(render, cmd_render)
    return parser


def main(argv=None) -> int:
    """Run one command: each handler returns (report, text, exit code).

    A ShapeError from a malformed spec or an impossible request is a usage error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes the first positional as the command; no top-level option takes a value
    args = _build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    started = time.perf_counter()
    try:
        report, text, code = args.handler(args)
    except (CommandError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CommandError) else EXIT_USAGE
    report.update(command=args.command, exit_status=code)
    report.setdefault("timing_ms", {})["total"] = _elapsed_ms(started)
    if args.no_timing:
        del report["timing_ms"]
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    elif text:
        print(text)
    return code


def entry_point() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # nothing here calls BLAS: skip its pool
    sys.exit(main())
