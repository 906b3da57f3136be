"""Command-line front end: count, verify, bijections, oeis, render.

Exit codes are stable across commands: 0 success, 2 usage or parse error,
3 verification mismatch, 4 external-service failure.  Every command takes
``--json`` for a machine-readable report (keys sorted, schema stable) and
``--no-timing`` to drop wall-clock fields so reports are byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, bijections, counting, formulas, oeis
from .geometry import ShapeError, ShapeSpec, build, parse_shape_spec, vertical_axis
from .render import render_ascii, render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_EXTERNAL = 4

#: The O(W^2 H^2) oracle is kept honest by refusing absurd orders.
NAIVE_MAX_ORDER = 40
#: count_fast work grows with the number of non-empty row bands, about 2n^2
#: for aztec:n, the worst family per order.  ``count aztec:20000`` took 9.6 s
#: and 47 MiB peak RSS on a 2-core x86-64 host (Python 3.11, numpy 2.4).
FAST_MAX_ORDER = 20000

#: Count methods that run on the built region; the formula route needs none.
_REGION_COUNTERS = {"naive": counting.count_naive, "fast": counting.count_fast}

_FAMILY_SPECS = {
    formulas.SequenceId.STAIRCASE: "staircase:{n}:dl",
    formulas.SequenceId.AZTEC_HALF: "aztec-half:{n}:top",
    formulas.SequenceId.BISCUIT_HALF: "biscuit-half:{n}:larger",
    formulas.SequenceId.AZTEC: "aztec:{n}",
    formulas.SequenceId.BISCUIT: "biscuit:{n}",
}
_FAMILY_CODES = {seq.value: seq for seq in formulas.SequenceId}
_FAMILY_NAMES = {
    "staircase": formulas.SequenceId.STAIRCASE,
    "aztec-half": formulas.SequenceId.AZTEC_HALF,
    "biscuit-half": formulas.SequenceId.BISCUIT_HALF,
    "aztec": formulas.SequenceId.AZTEC,
    "biscuit": formulas.SequenceId.BISCUIT,
}

_OEIS_SOURCES = {
    "fixture": "fixture-only",
    "cache": "cache-only",
    "network": "network-then-cache",
}


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_spec(text: str) -> ShapeSpec:
    try:
        return parse_shape_spec(text)
    except ShapeError as err:
        raise CommandError(EXIT_USAGE, str(err)) from None


def _emit(args, report: dict, text: str) -> None:
    if args.json:
        if args.no_timing:
            report.pop("timing_ms", None)
        print(json.dumps(report, sort_keys=True, indent=2))
    elif text:
        print(text)


def cmd_count(args) -> int:
    spec = _parse_spec(args.spec)
    methods = list(counting.COUNT_METHODS) if args.method == "all" else [args.method]
    for method, limit in (("naive", NAIVE_MAX_ORDER), ("fast", FAST_MAX_ORDER)):
        if method in methods and spec.n > limit:
            raise CommandError(
                EXIT_USAGE, f"order {spec.n} exceeds the {method}-method guard ({limit})")
    timing = {}
    region = None
    if any(method in _REGION_COUNTERS for method in methods):
        started = time.perf_counter()
        region = build(spec)
        timing["build"] = round((time.perf_counter() - started) * 1000, 3)
    counts = {}
    for method in methods:
        started = time.perf_counter()
        counts[method] = (_REGION_COUNTERS[method](region) if method in _REGION_COUNTERS
                          else counting.count_family(spec, method))
        timing[method] = round((time.perf_counter() - started) * 1000, 3)
    agree = len(set(counts.values())) == 1
    code = EXIT_OK if agree else EXIT_MISMATCH
    report = {
        "command": "count",
        "spec": str(spec),
        "methods": methods,
        "counts": counts,
        "agreement": agree,
        "backend": counting.BACKEND if "fast" in methods else None,
        "region": None if region is None else {
            "width": region.bounding_box().width,
            "height": region.height,
            "cells": region.cell_count,
        },
        "timing_ms": timing,
        "exit_status": code,
    }
    if agree:
        value = counts[methods[0]]
        suffix = f" ({' = '.join(methods)} agree)" if len(methods) > 1 else ""
        text = f"{spec}: {value}{suffix}"
    else:
        shown = " ".join(f"{m}={v}" for m, v in counts.items())
        text = f"{spec}: METHOD DISAGREEMENT {shown}"
    _emit(args, report, text)
    return code


def _parse_families(text: str) -> list[formulas.SequenceId]:
    out = []
    for token in text.split(","):
        key = token.strip().lower()
        seq = _FAMILY_CODES.get(key) or _FAMILY_NAMES.get(key)
        if seq is None:
            choices = ", ".join(list(_FAMILY_CODES) + list(_FAMILY_NAMES))
            raise CommandError(EXIT_USAGE, f"unknown family {token!r} (choices: {choices})")
        if seq not in out:
            out.append(seq)
    return out


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= NAIVE_MAX_ORDER:
        raise CommandError(
            EXIT_USAGE, f"--max-n must be in 1..{NAIVE_MAX_ORDER}, got {args.max_n}")
    families = (_parse_families(args.families) if args.families
                else list(formulas.SequenceId))
    started = time.perf_counter()
    results = {}
    lines = []
    failed = False
    for seq in families:
        counterexample = None
        for n in range(1, args.max_n + 1):
            spec = parse_shape_spec(_FAMILY_SPECS[seq].format(n=n))
            counts = {m: counting.count_family(spec, m) for m in counting.COUNT_METHODS}
            if len(set(counts.values())) != 1:
                counterexample = {"n": n, **counts}
                break
        results[seq.value] = {"ok": counterexample is None, "counterexample": counterexample}
        name = _FAMILY_SPECS[seq].split(":")[0]
        if counterexample is None:
            lines.append(f"{name:<13} n=1..{args.max_n}: ok")
        else:
            failed = True
            shown = " ".join(f"{m}={counterexample[m]}" for m in counting.COUNT_METHODS)
            lines.append(f"{name:<13} MISMATCH at n={counterexample['n']}: {shown}")
    code = EXIT_MISMATCH if failed else EXIT_OK
    report = {
        "command": "verify",
        "max_n": args.max_n,
        "families": [seq.value for seq in families],
        "results": results,
        "timing_ms": {"total": round((time.perf_counter() - started) * 1000, 3)},
        "exit_status": code,
    }
    lines.append("FAILED" if failed else
                 f"all counts agree (naive = fast = formula, n <= {args.max_n})")
    _emit(args, report, "\n".join(lines))
    return code


def cmd_bijections(args) -> int:
    if not 1 <= args.max_n <= bijections.MAX_VERIFY_ORDER:
        raise CommandError(
            EXIT_USAGE,
            f"--max-n must be in 1..{bijections.MAX_VERIFY_ORDER}, got {args.max_n}")
    names = [args.map] if args.map else list(bijections.BIJECTION_NAMES)
    started = time.perf_counter()
    results = {}
    lines = []
    failed = False
    for name in names:
        sizes = []
        failure = None
        for n in range(1, args.max_n + 1):
            report = bijections.verify_bijection(name, n)
            sizes.append(report.domain_size)
            if not report.verified:
                failure = report
                break
        results[name] = {
            "verified": failure is None,
            "domain_sizes": sizes,
            "counterexample": None if failure is None else str(failure.counterexample),
        }
        if failure is None:
            shown = ", ".join(str(s) for s in sizes)
            lines.append(f"{name:<15} n=1..{args.max_n}: verified (domain sizes {shown})")
        else:
            failed = True
            lines.append(
                f"{name:<15} FAILED at n={failure.order}: "
                f"injective={failure.is_injective} surjective={failure.is_surjective} "
                f"roundtrip={failure.roundtrip_ok} counterexample={failure.counterexample}")
    code = EXIT_MISMATCH if failed else EXIT_OK
    report = {
        "command": "bijections",
        "max_n": args.max_n,
        "maps": names,
        "results": results,
        "timing_ms": {"total": round((time.perf_counter() - started) * 1000, 3)},
        "exit_status": code,
    }
    _emit(args, report, "\n".join(lines))
    return code


def cmd_oeis(args) -> int:
    ids = ([token.strip().upper() for token in args.ids.split(",")]
           if args.ids else list(oeis.SEQUENCE_FOR_ID))
    for sequence_id in ids:
        if sequence_id not in oeis.SEQUENCE_FOR_ID:
            known = ", ".join(sorted(oeis.SEQUENCE_FOR_ID))
            raise CommandError(
                EXIT_USAGE, f"{sequence_id} is not a supported OEIS id (known: {known})")
    if args.terms < 1:
        raise CommandError(EXIT_USAGE, f"--terms must be >= 1, got {args.terms}")
    source = _OEIS_SOURCES[args.source]
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    started = time.perf_counter()
    checks = []
    lines = []
    failed = False
    for sequence_id in ids:
        seq = oeis.SEQUENCE_FOR_ID[sequence_id]
        family = _FAMILY_SPECS[seq].split(":")[0]
        try:
            result = oeis.check(sequence_id, seq, args.terms,
                                source=source, cache_dir=cache_dir)
        except oeis.FetchError as err:
            raise CommandError(EXIT_EXTERNAL, str(err)) from None
        except ValueError as err:
            raise CommandError(EXIT_USAGE, str(err)) from None
        checks.append({
            "sequence_id": sequence_id,
            "family": family,
            "terms": args.terms,
            "matches": result.matches,
            "first_mismatch": result.first_mismatch,
            "source": result.source,
        })
        if result.ok:
            lines.append(f"{sequence_id} ({family}): {result.matches}/{args.terms} "
                         f"terms match [{result.source}]")
        else:
            failed = True
            n, reference, computed = result.first_mismatch
            lines.append(
                f"{sequence_id} ({family}): {result.matches}/{args.terms} match; "
                f"first mismatch at n={n}: reference={reference}, computed={computed} "
                f"[{result.source}]")
    code = EXIT_MISMATCH if failed else EXIT_OK
    report = {
        "command": "oeis",
        "ids": ids,
        "terms": args.terms,
        "source": args.source,
        "checks": checks,
        "timing_ms": {"total": round((time.perf_counter() - started) * 1000, 3)},
        "exit_status": code,
    }
    _emit(args, report, "\n".join(lines))
    return code


def cmd_render(args) -> int:
    spec = _parse_spec(args.spec)
    axis = None
    if args.axis:
        try:
            axis = vertical_axis(spec)
        except ShapeError as err:
            raise CommandError(EXIT_USAGE, str(err)) from None
    started = time.perf_counter()
    region = build(spec)
    rendered = render_ascii(region, axis) if args.format == "ascii" \
        else render_svg(region, axis)
    timing = {"total": round((time.perf_counter() - started) * 1000, 3)}
    report = {
        "command": "render",
        "spec": str(spec),
        "format": args.format,
        "cells": region.cell_count,
        "output": rendered,
        "timing_ms": timing,
        "exit_status": EXIT_OK,
    }
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        report["output_path"] = args.out
        _emit(args, report, f"wrote {args.out}")
    else:
        _emit(args, report, rendered.rstrip("\n"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticerect",
        description="Exact lattice-rectangle counting in Aztec diamonds, "
                    "square biscuits, staircases, and their halves.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report (keys sorted)")
        sp.add_argument("--no-timing", action="store_true",
                        help="omit timing fields for byte-deterministic output")

    count = sub.add_parser("count", help="count lattice rectangles in one shape")
    count.add_argument("spec", help="shape spec, e.g. aztec:5, staircase:3:ul")
    count.add_argument("--method", choices=counting.COUNT_METHODS + ("all",),
                       default="fast", help="counting route (all = cross-check)")
    common(count)
    count.set_defaults(handler=cmd_count)

    verify = sub.add_parser(
        "verify", help="sweep naive/fast/formula agreement over all families")
    verify.add_argument("--max-n", type=int, default=10,
                        help=f"top order per family (1..{NAIVE_MAX_ORDER})")
    verify.add_argument("--families",
                        help="comma list: s, ah, bh, a, b or family names")
    common(verify)
    verify.set_defaults(handler=cmd_verify)

    bij = sub.add_parser(
        "bijections", help="exhaustively verify the rectangle bijections")
    bij.add_argument("--max-n", type=int, default=8,
                     help=f"top order (1..{bijections.MAX_VERIFY_ORDER})")
    bij.add_argument("--map", choices=bijections.BIJECTION_NAMES,
                     help="verify a single map")
    common(bij)
    bij.set_defaults(handler=cmd_bijections)

    oeis_cmd = sub.add_parser(
        "oeis", help="compare the closed forms against OEIS reference terms")
    oeis_cmd.add_argument("--ids", help="comma list of OEIS ids (default: all four)")
    oeis_cmd.add_argument("--terms", type=int, default=20,
                          help="number of terms to compare from n=1")
    oeis_cmd.add_argument("--source", choices=tuple(_OEIS_SOURCES), default="fixture",
                          help="term source: bundled fixtures, local cache, or network")
    oeis_cmd.add_argument("--cache-dir",
                          help="override the b-file cache directory "
                               "(default: $LATTICERECT_OEIS_CACHE or ~/.cache/latticerect)")
    common(oeis_cmd)
    oeis_cmd.set_defaults(handler=cmd_oeis)

    render = sub.add_parser("render", help="draw a shape as ASCII or SVG")
    render.add_argument("spec", help="shape spec, e.g. biscuit:2")
    render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    render.add_argument("--axis", action="store_true",
                        help="overlay the vertical symmetry axis")
    render.add_argument("--out", help="write to a file instead of stdout")
    common(render)
    render.set_defaults(handler=cmd_render)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


def entry_point() -> None:
    sys.exit(main())
