"""latticerect benchmark: end-to-end and per-layer timings with checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (sizes, reasons and predictions in perfbench/PREDICTIONS.md):

* ``count_wide``: parse, build and count_fast the five families at orders
  837-1673 (about 2.8M W*H each); checked against ``formulas`` and the
  paper's closed forms.
* ``count_tall``: count_fast on eight seeded row-convex regions, H 12000 to
  19000 and W = 32; checked against a column-pair count made here.
* ``verify``: the paper's cross-checks at small orders (naive = fast =
  formula, both half-shape breakdowns, the four bijections, the four OEIS
  checks), each a direct call into its layer.
* ``cli_cold``: fresh ``python3 -m latticerect`` processes for count,
  verify, bijections, oeis and render --format svg; exit codes and
  ``--json --no-timing`` reports are checked.

Each run is a closed loop with one client: this process and one worker or
child process at a time.  This process makes the inputs from ``--seed`` and
computes the expected values; the worker (worker.py) receives only the
inputs.  Passes over the fixed input list repeat until ``--seconds`` have
passed.  Times are scaled to a reference machine speed (see speed.py).
With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones from a run whose passes
alternate untraced and traced.  Every operation's output is checked; if any
fails, the result says so and the exit code is 1.  Exit code 2 means the
benchmark could not run (for example, no ``src/latticerect`` beside it).
Full results, and spans when tracing, go to ``.perfbench_out/``.

Measurement limits: per-process timing only, with no system-wide tracing
and no dropping of the file cache.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from speed import SpeedTrack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh starts timed per run for setup_s.
SETUP_PROBES = 7
#: Longest a set-up probe or CLI process may take before the run is abandoned;
#: the measuring worker gets this beyond its --seconds.
CHILD_TIMEOUT_S = 60

LIMITS = "per-process timing only; no system-wide tracing, no file-cache dropping"

#: Spec family name and the variants that keep a shape's width and height.
FAMILIES = {
    "a": ("aztec", (None,)),
    "b": ("biscuit", (None,)),
    "s": ("staircase", ("ul", "ur", "dl", "dr")),
    "ah": ("aztec-half", ("top", "bottom")),
    "bh": ("biscuit-half", ("larger", "smaller")),
}
#: Variants the verify workload may pick; left/right halves swap W and H.
VERIFY_VARIANTS = {**{code: v for code, (_, v) in FAMILIES.items()},
                   "ah": ("top", "bottom", "left", "right")}
OEIS_SEQ = {"A004320": "ah", "A002417": "bh", "A330805": "a", "A213840": "b"}
BIJECTIONS = ("quadruple", "type_l", "type_c", "biscuit_expand")

# Orders that give each family about the same W*H, so every count costs the
# kernel about the same: 2.8M cells of box for count_wide, 0.25M for the CLI
# count, and about 3000 cells for the CLI render.
WIDE_ORDERS = {"a": 837, "b": 837, "s": 1673, "ah": 1183, "bh": 1183}
CLI_COUNT_ORDERS = {"a": 250, "b": 250, "s": 500, "ah": 354, "bh": 354}
CLI_RENDER_ORDERS = {"a": 39, "b": 40, "s": 78, "ah": 55, "bh": 56}


def _spec_order(n, variant):
    # the smaller biscuit half of order n+1 has the footprint of the larger
    # half of order n, so every variant of "size n" costs the same
    return n + 1 if variant == "smaller" else n


def _spec(code, n, variant):
    """Spec text for the shape of size n: its count is CLOSED_FORMS[code](n)."""
    name, order = FAMILIES[code][0], _spec_order(n, variant)
    return f"{name}:{order}" if variant is None else f"{name}:{order}:{variant}"


# ---------------------------------------------------------------- workloads
# Each generator returns (inputs, expected): inputs go to the program,
# expected stays here and is what the outputs are checked against.

def _shuffled(rng, inputs, expected):
    pairs = list(zip(inputs, expected))
    rng.shuffle(pairs)
    return [item for item, _ in pairs], [want for _, want in pairs]


def gen_count_wide(rng, tiny):
    inputs, expected = [], []
    for code, base in WIDE_ORDERS.items():
        n = (base // 30 if tiny else base) + rng.randint(-4, 4)
        variant = rng.choice(FAMILIES[code][1])
        inputs.append({"spec": _spec(code, n, variant),
                       "offset": [rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)],
                       "formula": [code, n]})
        expected.append(reference.CLOSED_FORMS[code](n))
    return _shuffled(rng, inputs, expected)


def _tall_spans(rng, height, width):
    """Row-convex [lo, hi) spans in [0, width), bottom row full width.

    Row widths cycle through 6..width-4, so every region holds about the same
    cells per row; lo takes a seeded walk of at most 2 per row, so
    neighbouring rows always overlap.
    """
    spans = [(0, width)]
    for r in range(1, height):
        w = 6 + (7 * r) % (width - 9)
        lo = min(max(spans[-1][0] + rng.randint(-2, 2), 0), width - w)
        spans.append((lo, lo + w))
    return spans


def gen_count_tall(rng, tiny):
    inputs, expected = [], []
    for k in range(8):
        height = (200 + 20 * k + rng.randint(-2, 2) if tiny
                  else 12000 + 1000 * k + rng.randint(-200, 200))
        spans = _tall_spans(rng, height, 32)
        expected.append(reference.count_row_convex(spans))
        x0 = rng.randint(-10**6, 10**6)
        inputs.append({"row0": rng.randint(-10**6, 10**6),
                       "spans": [[lo + x0, hi + x0] for lo, hi in spans]})
    return inputs, expected


def gen_verify(rng, tiny):
    agree_max, breakdown_max, bijection_max, terms = (4, 3, 2, 3) if tiny else (20, 14, 10, 20)
    ops = []
    for code in FAMILIES:
        for n in range(1, agree_max + 1):
            variant = rng.choice(VERIFY_VARIANTS[code])
            ops.append(({"op": "agree", "spec": _spec(code, n, variant),
                         "offset": [rng.randint(-50, 50), rng.randint(-50, 50)],
                         "formula": [code, n]},
                        reference.CLOSED_FORMS[code](n)))
    for code, double_x in (("ah", 0), ("bh", 1)):
        for n in range(1, breakdown_max + 1):
            variant = rng.choice(FAMILIES[code][1])
            tally = reference.crossing_breakdown(
                reference.half_spans(code, _spec_order(n, variant), variant), double_x)
            ops.append(({"op": "breakdown", "spec": _spec(code, n, variant),
                         "axis": [0, double_x == 1]}, tally))
    for name in BIJECTIONS:
        for n in range(1, bijection_max + 1):
            ops.append(({"op": "bijection", "name": name, "n": n},
                        reference.BIJECTION_DOMAINS[name](n)))
    for oeis_id, code in OEIS_SEQ.items():
        ops.append(({"op": "oeis", "id": oeis_id, "seq": code, "terms": terms}, terms))
    return _shuffled(rng, [op for op, _ in ops], [want for _, want in ops])


def gen_cli_cold(rng, tiny):
    scale = 20 if tiny else 1
    code = rng.choice(list(FAMILIES))
    variant = rng.choice(FAMILIES[code][1])
    n = CLI_COUNT_ORDERS[code] // scale + rng.randint(-2, 2)
    count_spec = _spec(code, n, variant)
    count_cells = reference.CELL_COUNTS[code](n)
    families = list(FAMILIES)
    rng.shuffle(families)
    verify_n = 2 if tiny else 8
    bijection_n = 2 if tiny else 8
    ids = list(OEIS_SEQ)
    rng.shuffle(ids)
    terms = 3 if tiny else 20
    render_code = rng.choice(list(FAMILIES))
    render_variant = rng.choice(FAMILIES[render_code][1])
    render_n = max(2, CLI_RENDER_ORDERS[render_code] // scale + rng.randint(-1, 1))
    render_cells = reference.CELL_COUNTS[render_code](render_n)
    ops = [
        (["count", count_spec],
         {"count": reference.CLOSED_FORMS[code](n),
          "spec": count_spec, "cells": count_cells}),
        (["verify", "--max-n", str(verify_n), "--families", ",".join(families)],
         {"families": families,
          "cells": 2 * sum(reference.CELL_COUNTS[c](k) for c in families
                           for k in range(1, verify_n + 1))}),
        (["bijections", "--max-n", str(bijection_n)],
         {name: [reference.BIJECTION_DOMAINS[name](k) for k in range(1, bijection_n + 1)]
          for name in BIJECTIONS}),
        (["oeis", "--ids", ",".join(ids), "--terms", str(terms)], {"ids": ids, "terms": terms}),
        (["render", _spec(render_code, render_n, render_variant), "--format", "svg"],
         {"cells": render_cells}),
    ]
    return _shuffled(rng, [argv + ["--json", "--no-timing"] for argv, _ in ops],
                     [want for _, want in ops])


GENERATORS = {"count_wide": gen_count_wide, "count_tall": gen_count_tall,
              "verify": gen_verify, "cli_cold": gen_cli_cold}


# ------------------------------------------------------------ correctness gate
# Each check returns the layers at fault for one operation: [] when correct.

def _error_layer(value):
    return [value["error"].split(":")[0].split(".")[0]]


def check_count(item, value, want):
    if "error" in value:
        return _error_layer(value)
    return ((["counting"] if value["count"] != want else [])
            + (["formulas"] if "formula" in value and value["formula"] != want else []))


def check_verify(item, value, want):
    if "error" in value:
        return _error_layer(value)
    kind = item["op"]
    if kind == "agree":
        return ((["counting"] if value["naive"] != want or value["fast"] != want else [])
                + (["formulas"] if value["formula"] != want else []))
    if kind == "breakdown":
        ok = value["by_class"] == want and value["total"] == sum(want.values())
        return [] if ok else ["counting"]
    if kind == "bijection":
        ok = value["verified"] and value["domain"] == want and value["image"] == want
        return [] if ok else ["bijections"]
    ok = value["ok"] and value["matches"] == want and value["source"] == "fixture"
    return [] if ok else ["oeis"]


def _cli_report_ok(command, report, want):
    if command == "count":
        return report["counts"] == {"fast": want["count"]} and report["spec"] == want["spec"]
    if command == "verify":
        return (report["families"] == want["families"]
                and all(report["results"][c]["ok"] for c in want["families"]))
    if command == "bijections":
        return all(report["results"][name]["verified"]
                   and report["results"][name]["domain_sizes"] == sizes
                   for name, sizes in want.items())
    return (report["ids"] == want["ids"]
            and all(c["matches"] == want["terms"] and c["first_mismatch"] is None
                    for c in report["checks"]))


def check_cli(argv, value, want):
    command = argv[0]
    try:
        report = json.loads(value["stdout"])
        if (value["returncode"] != 0 or report["exit_status"] != 0
                or report["command"] != command):
            return ["cli"]
        if command == "render":
            svg = report["output"]
            ok = (report["cells"] == want["cells"] and svg.startswith("<svg")
                  and svg.count("<rect ") == want["cells"])
            return [] if ok else ["render"]
        return [] if _cli_report_ok(command, report, want) else ["cli"]
    except (ValueError, KeyError, TypeError):  # no report, or not the expected shape
        return ["cli"]


CHECKS = {"count_wide": check_count, "count_tall": check_count,
          "verify": check_verify, "cli_cold": check_cli}


# ------------------------------------------------------------------ processes

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(workload, job):
    """Start a worker and send it the job; returns (started, ready, import_ms, result)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), workload],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=_child_env(), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if not line.startswith("READY "):
            raise RuntimeError(f"worker for {workload} did not start: {line!r}")
        out, _ = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S + (
            job["seconds"] if job else 0))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return started, ready, float(line.split()[1]), (json.loads(out) if job is not None else None)


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import latticerect.cli; "
                 "print(repr((time.perf_counter() - t) * 1000))")


def probe_cli_import():
    """A bare fresh-process import of the CLI module; returns (started, ended, import_ms)."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ended = time.perf_counter()
    if done.returncode != 0:
        raise RuntimeError(f"cannot import latticerect.cli: {done.stderr.strip()}")
    return started, ended, float(done.stdout)


def probe_setup(workload, speed):
    """Fresh starts until ready, each bracketed by calibration samples."""
    probe = probe_cli_import if workload == "cli_cold" else (
        lambda: run_worker(workload, None)[:3])
    probe()  # compiles bytecode and warms the file cache; not a sample
    probes = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        probes.append(probe())
    speed.sample()
    return probes


def run_cli_op(argv, traced):
    """One fresh CLI process; returns (started, ended, value, child spans or None)."""
    program = [str(HERE / "cli_child.py")] if traced else ["-m", "latticerect"]
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *program, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ended = time.perf_counter()
    spans = None
    if traced:
        last = done.stderr.strip().rsplit("\n", 1)[-1]
        if last.startswith("PERFBENCH_SPANS "):
            spans = json.loads(last.split(" ", 1)[1])
    return started, ended, {"returncode": done.returncode, "stdout": done.stdout}, spans


def run_cli_passes(inputs, seconds, trace, speed):
    """The cli_cold closed loop, shaped like worker.py's pass records."""
    passes, op_id = [], 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(passes) < (2 if trace else 1):
        traced = bool(trace) and len(passes) % 2 == 1
        record = {"traced": traced, "op_start": [], "op_end": [], "values": [], "work": {},
                  "spans": []}
        for argv in inputs:
            speed.sample_if_due()
            op_started, op_ended, value, child = run_cli_op(argv, traced)
            record["op_start"].append(op_started)
            record["op_end"].append(op_ended)
            record["values"].append(value)
            if traced:
                parent = len(record["spans"])
                record["spans"].append(["op", op_started, op_ended, None, op_id])
                if child is not None:
                    record["spans"].append(["cli.import", *child["import"], parent, op_id])
                    record["spans"].append([f"cli.{argv[0]}", *child["main"], parent, op_id])
            op_id += 1
        passes.append(record)
    speed.sample()
    return passes


def scale_passes(passes, speed):
    """Adds reference-speed operation times, and per-layer span sums for traced passes."""
    for p in passes:
        scales = [speed.scale(s, e) for s, e in zip(p["op_start"], p["op_end"])]
        p["op_s"] = [(e - s) * k for s, e, k in zip(p["op_start"], p["op_end"], scales)]
        p["raw_s"] = sum(e - s for s, e in zip(p["op_start"], p["op_end"]))
        layer_s: dict[str, float] = {}
        for name, start, end, parent, _ in p["spans"]:
            if parent is not None:
                op = p["spans"][parent]
                k = speed.scale(op[1], op[2])
                layer_s[name] = layer_s.get(name, 0.0) + (end - start) * k
        p["layer_s"] = layer_s


# -------------------------------------------------------------------- metrics

END_TO_END = {"solve_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "cells_per_s": "cells/s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_WORK = {
    "counting.count_fast": ("calls", "cells", "wh", "bands"),
    "geometry.build": ("calls", "cells"),
    "geometry.parse_shape_spec": ("calls",),
    "geometry.CellRegion": ("calls",),
    "counting.count_naive": ("calls", "candidates"),
    "counting.count_breakdown": ("calls", "rects"),
    "bijections.verify_bijection": ("calls", "domain"),
    "formulas.evaluate": ("calls",),
    "oeis.check": ("calls", "terms"),
}
CLI_COMMANDS = ("count", "verify", "bijections", "oeis", "render")
LAYERS = ("geometry", "counting", "formulas", "bijections", "oeis", "render", "cli")


def per_layer_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name, counters in PER_LAYER_WORK.items():
        units[f"{name}.ms"] = "ms"
        for counter in counters:
            units[f"{name}.{counter}"] = "count"
    units["cli.import.ms"] = "ms"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_ms"] = "ms"
    units["trace.coverage_pct"] = "%"
    return units


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(passes, setup_samples):
    timed = [p for p in passes if not p["traced"]]
    ops = [s for p in timed for s in p["op_s"]]
    value, pct, beyond = tail(ops)
    metrics = {
        "solve_s": statistics.median(sum(p["op_s"]) for p in timed),
        "op_ms_p50": statistics.median(ops) * 1000,
        "op_ms_tail": value * 1000,
        "cells_per_s": statistics.median(p["cells"] / sum(p["op_s"]) for p in timed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = {"op_samples": len(ops), "op_tail_percentile": pct, "op_tail_beyond": beyond,
             "passes": len(timed),
             "pass_solve_s": [sum(p["op_s"]) for p in timed],
             "pass_raw_s": [p["raw_s"] for p in timed]}
    return metrics, notes


def per_layer(passes, import_ms, errors):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit in per_layer_units().items():
        if unit == "ms":
            metrics[name] = 1000 * statistics.median(
                p["layer_s"].get(name[:-3], 0.0) for p in traced)
        else:
            metrics[name] = statistics.median_low(p["work"].get(name, 0) for p in traced)
    metrics["cli.import.ms"] = statistics.median(import_ms)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    metrics["trace.overhead_ms"] = 1000 * (statistics.median(sum(p["op_s"]) for p in traced)
                                           - statistics.median(sum(p["op_s"]) for p in untraced))
    metrics["trace.coverage_pct"] = statistics.median(
        100 * sum(p["layer_s"].values()) / sum(p["op_s"]) for p in traced)
    return metrics


def machine_info():
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in SRC.rglob("*.py"))
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": numba,
        "count_fast_path": "numba" if numba else "pure-python sweep",
        "src_lines": src_lines,
        "limits": LIMITS,
    }


# ----------------------------------------------------------------------- main

def main(argv=None, tiny=False):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticerect" / "__init__.py").is_file():
        print(f"error: no latticerect sources under {SRC}", file=sys.stderr)
        return 2

    workload = args.workload
    inputs, expected = GENERATORS[workload](random.Random(args.seed), tiny)
    check = CHECKS[workload]

    # One core for this process and its children, so that the calibration
    # samples measure the core the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = SpeedTrack()
    try:
        probes = probe_setup(workload, speed)
        if workload == "cli_cold":
            passes = run_cli_passes(inputs, args.seconds, args.trace, speed)
        else:
            result = run_worker(
                workload, {"inputs": inputs, "seconds": args.seconds, "trace": args.trace})[3]
            passes = result["passes"]
            speed = SpeedTrack(speed.times + result["speed"]["times"],
                               speed.loops + result["speed"]["loops"])
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    scale_passes(passes, speed)

    attempted = failed = 0
    errors: dict[str, int] = {}
    failures = []
    for p in passes:
        # cells counted: the worker reports its regions; CLI cells are known here
        p["cells"] = sum(want.get("cells", 0) if workload == "cli_cold" else value.get("cells", 0)
                         for value, want in zip(p["values"], expected))
        for item, value, want in zip(inputs, p["values"], expected):
            attempted += 1
            layers = check(item, value, want)
            if layers:
                failed += 1
                for layer in layers:
                    errors[layer] = errors.get(layer, 0) + 1
                if len(failures) < 5:
                    failures.append({"input": str(item)[:200], "layers": layers,
                                     "value": str(value)[:300]})

    setup_samples = [(ended - started) * speed.scale(started, ended)
                     for started, ended, _ in probes]
    if args.trace:
        metrics = per_layer(passes, [ms for _, _, ms in probes], errors)
        units = per_layer_units()
        notes = {}
    else:
        metrics, notes = end_to_end(passes, setup_samples)
        units = END_TO_END
    info = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(), "setup_samples_s": setup_samples,
            "speed_scale_median": statistics.median(speed.scale(t, t) for t in speed.times),
            "errors_by_layer": errors, "failures": failures, **notes}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    record = {"info": info, "result": result,
              "op_times": [[p["op_start"], p["op_end"]] for p in passes],
              "speed_samples": [speed.times, speed.loops]}
    if args.trace:
        record["spans"] = [p["spans"] for p in passes if p["traced"]]
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
