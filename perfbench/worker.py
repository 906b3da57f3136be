"""In-process benchmark worker: one process, one client, closed loop.

Started by run.py as ``python3 worker.py <workload>``.  It imports
latticerect from the checkout's ``src/``, makes one warm-up call into each
layer the workload uses, prints ``READY <import_ms>`` and reads one JSON job
from stdin: ``null`` (a set-up probe, exit at once) or ``{"inputs": [...],
"seconds": s, "trace": 0|1}``.  It then runs passes over the inputs until
``seconds`` have passed and writes one JSON result to stdout: raw operation
start and end times per pass, plus the speed.py calibration samples taken
between operations, from which run.py scales the times.

Only calls into latticerect's public functions are timed; checks and
statistics are computed outside the timed region.  With tracing on, passes
alternate untraced and traced; a traced pass records a span per operation
and one per layer call inside it, kept in memory and returned at the end.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from speed import SpeedTrack

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tracer:
    """Calls a layer function, counting calls and, when on, recording spans.

    A span is ``[name, start_s, end_s, parent_index, op_id]``; the parent of
    a layer span is the index of its operation's span.
    """

    def __init__(self):
        self.on = False
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.op_id = 0
        self.op_span = None
        self.failed_layer = None

    def call(self, name, fn, *args):
        self.calls[name] = self.calls.get(name, 0) + 1
        start = time.perf_counter() if self.on else 0.0
        try:
            return fn(*args)
        except Exception:
            self.failed_layer = name
            raise
        finally:
            if self.on:
                self.spans.append([name, start, time.perf_counter(), self.op_span, self.op_id])


def _import_latticerect():
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import latticerect
    import_ms = (time.perf_counter() - started) * 1000
    if Path(latticerect.__file__).resolve().parent != SRC / "latticerect":
        raise SystemExit(f"imported latticerect from {latticerect.__file__}, not {SRC}")
    return latticerect, import_ms


class CountWide:
    """Parse, build and count_fast one family shape; formulas give the check."""

    def __init__(self, lr):
        self.lr = lr

    def warm_up(self):
        lr = self.lr
        lr.count_fast(lr.build(lr.parse_shape_spec("aztec:2")))
        lr.evaluate(lr.SequenceId.AZTEC, 2)

    def prepare(self, item):
        return (item["spec"], tuple(item["offset"]),
                self.lr.SequenceId(item["formula"][0]), item["formula"][1])

    def run(self, t, item):
        lr = self.lr
        spec = t.call("geometry.parse_shape_spec", lr.parse_shape_spec, item[0])
        region = t.call("geometry.build", lr.build, spec, item[1])
        return region, t.call("counting.count_fast", lr.count_fast, region)

    def report(self, item, out, work):
        region, count = out
        _count_fast_work(work, region)
        _add(work, "geometry.build.cells", region.cell_count)
        return {"count": count, "formula": self.lr.evaluate(item[2], item[3]),
                "cells": region.cell_count}


class CountTall:
    """Construct a region from generated spans and count_fast it."""

    def __init__(self, lr):
        self.lr = lr

    def warm_up(self):
        lr = self.lr
        lr.count_fast(lr.CellRegion(0, ((0, 2), (1, 3))))

    def prepare(self, item):
        return item["row0"], tuple((lo, hi) for lo, hi in item["spans"])

    def run(self, t, item):
        lr = self.lr
        region = t.call("geometry.CellRegion", lr.CellRegion, item[0], item[1])
        return region, t.call("counting.count_fast", lr.count_fast, region)

    def report(self, item, out, work):
        region, count = out
        _count_fast_work(work, region)
        return {"count": count, "cells": region.cell_count}


class Verify:
    """The paper's cross-checks, each a direct call into the layer it checks."""

    def __init__(self, lr):
        self.lr = lr

    def warm_up(self):
        lr = self.lr
        region = lr.build(lr.parse_shape_spec("aztec-half:2"))
        lr.count_naive(region)
        lr.count_fast(region)
        lr.count_breakdown(region, lr.Axis(0))
        lr.evaluate(lr.SequenceId.AZTEC_HALF, 2)
        lr.verify_bijection("quadruple", 1)
        lr.check("A004320", lr.SequenceId.AZTEC_HALF, 1)

    def prepare(self, item):
        lr = self.lr
        kind = item["op"]
        if kind == "agree":
            return (kind, item["spec"], tuple(item["offset"]),
                    lr.SequenceId(item["formula"][0]), item["formula"][1])
        if kind == "breakdown":
            return kind, item["spec"], lr.Axis(item["axis"][0], item["axis"][1])
        if kind == "bijection":
            return kind, item["name"], item["n"]
        return kind, item["id"], lr.SequenceId(item["seq"]), item["terms"]

    def run(self, t, item):
        lr = self.lr
        kind = item[0]
        if kind == "agree":
            spec = t.call("geometry.parse_shape_spec", lr.parse_shape_spec, item[1])
            region = t.call("geometry.build", lr.build, spec, item[2])
            return (region,
                    t.call("counting.count_naive", lr.count_naive, region),
                    t.call("counting.count_fast", lr.count_fast, region),
                    t.call("formulas.evaluate", lr.evaluate, item[3], item[4]))
        if kind == "breakdown":
            spec = t.call("geometry.parse_shape_spec", lr.parse_shape_spec, item[1])
            region = t.call("geometry.build", lr.build, spec)
            return region, t.call("counting.count_breakdown", lr.count_breakdown,
                                  region, item[2])
        if kind == "bijection":
            return t.call("bijections.verify_bijection", lr.verify_bijection,
                          item[1], item[2])
        return t.call("oeis.check", lr.check, item[1], item[2], item[3])

    def report(self, item, out, work):
        kind = item[0]
        if kind == "agree":
            region, naive, fast, formula = out
            _add(work, "geometry.build.cells", region.cell_count)
            _count_fast_work(work, region)
            if not region.is_empty:
                box = region.bounding_box()
                w, h = box.b - box.a, box.d - box.c
                _add(work, "counting.count_naive.candidates",
                     w * (w + 1) // 2 * (h * (h + 1) // 2))
            return {"naive": naive, "fast": fast, "formula": formula,
                    "cells": 2 * region.cell_count}
        if kind == "breakdown":
            region, breakdown = out
            _add(work, "geometry.build.cells", region.cell_count)
            _add(work, "counting.count_breakdown.rects", breakdown.total)
            return {"total": breakdown.total, "cells": region.cell_count,
                    "by_class": {cls.value: v for cls, v in breakdown.by_class.items()}}
        if kind == "bijection":
            _add(work, "bijections.verify_bijection.domain", out.domain_size)
            return {"verified": out.verified, "domain": out.domain_size,
                    "image": out.image_size}
        _add(work, "oeis.check.terms", item[3])
        return {"ok": out.ok, "matches": out.matches, "source": out.source}


WORKLOADS = {"count_wide": CountWide, "count_tall": CountTall, "verify": Verify}


def _add(work, key, value):
    work[key] = work.get(key, 0) + value


def _count_fast_work(work, region):
    _add(work, "counting.count_fast.cells", region.cell_count)
    if not region.is_empty:
        box = region.bounding_box()
        w, h = box.b - box.a, box.d - box.c
        _add(work, "counting.count_fast.wh", w * h)
        _add(work, "counting.count_fast.bands", h * (h + 1) // 2)


def run_pass(workload, items, tracer, traced, speed):
    """One pass over the inputs; returns the pass record for run.py."""
    tracer.on = traced
    tracer.spans = []
    tracer.calls = {}
    work: dict[str, int] = {}
    starts, ends, values = [], [], []
    for item in items:
        speed.sample_if_due()
        tracer.failed_layer = None
        if traced:
            tracer.op_span = len(tracer.spans)
            tracer.spans.append(["op", 0.0, 0.0, None, tracer.op_id])
        started = time.perf_counter()
        try:
            out = workload.run(tracer, item)
        except Exception as err:  # an operation's failure is a result, not a crash
            ended = time.perf_counter()
            value = {"error": f"{tracer.failed_layer}: {type(err).__name__}: {err}"}
        else:
            ended = time.perf_counter()
            value = workload.report(item, out, work)
        if traced:
            tracer.spans[tracer.op_span][1:3] = [started, ended]
        tracer.op_id += 1
        starts.append(started)
        ends.append(ended)
        values.append(value)
    for name, calls in tracer.calls.items():
        work[name + ".calls"] = calls
    return {"traced": traced, "op_start": starts, "op_end": ends, "values": values,
            "work": work, "spans": tracer.spans if traced else []}


def main(argv):
    lr, import_ms = _import_latticerect()
    workload = WORKLOADS[argv[1]](lr)
    workload.warm_up()
    print(f"READY {import_ms!r}", flush=True)
    job = json.load(sys.stdin)
    if job is None:
        return 0
    items = [workload.prepare(item) for item in job["inputs"]]
    tracer = Tracer()
    speed = SpeedTrack()
    passes = []
    started = time.perf_counter()
    while (time.perf_counter() - started < job["seconds"]
           or len(passes) < (2 if job["trace"] else 1)):
        traced = bool(job["trace"]) and len(passes) % 2 == 1
        passes.append(run_pass(workload, items, tracer, traced, speed))
    speed.sample()
    json.dump({"passes": passes, "speed": {"times": speed.times, "loops": speed.loops}},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
