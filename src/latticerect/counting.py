"""Exact lattice-rectangle counts inside a cell region, three independent ways.

``count_naive`` is the oracle: enumerate every candidate rectangle in the
bounding box and test fullness against a 2D prefix-sum table, O(W^2 H^2).
The rest use row-convexity: rows c..d-1 contain exactly the rectangles whose
columns lie in ``[max lo, min hi)`` of those rows.  One numpy walker,
``_bands``, visits every such non-empty row band; ``count_fast`` sums
C(w+1, 2) over them and ``count_breakdown`` splits each band by crossing class
in closed form.  ``rectangles`` lists the bands' rectangles, at the cost of its
output.  Closed forms live in :mod:`latticerect.formulas`; the routes agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from . import formulas
from .geometry import (Axis, CellRegion, Family, LatticeRect, Part, ShapeSpec,
                       build)


class CrossingClass(Enum):
    """Position of a rectangle relative to a vertical axis.

    A rectangle whose open interior meets the axis is LEFT, RIGHT, or CENTERED
    according to whether the part left of the axis is wider than, narrower
    than, or exactly as wide as the part right of it; anything else is
    NON_CROSSING.
    """

    LEFT = "L"
    RIGHT = "R"
    CENTERED = "C"
    NON_CROSSING = "non-crossing"


def classify(rect: LatticeRect, axis: Axis) -> CrossingClass:
    dx = axis.double_x  # widths compared in half-units, exact for both kinds
    if not (2 * rect.a < dx < 2 * rect.b):
        return CrossingClass.NON_CROSSING
    left = dx - 2 * rect.a
    right = 2 * rect.b - dx
    if left > right:
        return CrossingClass.LEFT
    if left < right:
        return CrossingClass.RIGHT
    return CrossingClass.CENTERED


def _prefix_table(region: CellRegion) -> list[list[int]]:
    """Cumulative cell counts: P[r][i] = cells in rows < r, columns < i (box-relative)."""
    box = region.bounding_box()
    width = box.b - box.a
    table = [[0] * (width + 1)]
    for _, lo, hi in region.rows():
        lo2, hi2 = lo - box.a, hi - box.a
        prev = table[-1]
        table.append([prev[i] + min(i, hi2) - min(i, lo2) for i in range(width + 1)])
    return table


def count_naive(region: CellRegion) -> int:
    """Oracle count: try every (a, b) x (c, d) in the bounding box."""
    if region.is_empty:
        return 0
    table = _prefix_table(region)
    width = len(table[0]) - 1
    height = len(table) - 1
    total = 0
    for c in range(height):
        row_c = table[c]
        for d in range(c + 1, height + 1):
            row_d = table[d]
            nrows = d - c
            for a in range(width):
                da = row_d[a]
                ca = row_c[a]
                for b in range(a + 1, width + 1):
                    if row_d[b] - row_c[b] - da + ca == (b - a) * nrows:
                        total += 1
    return total


def rectangles(region: CellRegion) -> Iterator[LatticeRect]:
    """All rectangles in the region, band by band in (c, d, a, b) order; costs the output."""
    spans = region.spans
    for k, (lo, hi) in enumerate(spans):
        c = region.row0 + k
        for top in range(k, len(spans)):
            lo, hi = max(lo, spans[top][0]), min(hi, spans[top][1])
            if lo >= hi:
                break  # every taller band on bottom row c is empty too
            d = region.row0 + top + 1
            for a in range(lo, hi):
                for b in range(a + 1, hi + 1):
                    yield LatticeRect(a, b, c, d)


#: Name of the count_fast implementation, reported by the CLI.
BACKEND = "numpy-bands"


def _bands(region: CellRegion) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, per band height, the box-relative columns ``[lo, hi)`` of every non-empty band.

    All bands of one height grow together by one row.  A band is dropped once
    empty, as every taller band on its bottom row is empty too; an empty
    sentinel span above the top row ends the bands that reach it.
    """
    if region.is_empty:
        return
    spans = np.array(region.spans, dtype=object)
    spans -= spans[:, 0].min()
    width = spans[:, 1].max()
    if width * (width + 1) * len(spans) < 2**63:  # else exact on Python ints
        spans = spans.astype(np.int64)  # every per-height w @ (w + 1) fits
    lo, hi = np.append(spans, [[0, 0]], axis=0).T
    top = np.arange(len(spans))  # top row of each live band, one band per bottom row
    cur_lo, cur_hi = lo[:-1], hi[:-1]
    while top.size:
        yield cur_lo, cur_hi
        top += 1
        cur_lo = np.maximum(cur_lo, lo[top])
        cur_hi = np.minimum(cur_hi, hi[top])
        live = cur_lo < cur_hi
        top, cur_lo, cur_hi = top[live], cur_lo[live], cur_hi[live]


def count_fast(region: CellRegion) -> int:
    """Same value as count_naive, summed over row bands; exact at any size."""
    return sum(int((w := hi - lo) @ (w + 1)) // 2 for lo, hi in _bands(region))


@dataclass(frozen=True)
class CountBreakdown:
    """Rectangle count split by crossing class relative to one axis."""

    total: int
    by_class: Mapping[CrossingClass, int]

    @property
    def crossing(self) -> int:
        return self.total - self.by_class[CrossingClass.NON_CROSSING]


def count_breakdown(region: CellRegion, axis: Axis) -> CountBreakdown:
    """Split the rectangle count by crossing class about the axis; costs the bands.

    A band's crossing rectangles pair one of its p lines left of the axis with
    one of its q lines right of it.  The i-th and j-th lines out from the axis
    are equally far when i = j: centered, left- and right-heavy are i =, >, < j.
    """
    tally = dict.fromkeys(CrossingClass, 0)
    if not region.is_empty:
        box = region.bounding_box()
        # clamped into the box; then p*q <= (W+1)^2/4 keeps _bands' int64 bound
        dx = min(max(axis.double_x - 2 * box.a, -1), 2 * box.width + 1)
        for lo, hi in _bands(region):
            p = np.maximum(np.minimum(hi, (dx - 1) // 2) - lo + 1, 0)
            q = np.maximum(hi - np.maximum(lo, dx // 2 + 1) + 1, 0)
            k = np.minimum(p, q)
            pairs = int(k @ (k - 1)) // 2
            tally[CrossingClass.LEFT] += int(k @ (p - 1)) - pairs
            tally[CrossingClass.RIGHT] += int(k @ (q - 1)) - pairs
            tally[CrossingClass.CENTERED] += int(k.sum())
            tally[CrossingClass.NON_CROSSING] += int((hi - lo) @ (hi - lo + 1)) // 2 - int(p @ q)
    return CountBreakdown(sum(tally.values()), MappingProxyType(tally))


#: Counters that run on a built region; the formula route needs none.
REGION_COUNTERS = {"naive": count_naive, "fast": count_fast}
COUNT_METHODS = (*REGION_COUNTERS, "formula")


def count_family(spec: ShapeSpec, method: str = "fast") -> int:
    """Count a family shape by the chosen method; all methods agree.

    The formula route is order-based: variants of a family share one count,
    and the smaller biscuit half of order n matches the larger half of order
    n-1.
    """
    if method == "formula":
        n = spec.n
        if spec.family is Family.BISCUIT_HALF and spec.variant is Part.SMALLER:
            n -= 1
        return formulas.evaluate(formulas.SequenceId[spec.family.name], n)
    if method not in REGION_COUNTERS:
        raise ValueError(f"unknown method {method!r}; expected one of {COUNT_METHODS}")
    return REGION_COUNTERS[method](build(spec))
