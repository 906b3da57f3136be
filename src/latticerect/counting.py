"""Exact lattice-rectangle counts inside a cell region, three independent ways.

``count_naive`` is the oracle: it tests every candidate rectangle in the
bounding box once for fullness against a 2D prefix-sum table, a chunk of
bands per numpy step, still O(W^2 H^2) work.
The rest use row-convexity: rows c..d-1 contain exactly the rectangles whose
columns lie in ``[max lo, min hi)`` of those rows.  ``count_fast`` sums
C(w+1, 2) over the non-empty bands: those inside 32-row leaves by the band
walk, a band height per numpy step, which ``count_breakdown`` also uses, and
the rest by a divide and conquer over rows, a level per numpy step, O(H log H)
in all.  ``rectangles`` lists the bands' rectangles at the cost of its output.
``count_formula``, the third way, applies the closed forms of :mod:`latticerect.formulas`.
numpy is imported by the functions that use it, so only these counts load it.
"""
from __future__ import annotations

from enum import Enum
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from . import formulas
from .geometry import _PIECES, Axis, CellRegion, LatticeRect, ShapeSpec, _Record


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
    a, b, _, _ = rect
    dx = axis.double_x  # in half-units, exact for both kinds: the left part is dx - 2a wide,
    if not (2 * a < dx < 2 * b):  # the right one 2b - dx, so a + b - dx is their difference
        return CrossingClass.NON_CROSSING
    if a + b == dx:
        return CrossingClass.CENTERED
    return CrossingClass.LEFT if a + b < dx else CrossingClass.RIGHT


#: count_naive holds about this many band-column differences per numpy chunk, one band at least.
_NAIVE_CHUNK = 2**16


def count_naive(region: CellRegion) -> int:
    """Oracle count: test each (a, b) x (c, d) in the bounding box once, a chunk of bands a step.

    M[i, r] counts the cells missing from rows < r left of column i, box-relative, and
    S[i] = M[i, d] - M[i, c]: rows c..d-1 hold columns a..b-1 exactly when S[a] == S[b].
    A chunk holds one band's S per column, height by height, and compares rows g = b - a apart.
    """
    import numpy as np
    if region.is_empty:
        return 0
    box, height = region.bounding_box(), region.height
    lo, hi = np.array([(lo - box.a, hi - box.a) for lo, hi in region.spans]).T[..., None]
    cols = np.arange(box.width + 1)
    missing = np.zeros((cols.size, height + 1), np.int64)
    np.cumsum(cols + lo - np.clip(cols, lo, hi), axis=0, out=missing[:, 1:].T)
    bands = min(height * (height + 1) // 2, max(1, _NAIVE_CHUNK // cols.size))
    chunk = np.empty((cols.size, bands), np.int64)
    total = filled = 0
    for k in range(1, height + 1):
        c = 0
        while c <= height - k:  # the height-k bands from top row c on, up to a full chunk
            n = min(height - k + 1 - c, bands - filled)
            np.subtract(missing[:, c + k:c + k + n], missing[:, c:c + n],
                        out=chunk[:, filled:filled + n])
            c, filled = c + n, filled + n
            if filled == bands or k == height:
                part, filled = chunk[:, :filled], 0
                total += sum(int(np.count_nonzero(part[g:] == part[:-g]))
                             for g in range(1, cols.size))
    return total


def _row_bands(region: CellRegion) -> Iterator[tuple[int, int, int, int]]:
    """Yield (c, d, lo, hi) for each non-empty band: rows c..d-1 hold columns [lo, hi)."""
    spans = region.spans
    for k, (lo, hi) in enumerate(spans):
        for top in range(k, len(spans)):
            lo, hi = max(lo, spans[top][0]), min(hi, spans[top][1])
            if lo >= hi:
                break  # every taller band on bottom row k is empty too
            yield region.row0 + k, region.row0 + top + 1, lo, hi


def rectangles(region: CellRegion) -> Iterator[LatticeRect]:
    """All rectangles in the region, band by band in (c, d, a, b) order; costs the output."""
    return (LatticeRect(a, b, c, d) for c, d, lo, hi in _row_bands(region)
            for a in range(lo, hi) for b in range(a + 1, hi + 1))


#: Name of the count_fast implementation, reported by the CLI.
BACKEND = "numpy-bands"
#: count_fast walks the bands inside aligned blocks of this many rows.
_LEAF_ROWS = 32


def _box_spans(region: CellRegion, bound: Callable[[int, int], int]) -> np.ndarray:
    """The rows' ``[lo, hi)`` as an (H, 2) array shifted so the box starts at 0;
    int64 while ``bound(W, H)`` fits it, else Python ints."""
    import numpy as np
    try:
        spans = np.fromiter(chain.from_iterable(region.spans), np.int64).reshape(-1, 2)
    except OverflowError:  # far from the origin: Python ints, shifted below like any other
        spans = np.array(region.spans, dtype=object)
    left = int(spans.min())
    if bound(int(spans.max()) - left, region.height) < 2**63:
        return (spans - left).astype(np.int64, copy=False)
    return spans.astype(object) - left


def _bands(spans: np.ndarray, leaf: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, per band height, the columns ``[lo, hi)`` of every non-empty band.

    All bands of one height grow together by one row and drop out once empty:
    so is every taller band on their bottom row.  The row above the last, and
    with ``leaf`` the first of each aligned block of ``leaf`` rows, ends them.
    """
    import numpy as np
    lo, hi = np.append(spans, [[0, 0]], axis=0).T
    if leaf:
        hi[leaf::leaf] = 0
    top = np.arange(len(spans))  # top row of each live band, one band per bottom row
    cur_lo, cur_hi = spans.T
    while top.size:
        yield cur_lo, cur_hi
        top += 1
        cur_lo = np.maximum(cur_lo, lo[top])
        cur_hi = np.minimum(cur_hi, hi[top])
        live = cur_lo < cur_hi
        top, cur_lo, cur_hi = top[live], cur_lo[live], cur_hi[live]


def _crossing_bands(spans: np.ndarray) -> int:
    """Twice the sum of C(w+1, 2) over the bands that cross a leaf boundary.

    Level s cuts the rows into blocks of 2s about middle rows m.  A_i, P_i are
    the min of hi and max of lo over rows m-1-i..m-1, and B_t, Q_t over rows
    m..m+t.  Where A > P, band [m-1-i, m+t] has w = min(A, B) - max(P, Q) > 0
    until B <= P, Q >= A or B <= Q; w is A - P until B < A or Q > P, then B - P
    or A - Q, then B - Q, all from prefix sums.  Keys offset by block * (W + 2)
    let one searchsorted serve all blocks.  ``reach`` bounds all band heights
    once no band at a level fills a half block.
    """
    import numpy as np
    total, s, height, reach = 0, _LEAF_ROWS, len(spans), len(spans)
    while s < height:
        r, blocks, pad = min(s, reach), -(-height // (2 * s)), -height % (2 * s)
        lo, hi = np.concatenate((spans, 0 * spans[:pad])).T.reshape(2, blocks, 2, s)
        a = np.minimum.accumulate(hi[:, 0, ::-1][:, :r], axis=1)
        p = np.maximum.accumulate(lo[:, 0, ::-1][:, :r], axis=1)
        b = np.minimum.accumulate(hi[:, 1, :r], axis=1)
        q = np.maximum.accumulate(lo[:, 1, :r], axis=1)
        left, right = (live := a > p).sum(axis=1), (b > q).sum(axis=1)
        if max(left.max(), right.max()) < s:
            reach = min(reach, max(s, int(left.max() + right.max())))
        width = int(hi.max())
        key = np.arange(blocks, dtype=spans.dtype)[:, None] * (width + 2)
        b_key, q_key, b, q = (key + width - b).ravel(), (key + q).ravel(), b.ravel(), q.ravel()
        sums = np.stack((b, b * (b + 1), q, q * (q - 1), (b - q) * (b - q + 1))).cumsum(axis=1)
        sums = np.concatenate((0 * sums[:, :1], sums), axis=1)  # prefix sums along the rows
        block = live.nonzero()[0]
        a, p, key, start = a[live], p[live], key[block, 0], block * r
        end = np.minimum(np.minimum(b_key.searchsorted(key + width - p),
                                    q_key.searchsorted(key + a)), right[block] + start)
        b_min = np.minimum(b_key.searchsorted(key + width - a, "right"), end)
        p_max = np.minimum(q_key.searchsorted(key + p, "right"), end)
        both, split = np.minimum(b_min, p_max), np.maximum(b_min, p_max)
        sb, sbb, sq, sqq, sw = (row.take(split) - row.take(at) for row, at in
                                zip(sums, (b_min, b_min, p_max, p_max, end)))
        total += int(np.sum((both - start) * (a - p) * (a - p + 1)
                            + sbb - 2 * p * sb + (split - b_min) * p * (p - 1)
                            + sqq - 2 * a * sq + (split - p_max) * a * (a + 1)
                            - sw))
        s *= 2
    return total


def count_fast(region: CellRegion) -> int:
    """Same value as count_naive, exact at any size."""
    if region.is_empty:
        return 0
    # (H(W+1))^2 < 2**63 holds the level sums, at most H^2 W(W+1)/4, in int64
    spans = _box_spans(region, lambda w, h: (h * (w + 1)) ** 2)
    inside = sum(int((w := hi - lo) @ (w + 1)) for lo, hi in _bands(spans, _LEAF_ROWS))
    return (inside + _crossing_bands(spans)) // 2


class CountBreakdown(_Record):
    """Rectangle count split by crossing class relative to one axis."""

    __slots__ = ("total", "by_class")

    def __init__(self, total: int, by_class: Mapping[CrossingClass, int]):
        self._set(total, MappingProxyType(dict(by_class)))

    def __reduce__(self) -> tuple:
        return CountBreakdown, (self.total, dict(self.by_class))  # a mappingproxy won't pickle

    @property
    def crossing(self) -> int:
        return self.total - self.by_class[CrossingClass.NON_CROSSING]


def count_breakdown(region: CellRegion, axis: Axis) -> CountBreakdown:
    """Split the rectangle count by crossing class about the axis; costs the bands.

    A band's crossing rectangles pair one of its p lines left of the axis with
    one of its q lines right of it.  The i-th and j-th lines out from the axis
    are equally far when i = j: centered, left- and right-heavy are i =, >, < j.
    """
    import numpy as np
    tally = dict.fromkeys(CrossingClass, 0)
    if not region.is_empty:
        box = region.bounding_box()
        # clamped into the box; then p*q <= (W+1)^2/4 stays inside the int64 bound below
        dx = min(max(axis.double_x - 2 * box.a, -1), 2 * box.width + 1)
        for lo, hi in _bands(_box_spans(region, lambda w, h: w * (w + 1) * h)):
            p = np.maximum(np.minimum(hi, (dx - 1) // 2) - lo + 1, 0)
            q = np.maximum(hi - np.maximum(lo, dx // 2 + 1) + 1, 0)
            k = np.minimum(p, q)
            pairs = int(k @ (k - 1)) // 2
            tally[CrossingClass.LEFT] += int(k @ (p - 1)) - pairs
            tally[CrossingClass.RIGHT] += int(k @ (q - 1)) - pairs
            tally[CrossingClass.CENTERED] += int(k.sum())
            tally[CrossingClass.NON_CROSSING] += int((hi - lo) @ (hi - lo + 1)) // 2 - int(p @ q)
    return CountBreakdown(sum(tally.values()), tally)


def count_formula(spec: ShapeSpec) -> int:
    """Count a family shape by its closed form, at any order.

    The count is order-based: variants of a family share one count, and the
    smaller biscuit half of order n matches the larger half of order n-1.
    """
    n = spec.n + _PIECES[spec.variant or spec.family][1]  # the order change of its piece
    return formulas.evaluate(formulas.SequenceId[spec.family.name], n)
