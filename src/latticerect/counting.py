"""Exact lattice-rectangle counts inside a cell region, three independent ways.

``count_naive`` is the oracle: it tests every candidate rectangle in the
bounding box once for fullness against a 2D prefix-sum table, a chunk of
bands per numpy step, still O(W^2 H^2) work.
The rest use row-convexity: rows c..d-1 contain exactly the rectangles whose
columns lie in ``[max lo, min hi)`` of those rows.  ``count_fast`` takes the
spans as a (2, H) array, lo then hi, and sums C(w+1, 2) over the bands: those
inside 32-row leaves a band height per numpy step, on contiguous (leaf row,
leaf) slabs of all leaves at once, and the rest by a divide and conquer over
rows, a level per numpy step up to the tallest band's height and one last pass
for the bands left, O(H log H) in all.  ``count_breakdown`` grows all bands a
row per step up to the tallest band's height and sums each step's non-empty ones;
``rectangles`` lists the bands' rectangles at the cost of its output.
``count_formula``, the third way, applies the closed forms of :mod:`latticerect.formulas`.
numpy is imported by the functions that use it, so only these counts load it.
"""
from __future__ import annotations

from enum import Enum
from operator import itemgetter
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
    """The rows' ``[lo, hi)`` as a (2, H) array, lo then hi, shifted so the box starts
    at 0; int64 while ``bound(W, H)`` fits it, else Python ints."""
    import numpy as np
    try:
        spans = np.array([np.fromiter(map(itemgetter(k), region.spans), np.int64,
                                      region.height) for k in (0, 1)])
    except OverflowError:  # far from the origin: Python ints, shifted below like any other
        spans = np.array(region.spans, dtype=object).T
    left = int(spans.min())
    if bound(int(spans.max()) - left, region.height) < 2**63:
        return (spans - left).astype(np.int64, copy=False)
    return spans.astype(object) - left


def _leaf_bands(spans: np.ndarray) -> int:
    """Twice the sum of C(w+1, 2) over the bands inside aligned blocks of _LEAF_ROWS rows.

    lo and hi are laid out once as contiguous (leaf row, block) arrays, so step k
    widens the height-k bands of every block, the leading (_LEAF_ROWS - k + 1,
    blocks) slab, to height k + 1 by the slab k rows on.  An empty band stays
    empty, so widths clipped at 0 count it as 0, and a step summing to 0 ends the walk.
    """
    import numpy as np
    rows = np.zeros((2, -(-spans.shape[1] // _LEAF_ROWS) * _LEAF_ROWS), spans.dtype)
    rows[:, :spans.shape[1]] = spans  # empty rows fill the last block
    lo, hi = rows.reshape(2, -1, _LEAF_ROWS).transpose(0, 2, 1).copy()
    cur_lo, cur_hi, total = lo, hi, 0
    for k in range(1, min(_LEAF_ROWS, spans.shape[1]) + 1):
        w = (cur_hi - cur_lo).ravel()
        step = int(np.maximum(w, 0, out=w) @ (w + 1))
        if not step:
            break
        total += step
        cur_lo = np.maximum(cur_lo[:-1], lo[k:])
        cur_hi = np.minimum(cur_hi[:-1], hi[k:])
    return total


def _next_pass(s: int, shift: int, reach: int, left: int, right: int,
               height: int) -> tuple[int, int, int] | None:
    """(s, shift, reach) of the pass after one at level s whose middle rows have
    at most ``left`` live rows above and ``right`` below, or None after the last."""
    if max(left, right) < s:  # no band fills a half block: none is taller than this
        reach = min(reach, max(s, left + right))
    step = (2 * s, 0, reach) if reach > s else (s, s, reach)
    return None if shift or 2 * s >= height else step


def _crossing_bands(spans: np.ndarray) -> int:
    """Twice the sum of C(w+1, 2) over the bands that cross a leaf boundary.

    A pass at level s cuts the rows, after ``shift`` empty ones, into blocks of
    2s about middle rows m.  A_i, P_i are the min of hi and max of lo over rows
    m-1-i..m-1, and B_t, Q_t over rows m..m+t, for i, t < min(s, reach).
    Where A > P, band [m-1-i, m+t] has w = min(A, B) - max(P, Q) > 0 until
    B <= P, Q >= A or B <= Q; w is A - P until B < A or Q > P, then B - P or
    A - Q, then B - Q, all from prefix sums over the leading entries with B > Q.
    Keys offset by block * (W + 2) let one searchsorted serve all blocks and
    keep each search inside its block's kept entries.
    ``reach`` bounds all band heights once no band at a level fills a half
    block.  Once ``reach <= s``, each band left crosses one multiple of 2s, and
    one pass with s empty rows first sums them all: the passes stop at the
    tallest band, not at H.
    """
    import numpy as np
    total, height, width = 0, spans.shape[1], int(spans.max())
    step = (_LEAF_ROWS, 0, height) if _LEAF_ROWS < height else None
    while step:  # inline: a helper freed each pass's arrays at once, and the heap refaulted
        s, shift, reach = step
        r, blocks = min(s, reach), -(-(height + shift) // (2 * s))
        rows = np.zeros((2, 2 * s * blocks), spans.dtype)  # object zeros are Python ints
        rows[:, shift:shift + height] = spans
        lo, hi = rows.reshape(2, blocks, 2, s)
        a = np.minimum.accumulate(hi[:, 0, ::-1][:, :r], axis=1)
        p = np.maximum.accumulate(lo[:, 0, ::-1][:, :r], axis=1)
        b = np.minimum.accumulate(hi[:, 1, :r], axis=1)
        q = np.maximum.accumulate(lo[:, 1, :r], axis=1)
        left, right = (live := a > p).sum(axis=1), (held := b > q).sum(axis=1)
        key = np.arange(blocks, dtype=spans.dtype)[:, None] * (width + 2)
        b_key, q_key, b, q = (key + width - b)[held], (key + q)[held], b[held], q[held]
        sums = np.zeros((5, b.size + 1), spans.dtype)  # prefix sums along the kept rows
        sums[0, 1:], sums[2, 1:] = b, q
        np.multiply(b, b + 1, out=sums[1, 1:])
        np.multiply(q, q - 1, out=sums[3, 1:])
        np.multiply(d := b - q, d + 1, out=sums[4, 1:])
        np.cumsum(sums, axis=1, out=sums)
        block = live.nonzero()[0]  # a block's kept entries start after the earlier blocks'
        a, p, key, start = a[live], p[live], key[block, 0], (right.cumsum() - right)[block]
        end = np.minimum(b_key.searchsorted(key + width - p), q_key.searchsorted(key + a))
        b_min = np.minimum(b_key.searchsorted(key + width - a, "right"), end)
        p_max = np.minimum(q_key.searchsorted(key + p, "right"), end)
        both, split = np.minimum(b_min, p_max), np.maximum(b_min, p_max)
        sb, sbb, sq, sqq, sw = (row.take(split) - row.take(at) for row, at in
                                zip(sums, (b_min, b_min, p_max, p_max, end)))
        total += int(np.sum((both - start) * (a - p) * (a - p + 1)
                            + sbb - 2 * p * sb + (split - b_min) * p * (p - 1)
                            + sqq - 2 * a * sq + (split - p_max) * a * (a + 1)
                            - sw))
        step = _next_pass(s, shift, reach, int(left.max()), int(right.max()), height)
    return total


def count_fast(region: CellRegion) -> int:
    """Same value as count_naive, exact at any size."""
    if region.is_empty:
        return 0
    # (H(W+1))^2 < 2**63 holds the level sums, at most H^2 W(W+1)/4, in int64
    spans = _box_spans(region, lambda w, h: (h * (w + 1)) ** 2)
    return (_leaf_bands(spans) + _crossing_bands(spans)) // 2


class CountBreakdown(_Record):
    """Rectangle count split by crossing class relative to one axis."""

    __slots__ = ("total", "by_class")

    def __init__(self, total: int, by_class: Mapping[CrossingClass, int]):
        self._set(total, MappingProxyType(dict(by_class)))

    def __reduce__(self) -> tuple:
        return CountBreakdown, (self.total, dict(self.by_class))  # a mappingproxy won't pickle

    def __hash__(self) -> int:
        return hash((self.total, frozenset(self.by_class.items())))  # as it compares

    @property
    def crossing(self) -> int:
        return self.total - self.by_class[CrossingClass.NON_CROSSING]


def count_breakdown(region: CellRegion, axis: Axis) -> CountBreakdown:
    """Split the rectangle count by crossing class about the axis, a band height a step.

    Step h sums the non-empty height-h bands, up to the tallest band's height.
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
        spans = _box_spans(region, lambda w, h: w * (w + 1) * h)
        cur_lo, cur_hi = spans  # the bands of height h, one per bottom row
        for h in range(1, region.height + 1):
            live = cur_lo < cur_hi
            if not live.any():
                break  # every taller band holds an empty one
            lo, hi = cur_lo[live], cur_hi[live]
            p = np.maximum(np.minimum(hi, (dx - 1) // 2) - lo + 1, 0)
            q = np.maximum(hi - np.maximum(lo, dx // 2 + 1) + 1, 0)
            k = np.minimum(p, q)
            pairs = int(k @ (k - 1)) // 2
            tally[CrossingClass.LEFT] += int(k @ (p - 1)) - pairs
            tally[CrossingClass.RIGHT] += int(k @ (q - 1)) - pairs
            tally[CrossingClass.CENTERED] += int(k.sum())
            tally[CrossingClass.NON_CROSSING] += int((hi - lo) @ (hi - lo + 1)) // 2 - int(p @ q)
            cur_lo = np.maximum(cur_lo[:-1], spans[0, h:])
            cur_hi = np.minimum(cur_hi[:-1], spans[1, h:])
    return CountBreakdown(sum(tally.values()), tally)


def count_formula(spec: ShapeSpec) -> int:
    """Count a family shape by its closed form, at any order.

    The count is order-based: variants of a family share one count, and the
    smaller biscuit half of order n matches the larger half of order n-1.
    """
    n = spec.n + _PIECES[spec.variant or spec.family][1]  # the order change of its piece
    return formulas.evaluate(formulas.SequenceId[spec.family.name], n)
