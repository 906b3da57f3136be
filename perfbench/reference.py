"""Exact reference values the benchmark checks latticerect against.

Nothing here imports latticerect.  Family counts come from the paper's
factored closed forms; arbitrary row-convex regions are counted column pair
by column pair (a different algorithm from the library's row sweep); the
crossing-class breakdown is a direct band-by-band enumeration.
"""
from __future__ import annotations

from math import comb

import numpy as np


def staircase_count(n: int) -> int:
    return comb(n + 3, 4)


#: Rectangle count of each family by its short code, from the paper.
CLOSED_FORMS = {
    "s": staircase_count,
    "ah": lambda n: n * (n + 1) * (n + 2) ** 2 // 6,
    "bh": lambda n: n * n * (n + 1) * (n + 2) // 6,
    "a": lambda n: n * (n + 1) * (4 * n * n + 12 * n + 11) // 6,
    "b": lambda n: n * (n + 1) * (4 * n * n - 4 * n + 3) // 6,
}

#: Cell count of each family by its short code.
CELL_COUNTS = {
    "s": lambda n: n * (n + 1) // 2,
    "ah": lambda n: n * (n + 1),
    "bh": lambda n: n * n,
    "a": lambda n: 2 * n * (n + 1),
    "b": lambda n: n * n + (n - 1) ** 2,
}

#: Domain size of each bijection at order n, in staircase counts s(n).
BIJECTION_DOMAINS = {
    "quadruple": staircase_count,
    "type_l": lambda n: staircase_count(n - 1),
    "type_c": lambda n: staircase_count(n) - staircase_count(n - 1),
    "biscuit_expand": lambda n: staircase_count(n) + staircase_count(n - 1),
}


def count_row_convex(spans) -> int:
    """Rectangles in a row-convex region given as [lo, hi) spans, bottom up.

    For each column range [a, b) the rows that contain it form runs; a run
    of length L holds L(L+1)/2 rectangles with that column range.  Cost is
    O(W^2 H) vectorised, fine for the narrow tall regions it serves.
    """
    lo = np.array([s[0] for s in spans], dtype=np.int64)
    hi = np.array([s[1] for s in spans], dtype=np.int64)
    total = 0
    for a in range(int(lo.min()), int(hi.max())):
        starts_ok = lo <= a
        for b in range(a + 1, int(hi.max()) + 1):
            inside = np.concatenate(([False], starts_ok & (hi >= b), [False]))
            edges = np.flatnonzero(np.diff(inside.astype(np.int8)))
            runs = edges[1::2] - edges[0::2]
            if runs.size == 0:
                break  # a wider range fits in no row either
            total += int((runs * (runs + 1) // 2).sum())
    return total


def half_spans(code: str, n: int, variant: str) -> list[tuple[int, int]]:
    """Canonical spans, bottom up, of the half shapes that have a vertical axis."""
    if code == "ah" and variant == "top":
        return [(-(n - j), n - j) for j in range(n)]
    if code == "ah" and variant == "bottom":
        return [(-(n + j + 1), n + j + 1) for j in range(-n, 0)]
    if code == "bh" and variant == "larger":
        return [(j - n + 1, n - j) for j in range(n)]
    if code == "bh" and variant == "smaller":
        return [(j - n + 2, n - 1 - j) for j in range(n - 1)]
    raise ValueError(f"no vertical axis for {code} {variant}")


def crossing_breakdown(spans, double_x: int) -> dict[str, int]:
    """Rectangles by crossing class about the vertical line x = double_x / 2.

    Keys follow latticerect's CrossingClass values: L, R, C, non-crossing.
    """
    tally = {"L": 0, "R": 0, "C": 0, "non-crossing": 0}
    for c in range(len(spans)):
        lo, hi = spans[c]
        for d in range(c, len(spans)):
            lo, hi = max(lo, spans[d][0]), min(hi, spans[d][1])
            if lo >= hi:
                break
            for a in range(lo, hi):
                for b in range(a + 1, hi + 1):
                    left, right = double_x - 2 * a, 2 * b - double_x
                    if left <= 0 or right <= 0:
                        tally["non-crossing"] += 1
                    elif left > right:
                        tally["L"] += 1
                    elif left < right:
                        tally["R"] += 1
                    else:
                        tally["C"] += 1
    return tally
