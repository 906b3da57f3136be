"""Closed forms for the five rectangle-counting sequences.

Each family's count has a binomial form and a factored polynomial form; every
evaluation computes both and insists they agree, so a typo in either one is
loud.  All arithmetic is exact (Python integers).
"""
from __future__ import annotations

from enum import Enum
from math import comb as binomial  # C(n, k) = 0 when k > n; negatives raise ValueError


class SequenceId(Enum):
    """The five counted families; values double as short CLI codes."""

    STAIRCASE = "s"
    AZTEC_HALF = "ah"
    BISCUIT_HALF = "bh"
    AZTEC = "a"
    BISCUIT = "b"


#: OEIS identifiers for the four sequences that have one.
OEIS_IDS = {
    SequenceId.AZTEC_HALF: "A004320",
    SequenceId.BISCUIT_HALF: "A002417",
    SequenceId.AZTEC: "A330805",
    SequenceId.BISCUIT: "A213840",
}


def _agree(name: str, n: int, *values: int) -> int:
    first = values[0]
    if any(v != first for v in values[1:]):
        raise RuntimeError(f"{name}({n}): internal form disagreement {values}")
    return first


def staircase_rects(n: int) -> int:
    """Rectangles in a staircase of order n >= 0; order 0 is empty."""
    if n < 0:
        raise ValueError(f"staircase order must be >= 0, got {n}")
    return binomial(n + 3, 4)


def aztec_half_rects(n: int) -> int:
    """Rectangles in a half Aztec diamond of order n; 0 at n = 0 by convention."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return _agree(
        "aztec_half_rects", n,
        3 * binomial(n + 3, 4) + binomial(n + 2, 4),
        n * (n + 1) * (n + 2) ** 2 // 6,
    )


def biscuit_half_rects(n: int) -> int:
    """Rectangles in the larger half of a biscuit of order n; 0 at n = 0."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return _agree(
        "biscuit_half_rects", n,
        binomial(n + 3, 4) + 3 * binomial(n + 2, 4),
        n * n * (n + 1) * (n + 2) // 6,
    )


def aztec_rects(n: int) -> int:
    """Rectangles in an Aztec diamond of order n >= 1."""
    if n < 1:
        raise ValueError(f"aztec order must be >= 1, got {n}")
    return _agree(
        "aztec_rects", n,
        9 * binomial(n + 3, 4) + 6 * binomial(n + 2, 4) + binomial(n + 1, 4),
        n * (n + 1) * (4 * n * n + 12 * n + 11) // 6,
        3 * aztec_half_rects(n) + aztec_half_rects(n - 1),
    )


def biscuit_rects(n: int) -> int:
    """Rectangles in a square biscuit of order n >= 1."""
    if n < 1:
        raise ValueError(f"biscuit order must be >= 1, got {n}")
    return _agree(
        "biscuit_rects", n,
        binomial(n + 3, 4) + 6 * binomial(n + 2, 4) + 9 * binomial(n + 1, 4),
        n * (n + 1) * (4 * n * n - 4 * n + 3) // 6,
        biscuit_half_rects(n) + 3 * biscuit_half_rects(n - 1),
    )


_DISPATCH = {
    SequenceId.STAIRCASE: staircase_rects,
    SequenceId.AZTEC_HALF: aztec_half_rects,
    SequenceId.BISCUIT_HALF: biscuit_half_rects,
    SequenceId.AZTEC: aztec_rects,
    SequenceId.BISCUIT: biscuit_rects,
}


def evaluate(seq: SequenceId, n: int) -> int:
    """Value of the named sequence at n (domain errors raise ValueError)."""
    return _DISPATCH[seq](n)
