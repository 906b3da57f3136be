"""Closed forms for the five rectangle-counting sequences, as one split table.

Each family X but the staircase splits about its vertical axis into a smaller family Y with
LEFT = RIGHT = Y(n-1), CENTERED = Y(n) - Y(n-1) and NON_CROSSING = 2Y(n) for an aztec kind
(weight w = 3) or 2Y(n-1) for a biscuit kind (w = 1), so X(n) = w Y(n) + (4 - w) Y(n-1) down to
the staircase's C(n+3, 4), in exact integers; X's factored polynomial must agree, or it raises.
"""
from enum import Enum
from math import comb as binomial  # C(n, k) = 0 when k > n; negatives raise ValueError

from .geometry import _integer


class SequenceId(Enum):
    """The five counted families; values double as short CLI codes."""

    STAIRCASE = "s"
    AZTEC_HALF = "ah"
    BISCUIT_HALF = "bh"
    AZTEC = "a"
    BISCUIT = "b"


#: OEIS identifiers for the four sequences that have one.
OEIS_IDS = {SequenceId.AZTEC_HALF: "A004320", SequenceId.BISCUIT_HALF: "A002417",
            SequenceId.AZTEC: "A330805", SequenceId.BISCUIT: "A213840"}
#: X's code -> (Y's code, the weight w of Y(n), X's lowest order, X's factored polynomial)
_SPLITS = {
    "s": (None, 0, 0, lambda n: n * (n + 1) * (n + 2) * (n + 3) // 24),
    "ah": ("s", 3, 0, lambda n: n * (n + 1) * (n + 2) ** 2 // 6),
    "bh": ("s", 1, 0, lambda n: n * n * (n + 1) * (n + 2) // 6),
    "a": ("ah", 3, 1, lambda n: n * (n + 1) * (4 * n * n + 12 * n + 11) // 6),
    "b": ("bh", 1, 1, lambda n: n * (n + 1) * (4 * n * n - 4 * n + 3) // 6),
}


def _split(code: str, n: int) -> int:
    y, w, _, _ = _SPLITS[code]  # unchecked, as C(n+3, 4) = 0 for every n >= -3 that Y(n-1) reaches
    return binomial(n + 3, 4) if y is None else w * _split(y, n) + (4 - w) * _split(y, n - 1)


def evaluate(seq: SequenceId, n: int) -> int:
    """Value of the named sequence at n (a bool, a non-integer or too low an n: ValueError)."""
    _, _, low, factored = _SPLITS[seq.value]
    if (order := _integer(n)) is None or order < low:
        raise ValueError(f"{seq.name} order must be >= {low} and an integer, got {n!r}")
    if (value := _split(seq.value, order)) != (check := factored(order)):
        raise RuntimeError(f"{seq.name}({order}): split and factored forms disagree {value, check}")
    return value


def breakdown(seq: SequenceId, n: int):
    """seq's order-n counting.CountBreakdown about vertical_axis, for the variants with one."""
    from .counting import CountBreakdown, CrossingClass as C
    y, w, _, _ = _SPLITS[seq.value]
    if y is None:
        raise ValueError(f"{seq.name} has no vertical axis to break its count down about")
    total, now, before = evaluate(seq, n), _split(y, _integer(n)), _split(y, _integer(n) - 1)
    return CountBreakdown(total, {C.LEFT: before, C.RIGHT: before, C.CENTERED: now - before,
                                  C.NON_CROSSING: (w - 1) * now + (3 - w) * before})
