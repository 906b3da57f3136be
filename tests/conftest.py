import random

from latticerect import Axis, CellRegion, CrossingClass, classify, rectangles


def random_row_convex(rng: random.Random, box: int = 12) -> CellRegion:
    """One random contiguous column interval per row, inside a box x box grid."""
    height = rng.randint(1, box)
    spans = []
    for _ in range(height):
        lo = rng.randint(0, box - 1)
        hi = rng.randint(lo + 1, box)
        spans.append((lo, hi))
    return CellRegion(rng.randint(-3, 3), tuple(spans))


def classify_tally(region: CellRegion, axis: Axis) -> dict:
    """The breakdown by brute force: classify every rectangle the region lists."""
    tally = dict.fromkeys(CrossingClass, 0)
    for rect in rectangles(region):
        tally[classify(rect, axis)] += 1
    return tally
