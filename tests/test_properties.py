"""Property-based checks of count_fast on arbitrary row-convex regions."""
from hypothesis import given, settings
from hypothesis import strategies as st

from latticerect import CellRegion, Dihedral, count_fast, count_naive, transform

OFFSETS = st.integers(-10**9, 10**9)


@st.composite
def row_convex_regions(draw, max_height=8, box=12):
    """Any row-convex region: neighbouring rows may overlap or not at all."""
    spans = []
    for _ in range(draw(st.integers(1, max_height))):
        lo = draw(st.integers(0, box - 1))
        spans.append((lo, draw(st.integers(lo + 1, box))))
    return CellRegion(0, tuple(spans)).translate(draw(OFFSETS), draw(OFFSETS))


@st.composite
def orthoconvex_regions(draw, max_height=8):
    """Row- and column-convex regions, so all eight symmetries apply.

    Spans nest outward from one peak row: lo never decreases and hi never
    increases moving away from it, which makes every column an interval.
    """
    height = draw(st.integers(1, max_height))
    peak = draw(st.integers(0, height - 1))
    lo, hi = 0, draw(st.integers(1, 12))
    spans = {peak: (lo, hi)}
    for rows in (range(peak + 1, height), range(peak - 1, -1, -1)):
        cur_lo, cur_hi = lo, hi
        for row in rows:
            cur_lo += draw(st.integers(0, cur_hi - cur_lo - 1))
            cur_hi -= draw(st.integers(0, cur_hi - cur_lo - 1))
            spans[row] = (cur_lo, cur_hi)
    region = CellRegion(0, tuple(spans[row] for row in range(height)))
    return region.translate(draw(OFFSETS), draw(OFFSETS))


@settings(deadline=None)
@given(row_convex_regions())
def test_fast_equals_naive(region):
    assert count_fast(region) == count_naive(region)


@settings(deadline=None)
@given(orthoconvex_regions())
def test_count_invariant_under_all_symmetries(region):
    base = count_fast(region)
    assert base == count_naive(region)
    for g in Dihedral:
        assert count_fast(transform(region, g)) == base
