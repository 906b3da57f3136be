"""Property-based checks of the counting routes on arbitrary row-convex regions,
of the bijection maps, of ``build``, and of the spec and b-file text roundtrips."""
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classify_tally, count_by_column_pairs, rect_cells, symmetries
from latticerect import bijections, counting
from latticerect import (Axis, BFile, CellRegion, Corner, CrossingClass, Family,
                         LatticeRect, Part, ShapeSpec, Side, anchor_centered,
                         build, classify, count_breakdown, count_fast, count_naive,
                         expand_to_aztec_half, fold_left_heavy, parse_bfile,
                         parse_shape_spec, quadruple_to_staircase, rectangles,
                         shrink_to_biscuit_half, staircase_to_quadruple,
                         unanchor_centered, unfold_left_heavy)

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


@pytest.mark.parametrize("leaf", [1, 2, 4])
@settings(deadline=None)
@given(region=row_convex_regions())
def test_fast_equals_naive_with_small_leaves(leaf, region):
    # with leaves this small, the regions above are tall enough for levels to run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_LEAF_ROWS", leaf)
        assert count_fast(region) == count_naive(region)


@settings(deadline=None)
@given(row_convex_regions())
def test_naive_equals_column_pair_count(region):
    assert count_naive(region) == count_by_column_pairs(region)


@pytest.mark.parametrize("chunk", [1, 300])
@settings(deadline=None)
@given(region=row_convex_regions())
def test_naive_equals_column_pair_count_in_small_chunks(chunk, region):
    # one row per comparison, or a few rows of the narrower regions above
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_NAIVE_CHUNK", chunk)
        assert count_naive(region) == count_by_column_pairs(region)


@st.composite
def tall_regions(draw, max_height=300, box=10):
    """Row-convex regions up to max_height rows tall in a box columns wide.

    Each row moves either end of the row below by at most one column, so
    bands reach across leaves and levels, or about one row in 16 jumps to any
    span, which may share no column with the row below.
    """
    jumps = [(lo, hi) for lo in range(box) for hi in range(lo + 1, box + 1)]
    picks = st.integers(0, 16 * len(jumps) - 1)
    height = draw(st.integers(1, max_height))
    lo, hi = 0, box
    spans = []
    for pick in draw(st.lists(picks, min_size=height, max_size=height)):
        if pick < len(jumps):
            lo, hi = jumps[pick]
        else:
            lo = min(max(lo + pick % 3 - 1, 0), box - 1)
            hi = min(max(hi + pick // 3 % 3 - 1, lo + 1), box)
        spans.append((lo, hi))
    return CellRegion(0, tuple(spans)).translate(draw(OFFSETS), draw(OFFSETS))


@settings(deadline=None)
@given(tall_regions())
def test_fast_equals_column_pair_count_on_tall_regions(region):
    assert count_fast(region) == count_by_column_pairs(region)


@settings(deadline=None)
@given(orthoconvex_regions())
def test_count_invariant_under_all_symmetries(region):
    base = count_fast(region)
    assert base == count_naive(region)
    for image in symmetries(region):
        assert count_fast(image) == base


@settings(deadline=None)
@given(row_convex_regions())
def test_rectangles_lists_every_contained_rectangle_once_in_order(region):
    rects = list(rectangles(region))
    assert len(set(rects)) == len(rects) == count_naive(region)
    assert all(region.contains_rect(r) for r in rects)
    keys = [(r.c, r.d, r.a, r.b) for r in rects]
    assert keys == sorted(keys)


@settings(deadline=None)
@given(row_convex_regions(), st.integers(-2, 14), st.booleans())
def test_breakdown_classes_sum_to_the_count(region, dx, half):
    breakdown = count_breakdown(region, Axis(region.bounding_box().a + dx, half))
    assert set(breakdown.by_class) == set(CrossingClass)
    assert sum(breakdown.by_class.values()) == breakdown.total == count_naive(region)


@st.composite
def regions_and_axes(draw):
    """A region and a whole or half-unit axis inside its box, on an edge or outside."""
    region = draw(row_convex_regions())
    box = region.bounding_box()
    x = draw(st.sampled_from((box.a, box.b)) | st.integers(box.a - 2, box.b + 2)
             | st.integers(-10**30, 10**30))
    return region, Axis(x, draw(st.booleans()))


@settings(deadline=None)
@given(regions_and_axes())
def test_breakdown_equals_the_classify_tally(case):
    region, axis = case
    assert dict(count_breakdown(region, axis).by_class) == classify_tally(region, axis)


@settings(deadline=None)
@given(regions_and_axes(), st.sets(st.sampled_from(bijections._CROSSING)))
def test_crossing_rects_are_the_classified_rectangles_in_order(case, classes):
    region, axis = case
    classes = tuple(classes)
    assert bijections._crossing_rects(region, axis, classes) == [
        r for r in rectangles(region) if classify(r, axis) in classes]


@st.composite
def regions_and_rects(draw):
    """A region, maybe empty, and a rectangle that may start below its first row,
    end above its top row or stick out on either side."""
    region = draw(st.just(CellRegion(0, ())) | row_convex_regions())
    x, y = (0, 0) if region.is_empty else (region.bounding_box().a, region.row0)
    a, b = sorted(draw(st.lists(st.integers(x - 2, x + 14), min_size=2, max_size=2, unique=True)))
    c, d = sorted(draw(st.lists(st.integers(y - 2, y + 10), min_size=2, max_size=2, unique=True)))
    return region, LatticeRect(a, b, c, d)


@settings(deadline=None)
@given(regions_and_rects())
def test_contains_rect_equals_containing_every_cell(case):
    region, rect = case
    assert region.contains_rect(rect) == (rect_cells(rect) <= set(region.cells()))


@st.composite
def shape_specs(draw):
    family = draw(st.sampled_from(Family))
    default = ShapeSpec(family, 1).variant
    variant = None if default is None else draw(st.sampled_from(type(default)))
    return ShapeSpec(family, draw(st.integers(1, 10**30)), variant)


@given(shape_specs())
def test_shape_spec_text_roundtrip(spec):
    assert parse_shape_spec(str(spec)) == spec


# Each canonical shape's cells (i, j) at order n, as inequalities that share
# nothing with geometry's construction.
def in_aztec(n, i, j):
    return abs(2 * i + 1) + abs(2 * j + 1) <= 2 * n


def in_biscuit(n, i, j):
    return abs(i) + abs(j) <= n - 1


def in_dl_staircase(n, i, j):
    return i >= 0 and j >= 0 and i + j <= n - 1


IN_SHAPE = {
    Family.AZTEC: in_aztec,
    Family.BISCUIT: in_biscuit,
    Side.TOP: lambda n, i, j: in_aztec(n, i, j) and j >= 0,
    Side.BOTTOM: lambda n, i, j: in_aztec(n, i, j) and j < 0,
    Side.LEFT: lambda n, i, j: in_aztec(n, i, j) and i < 0,
    Side.RIGHT: lambda n, i, j: in_aztec(n, i, j) and i >= 0,
    Part.LARGER: lambda n, i, j: in_biscuit(n, i, j) and j >= 0,
    Part.SMALLER: lambda n, i, j: in_biscuit(n - 1, i, j) and j >= 0,
    Corner.DL: in_dl_staircase,  # the others are its reflections in [0, n]^2
    Corner.DR: lambda n, i, j: in_dl_staircase(n, n - 1 - i, j),
    Corner.UL: lambda n, i, j: in_dl_staircase(n, i, n - 1 - j),
    Corner.UR: lambda n, i, j: in_dl_staircase(n, n - 1 - i, n - 1 - j),
}


@st.composite
def built_shapes(draw, max_n=80):
    family = draw(st.sampled_from(Family))
    default = ShapeSpec(family, 1).variant
    variant = None if default is None else draw(st.sampled_from(type(default)))
    n = draw(st.integers(0 if family is Family.STAIRCASE else 1, max_n))
    offset = (draw(st.integers(-10**30, 10**30)), draw(st.integers(-10**30, 10**30)))
    return ShapeSpec(family, n, variant), offset


@settings(deadline=None)
@given(built_shapes())
def test_build_gives_the_cells_of_the_inequalities(case):
    spec, (x, y) = case
    region = build(spec, (x, y))
    inside, box = IN_SHAPE[spec.variant or spec.family], range(-spec.n - 1, spec.n + 2)
    assert {(i - x, j - y) for i, j in region.cells()} == {
        (i, j) for i in box for j in box if inside(spec.n, i, j)}


@given(st.dictionaries(st.integers(-10**6, 10**30), st.integers(-10**40, 10**40)))
def test_bfile_text_roundtrip(terms):
    bfile = BFile(tuple(sorted(terms.items())))
    assert parse_bfile("".join(f"{i} {v}\n" for i, v in bfile.terms)) == bfile


# Containment in the canonical order-n shapes, in closed form: the top row
# d-1 of a rectangle [a, b] x [c, d] with 0 <= c is the narrowest it meets.
def in_staircase(r, n):  # dl: row j spans [0, n-j)
    return 0 <= r.c and r.d <= n and 0 <= r.a and r.b <= n - r.d + 1


def in_aztec_half(r, n):  # top: row j spans [j-n, n-j)
    return 0 <= r.c and r.d <= n and r.d - 1 - n <= r.a and r.b <= n - r.d + 1


def in_biscuit_half(r, n):  # larger: row j spans [j-n+1, n-j)
    return 0 <= r.c and r.d <= n and r.d - n <= r.a and r.b <= n - r.d + 1


#: forward map, its inverse, and the forward map's domain at order n
BIJECTION_MAPS = {
    "quadruple": (staircase_to_quadruple, quadruple_to_staircase, in_staircase),
    "type_l": (fold_left_heavy, unfold_left_heavy, lambda r, n: (
        in_aztec_half(r, n) and classify(r, Axis(0)) is CrossingClass.LEFT)),
    "type_c": (lambda r, _n: anchor_centered(r), lambda r, _n: unanchor_centered(r),
               lambda r, _n: r.a == -r.b),
    "biscuit_expand": (expand_to_aztec_half, shrink_to_biscuit_half, lambda r, n: (
        in_biscuit_half(r, n)
        and classify(r, Axis(0, half=True)) is not CrossingClass.NON_CROSSING)),
}


@pytest.mark.parametrize("name", sorted(BIJECTION_MAPS))
def test_public_maps_are_their_guard_then_their_table_entry(name):
    forward, inverse, _ = BIJECTION_MAPS[name]
    table_forward, table_inverse = bijections._COORDS[name]
    for n in range(1, 9):
        domain, codomain, replay_forward, replay_inverse = bijections._MAPS[name](n)
        assert (replay_forward, replay_inverse) == (table_forward, table_inverse)
        for x in domain:
            y = forward(x, n)
            assert y == table_forward(x, n) and type(y) is type(table_forward(x, n))
        for y in codomain:
            assert inverse(y, n) == table_inverse(y, n)


@st.composite
def rects_near_shapes(draw, max_n=8):
    """An order n <= max_n and a rectangle one cell around the shapes' rows and
    around the columns of the aztec half's top row, so that the maps' domains
    are hit often."""
    n = draw(st.integers(1, max_n))
    c, d = sorted(draw(st.lists(st.integers(-1, n + 1), min_size=2, max_size=2,
                                unique=True)))
    w = max(n - d + 1, 0) + 1
    a, b = sorted(draw(st.lists(st.integers(-w, w), min_size=2, max_size=2, unique=True)))
    return LatticeRect(a, b, c, d), n


@pytest.mark.parametrize("name", sorted(BIJECTION_MAPS))
@settings(deadline=None, max_examples=200)
@given(case=rects_near_shapes())
def test_bijection_maps_accept_exactly_their_domain_and_invert(name, case):
    forward, inverse, in_domain = BIJECTION_MAPS[name]
    rect, n = case
    try:
        image = forward(rect, n)
    except ValueError:
        assert not in_domain(rect, n)
        return
    assert in_domain(rect, n)
    assert inverse(image, n) == rect


@settings(deadline=None)
@given(st.sampled_from([unfold_left_heavy, shrink_to_biscuit_half]), rects_near_shapes())
def test_inverse_maps_refuse_rectangles_outside_the_aztec_half(inverse, case):
    rect, n = case
    if not in_aztec_half(rect, n):
        with pytest.raises(ValueError):
            inverse(rect, n)


def rows_by_formula(spec: ShapeSpec) -> dict:
    """{row: (lo, hi)} of spec's canonical shape, one row at a time, as ``build``'s
    docstring states them: the whole shape's rows, then the piece's rows and columns."""
    n, variant = spec.n, spec.variant
    if spec.family is Family.STAIRCASE:  # the right angle on that corner of [0, n] x [0, n]
        span = {Corner.DL: lambda j: (0, n - j), Corner.DR: lambda j: (j, n),
                Corner.UL: lambda j: (0, j + 1), Corner.UR: lambda j: (n - 1 - j, n)}[variant]
        return {j: span(j) for j in range(n)}
    if spec.family in (Family.AZTEC, Family.AZTEC_HALF):
        rows = {j: (-(n - k), n - k) for j in range(-n, n) for k in [j if j >= 0 else -j - 1]}
    else:
        n -= variant is Part.SMALLER  # biscuit-half larger of order n - 1
        rows = {j: (abs(j) - n + 1, n - abs(j)) for j in range(-(n - 1), n)}
    if variant in (Side.TOP, Part.LARGER, Part.SMALLER):
        rows = {j: span for j, span in rows.items() if j >= 0}
    elif variant is Side.BOTTOM:
        rows = {j: span for j, span in rows.items() if j < 0}
    elif variant is Side.LEFT:
        rows = {j: (lo, min(hi, 0)) for j, (lo, hi) in rows.items() if lo < 0}
    elif variant is Side.RIGHT:
        rows = {j: (max(lo, 0), hi) for j, (lo, hi) in rows.items() if hi > 0}
    return rows


SPECS = [(family, variant) for family in Family
         for variant in ([None] if ShapeSpec(family, 1).variant is None
                         else type(ShapeSpec(family, 1).variant))]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(SPECS), st.integers(0, 80), st.integers(-10**30, 10**30),
       st.integers(-10**30, 10**30))
def test_build_equals_the_per_row_formula_through_the_public_constructor(kind, n, x, y):
    family, variant = kind
    n = max(n, 0 if family is Family.STAIRCASE else 1)
    spec = ShapeSpec(family, n, variant)
    rows = rows_by_formula(spec)
    assert sorted(rows) == list(range(min(rows, default=0), min(rows, default=0) + len(rows)))
    expected = CellRegion(min(rows, default=0) + y,
                          tuple((lo + x, hi + x) for _, (lo, hi) in sorted(rows.items())))
    region = build(spec, (x, y))
    assert region == expected and hash(region) == hash(expected)
    assert pickle.loads(pickle.dumps(region)) == region
    assert all(type(v) is int for span in region.spans for v in span)
