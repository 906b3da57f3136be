import itertools
import random
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import (check_record, classify_tally, count_by_column_pairs, random_row_convex,
                      symmetries)
from latticerect import counting
from latticerect import (Axis, CellRegion, CrossingClass, Family, LatticeRect, aztec,
                         aztec_half, biscuit, biscuit_half, build, classify,
                         count_breakdown, count_fast, count_formula, count_naive,
                         parse_shape_spec, rectangles, staircase, verify_bijection)
from latticerect.bijections import BIJECTION_NAMES, MAX_VERIFY_ORDER
from latticerect.cli import FAST_MAX_ORDER, NAIVE_MAX_ORDER, main
from latticerect.counting import _box_spans
from latticerect.formulas import SequenceId, evaluate

# frozen by independent hand/brute-force enumeration
FROZEN_COUNTS = {
    aztec: [9, 51, 166, 410, 855, 1589, 2716, 4356],
    biscuit: [1, 11, 54, 170, 415, 861, 1596, 2724],
    staircase: [1, 5, 15, 35, 70, 126, 210, 330],
    aztec_half: [3, 16, 50, 120, 245, 448, 756, 1200],
    biscuit_half: [1, 8, 30, 80, 175, 336, 588, 960],
}

EMPTY = CellRegion(0, ())


def test_count_naive_examples():
    assert count_naive(CellRegion(0, ((0, 1),))) == 1
    assert count_naive(build(aztec(1))) == 9
    assert count_naive(build(staircase(2))) == 5
    assert count_naive(build(biscuit_half(1))) == 1
    assert count_naive(EMPTY) == 0


@pytest.mark.parametrize("spec", ["aztec:6", "biscuit-half:5:smaller", "staircase:5:ur"])
def test_count_naive_at_far_offsets(spec):
    # the spans must be box-relative before they go into int64 arrays
    region = build(parse_shape_spec(spec))
    assert count_naive(region.translate(10**30, -10**30)) == count_naive(region)


def test_count_naive_compares_in_bounded_chunks():
    # about 0.76 MiB traced, in chunks of about 2**16 int64 band differences:
    # 217 of the 465 bands, 301 columns each
    tracemalloc.start()
    try:
        assert count_naive(CellRegion(0, ((0, 300),) * 30)) == _grid_count(300, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_count_naive_on_a_tall_column():
    # 2001000 bands of 2 columns: a buffer of every band would hold 32 MB
    tracemalloc.start()
    try:
        assert count_naive(CellRegion(0, ((0, 1),) * 2000)) == _grid_count(1, 2000) == 2001000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _walk_spans(rng, height, width):
    """Rows whose ends each move at most one column from the row below: tall bands."""
    lo, hi, spans = 0, width, []
    for _ in range(height):
        lo = min(max(lo + rng.randint(-1, 1), 0), width - 1)
        hi = min(max(hi + rng.randint(-1, 1), lo + 1), width)
        spans.append((lo, hi))
    return tuple(spans)


def test_count_fast_memory_on_a_tall_region():
    # about 2.7 MiB traced for 20000 rows of 32 columns: the leaves are walked
    # a contiguous (33 - k, blocks) slab at a time, never as a (blocks, 32, 32) table
    region = CellRegion(5, _walk_spans(random.Random(29), 20000, 32))
    tracemalloc.start()
    try:
        count = count_fast(region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == count_breakdown(region, Axis(0)).total
    assert peak < 4 * 2**20


def test_count_naive_needs_no_fast_path_code(monkeypatch):
    def unused(*args):
        raise AssertionError("count_naive called into the fast path")

    for name in ("_row_bands", "_box_spans", "_leaf_bands", "_crossing_bands"):
        monkeypatch.setattr(counting, name, unused)
    assert count_naive(build(parse_shape_spec("aztec:5"))) == 855
    for family in Family:
        for n in range(1, 7):
            spec = parse_shape_spec(f"{family.value}:{n}")
            assert count_naive(build(spec)) == count_formula(spec)


@pytest.mark.parametrize("family", list(Family))
def test_count_naive_over_many_chunks(family):
    # aztec:40 alone holds 80 * 81 / 2 bands of 81 columns, 262440 differences
    spec = parse_shape_spec(f"{family.value}:40")
    assert count_naive(build(spec)) == count_formula(spec)


def test_count_fast_examples():
    assert count_fast(build(aztec(1))) == 9
    assert count_fast(build(aztec(2))) == 51
    assert count_fast(EMPTY) == 0


@pytest.mark.parametrize("make", list(FROZEN_COUNTS))
def test_frozen_counts_all_methods(make):
    for n, expected in enumerate(FROZEN_COUNTS[make], start=1):
        region = build(make(n))
        assert count_naive(region) == expected
        assert count_fast(region) == expected
        assert count_formula(make(n)) == expected


@pytest.mark.parametrize("make", list(FROZEN_COUNTS))
def test_fast_equals_naive_on_families(make):
    for n in range(1, 13):
        region = build(make(n))
        assert count_fast(region) == count_naive(region)


def test_fast_equals_naive_on_random_regions():
    rng = random.Random(1234)
    for _ in range(250):
        region = random_row_convex(rng)
        assert count_fast(region) == count_naive(region)


def _grid_count(width, height):
    return (width * (width + 1) // 2) * (height * (height + 1) // 2)


def test_count_fast_exact_past_int64():
    # C(W+1, 2)*H >= 2**63 in both: only Python ints hold these band sums
    assert count_fast(CellRegion(0, ((0, 2**40),))) == _grid_count(2**40, 1)
    assert count_fast(CellRegion(0, ((0, 2**31),) * 4)) == _grid_count(2**31, 4)
    # a full leaf and a padded one, then a level, all on Python ints
    assert count_fast(CellRegion(0, ((0, 2**40),) * 40)) == _grid_count(2**40, 40)
    assert _grid_count(2**31, 1) * 4 >= 2**63


def test_count_fast_at_the_int64_bound():
    # the widest single row whose w*(w+1) still fits in int64, and the next one
    w = 3037000499
    assert w * (w + 1) < 2**63 <= (w + 1) * (w + 2)
    for width in (w, w + 1):
        assert count_fast(CellRegion(0, ((5, 5 + width),))) == _grid_count(width, 1)


#: the widest W with (128 * (W + 1))**2 < 2**63, count_fast's int64 bound at 128 rows
WIDEST_INT64_AT_128_ROWS = 23726565


@pytest.mark.parametrize("height,width", [(128, WIDEST_INT64_AT_128_ROWS),
                                          (128, WIDEST_INT64_AT_128_ROWS + 1),
                                          (128, 2**26), (200, 2**26)])
def test_count_fast_exact_about_the_level_bound(height, width):
    # the last width on int64 and the first on Python ints, at four leaves of
    # 32 rows; at 2**26 the top level's crossing bands alone sum past 2**63
    assert (128 * (WIDEST_INT64_AT_128_ROWS + 1)) ** 2 < 2**63
    assert (128 * (WIDEST_INT64_AT_128_ROWS + 2)) ** 2 >= 2**63
    region = CellRegion(-3, ((7, 7 + width),) * height)
    assert count_fast(region) == _grid_count(width, height)


def fast_bound(w, h):  # count_fast's int64 bound on a box of W columns and H rows
    return (h * (w + 1)) ** 2


def test_count_fast_past_int64_coordinates():
    # 80 rows, so levels run too: the box is shifted to 0 in Python, then on int64
    region = build(aztec(40))
    far = region.translate(10**30, -10**30)
    assert _box_spans(far, fast_bound).dtype == np.int64
    assert count_fast(far) == count_fast(region) == evaluate(SequenceId.AZTEC, 40)


def test_box_spans_gives_lo_and_hi_rows_for_tuple_and_list_rows():
    # tuple rows, or list rows, which CellRegion keeps as they are given
    spans = ((3, 9), (-2, 4), (0, 1))
    for kind in (tuple, list):
        near = _box_spans(CellRegion(5, tuple(map(kind, spans))), fast_bound)
        assert near.dtype == np.int64 and near.tolist() == [[5, 0, 2], [11, 6, 3]]
        far = CellRegion(5, tuple(kind((lo + 10**30, hi + 10**30)) for lo, hi in spans))
        assert _box_spans(far, fast_bound).tolist() == near.tolist()
        # past the int64 bound: Python ints, lo then hi as well
        wide = CellRegion(5, tuple(kind((10**30, 10**30 + 2**40 * w)) for w in (9, 4, 1)))
        got = _box_spans(wide, fast_bound)
        assert got.dtype == object and got.shape == (2, 3)
        assert got.tolist() == [[0, 0, 0], [2**40 * 9, 2**40 * 4, 2**40]]


def test_count_fast_wide_box_far_from_the_origin():
    # 80 rows of widths about 2**40 from a common left side at 1e30: the levels
    # run on Python ints; with one lo, band c..d-1 holds C(min hi + 1, 2) rectangles
    rng = random.Random(11)
    widths = [2**40 + rng.randrange(2**20) for _ in range(80)]
    region = CellRegion(-10**30, tuple((10**30, 10**30 + w) for w in widths))
    assert _box_spans(region, fast_bound).dtype == object
    expected = 0
    for c in range(len(widths)):
        narrowest = widths[c]
        for d in range(c, len(widths)):
            narrowest = min(narrowest, widths[d])
            expected += narrowest * (narrowest + 1) // 2
    assert count_fast(region) == expected


def test_count_fast_at_the_largest_accepted_order():
    # about 60 ms per shape with its build on a 2-core x86-64 host; walking all 2n^2 = 8e8
    # non-empty bands of aztec:20000 a band height at a time takes about 10 s
    started = time.perf_counter()
    for make, seq in [(aztec, SequenceId.AZTEC), (biscuit, SequenceId.BISCUIT)]:
        assert count_fast(build(make(FAST_MAX_ORDER))) == evaluate(seq, FAST_MAX_ORDER)
    assert time.perf_counter() - started < 5.0


def test_verify_at_the_largest_accepted_naive_order(capsys):
    # about 1 s for all five families on a 2-core x86-64 host, nearly all of
    # it in count_naive
    started = time.perf_counter()
    assert main(["verify", "--max-n", str(NAIVE_MAX_ORDER)]) == 0
    assert time.perf_counter() - started < 15.0
    assert capsys.readouterr().out.endswith(f"(naive = fast = formula, n <= {NAIVE_MAX_ORDER})\n")


def test_verify_bijection_at_the_largest_accepted_order():
    # about 1.3 s for all four maps on a 2-core x86-64 host
    n, s = MAX_VERIFY_ORDER, partial(evaluate, SequenceId.STAIRCASE)
    expected = {"quadruple": s(n), "type_l": s(n - 1),
                "type_c": s(n) - s(n - 1), "biscuit_expand": s(n) + s(n - 1)}
    started = time.perf_counter()
    for name in BIJECTION_NAMES:
        report = verify_bijection(name, n)
        assert report.verified, report
        assert report.domain_size == report.image_size == expected[name]
    assert time.perf_counter() - started < 10.0


def test_count_fast_disjoint_neighbouring_rows():
    # in the last, no two neighbouring rows share a column, so the leaf walk
    # stops at its first empty height, and no level finds a crossing band
    for spans in [((0, 2), (5, 7), (1, 6)), ((0, 1), (1, 2), (0, 1)),
                  ((3, 9), (0, 2), (4, 5), (1, 8)), ((0, 3), (3, 5), (1, 2), (2, 6), (6, 8)) * 16]:
        region = CellRegion(-2, spans)
        assert count_fast(region) == count_naive(region)


@pytest.mark.parametrize("height", [1, 31, 32, 33, 95])
def test_count_fast_about_the_leaf_height(height):
    # below one leaf, one leaf exactly, one row past it: the last leaf is padded
    rng = random.Random(height)
    for _ in range(5):
        region = CellRegion(-7, _walk_spans(rng, height, 6))
        assert count_fast(region) == count_naive(region)


def _small_span_tuples():
    """Every row-convex region's spans with W <= 3 and H <= 4, or W <= 4 and H <= 3,
    once each: 2406 of them, rows with no column in common included."""
    regions = set()
    for width, max_height in ((3, 4), (4, 3)):
        rows = [(lo, hi) for lo in range(width) for hi in range(lo + 1, width + 1)]
        for height in range(1, max_height + 1):
            regions.update(itertools.product(rows, repeat=height))
    return sorted(regions)


@pytest.mark.parametrize("leaf", [1, 2, 4, 32])
def test_count_fast_on_every_small_region(monkeypatch, leaf):
    # every leaf size: regions below, at and past one leaf, a padded last leaf,
    # levels and last passes; against the column-pair count, not count_naive
    monkeypatch.setattr(counting, "_LEAF_ROWS", leaf)
    regions = [CellRegion(0, spans) for spans in _small_span_tuples()]
    assert len(regions) == 2406
    wrong = [region for region in regions if count_fast(region) != count_by_column_pairs(region)]
    assert wrong == []


def test_breakdown_of_every_small_region():
    # an axis left of the box, the middle lattice line and the middle half line:
    # bands that die at once or part way, a walk that stops early, and no crossing
    wrong = []
    for spans in _small_span_tuples():
        region = CellRegion(0, spans)
        box = region.bounding_box()
        for axis in (Axis(box.a - 1), Axis(box.a + box.width // 2),
                     Axis(box.a + box.width // 2, half=True)):
            if dict(count_breakdown(region, axis).by_class) != classify_tally(region, axis):
                wrong.append((spans, axis))
    assert wrong == []


def test_breakdown_stops_at_the_first_height_with_no_band():
    # rows (0, 1) and (1, 2) only touch, at column 1: every band of two or more rows
    # is empty, so the walk ends at height 2; walking all 20000 heights takes seconds
    region = CellRegion(0, ((0, 1), (1, 2)) * 10000)
    started = time.perf_counter()
    breakdown = count_breakdown(region, Axis(1, half=True))
    elapsed = time.perf_counter() - started
    assert dict(breakdown.by_class) == {CrossingClass.LEFT: 0, CrossingClass.RIGHT: 0,
                                        CrossingClass.CENTERED: 10000,
                                        CrossingClass.NON_CROSSING: 10000}
    assert elapsed < 0.5


def test_count_fast_on_a_family_and_a_tall_walk_region():
    assert count_fast(build(aztec(40))) == evaluate(SequenceId.AZTEC, 40)
    tall = CellRegion(0, _walk_spans(random.Random(3), 3000, 8))
    assert count_fast(tall) == count_by_column_pairs(tall)


def _record_level_passes(monkeypatch):
    """Wrap counting._next_pass, called once a pass; return the list each pass
    appends its (s, rows summed either side of a middle row, shift) to."""
    passes, next_pass = [], counting._next_pass

    def recorded(s, shift, reach, *rest):
        passes.append((s, min(s, reach), shift))
        return next_pass(s, shift, reach, *rest)

    monkeypatch.setattr(counting, "_next_pass", recorded)
    return passes


def test_count_fast_levels_stop_at_the_tallest_band(monkeypatch):
    # the tallest band of this walk fits in 1024 rows: levels 32-1024, then one
    # last pass about the multiples of 2048, not a level per doubling up to 16384
    passes = _record_level_passes(monkeypatch)
    spans = _walk_spans(random.Random(29), 20000, 32)
    region = CellRegion(5, spans)
    assert count_fast(region) == count_by_column_pairs(region)
    assert [s for s, _, shift in passes if not shift] == [32, 64, 128, 256, 512, 1024]
    assert passes[-1] == (1024, 1024, 1024)
    windows = np.lib.stride_tricks.sliding_window_view(np.array(spans), 1025, axis=0)
    lo, hi = windows.transpose(1, 0, 2)
    assert (lo.max(axis=1) >= hi.min(axis=1)).all()  # no band of 1025 rows


def _runs(lengths, width):
    """Runs of rows, each run in columns disjoint from the next, so no band
    spans two runs; rows in a run vary by a column at either end."""
    spans = []
    for k, length in enumerate(lengths):
        lo = k % 2 * width
        spans += [(lo + i % 2, lo + width - (i % 3 == 1)) for i in range(length)]
    return tuple(spans)


@pytest.mark.parametrize("leaf,lengths,expected", [
    # reach <= s when first set: one last pass about the multiples of 2s;
    # with runs of one row no two neighbouring rows share a column
    (1, [1] * 21, [(1, 1, 0), (2, 2, 0), (2, 2, 2)]),
    (2, [1] * 21, [(2, 2, 0), (2, 2, 2)]),
    (4, [2] * 15, [(4, 4, 0), (4, 4, 4)]),
    (32, [16] * 9 + [5], [(32, 32, 0), (32, 32, 32)]),
    # s < reach < 2s: one more level, within reach rows, before the last pass
    (1, [3] * 20, [(1, 1, 0), (2, 2, 0), (4, 4, 0), (8, 6, 0), (8, 6, 8)]),
    (2, [3] * 20, [(2, 2, 0), (4, 4, 0), (8, 6, 0), (8, 6, 8)]),
    (4, [3] * 20, [(4, 4, 0), (8, 6, 0), (8, 6, 8)]),
    (32, [24] * 10, [(32, 32, 0), (64, 48, 0), (64, 48, 64)]),
    # 2s >= H when reach is set: no boundary is left, so no last pass
    (1, [1] * 4, [(1, 1, 0), (2, 2, 0)]),
    (2, [1] * 4, [(2, 2, 0)]),
    (4, [2] * 4, [(4, 4, 0)]),
    (32, [5] * 8, [(32, 32, 0)]),
])
def test_count_fast_last_level_pass(monkeypatch, leaf, lengths, expected):
    monkeypatch.setattr(counting, "_LEAF_ROWS", leaf)
    passes = _record_level_passes(monkeypatch)
    region = CellRegion(-4, _runs(lengths, 5))
    assert count_fast(region) == count_by_column_pairs(region) == count_naive(region)
    assert passes == expected
    # far off, the box is shifted to 0 and counted on int64 by the same passes
    passes.clear()
    assert count_fast(region.translate(10**30, -10**30)) == count_naive(region)
    assert passes == expected


@pytest.mark.parametrize("leaf", [1, 2, 4, 32])
def test_count_fast_last_level_pass_on_python_ints(monkeypatch, leaf):
    # runs 2**40 columns wide, 10**30 from the origin: past count_fast's int64
    # bound, so every pass, the last one too, sums Python ints
    monkeypatch.setattr(counting, "_LEAF_ROWS", leaf)
    passes = _record_level_passes(monkeypatch)
    lengths = [3] * 50
    region = CellRegion(0, tuple((lo, lo + 2**40) for k, n in enumerate(lengths)
                                 for lo in [k % 2 * 2**40] * n))
    far = region.translate(10**30, 10**30)
    assert _box_spans(far, fast_bound).dtype == object
    assert count_fast(far) == sum(_grid_count(2**40, k) for k in lengths)
    assert passes[-1][2] == passes[-1][0]


def test_count_fast_single_column_keeps_every_band():
    assert count_fast(CellRegion(0, ((0, 1),) * 2000)) == 2000 * 2001 // 2


def test_count_invariant_under_all_symmetries():
    for make in FROZEN_COUNTS:
        for n in range(1, 11):
            region = build(make(n))
            base = count_fast(region)
            for image in symmetries(region):
                assert count_fast(image) == base


def test_rectangles_enumeration_matches_count():
    for spec in [aztec(3), biscuit_half(4), staircase(5)]:
        region = build(spec)
        rects = list(rectangles(region))
        assert len(rects) == count_naive(region)
        assert len(set(rects)) == len(rects)
        assert all(region.contains_rect(r) for r in rects)


def test_rectangles_on_empty_region():
    assert list(rectangles(EMPTY)) == []


def test_rectangles_cost_the_output_not_the_bounding_box():
    far_apart = CellRegion(0, ((0, 1), (10**4, 10**4 + 1)))
    assert list(rectangles(far_apart)) == [LatticeRect(0, 1, 0, 1),
                                           LatticeRect(10**4, 10**4 + 1, 1, 2)]


# --- crossing classification ------------------------------------------------

def test_classify_examples():
    delta = Axis(0)
    assert classify(LatticeRect(-3, 2, 1, 3), delta) is CrossingClass.LEFT
    assert classify(LatticeRect(-2, 2, 0, 1), delta) is CrossingClass.CENTERED
    assert classify(LatticeRect(1, 3, 0, 2), delta) is CrossingClass.NON_CROSSING
    # touching the axis with an edge is not crossing
    assert classify(LatticeRect(0, 2, 0, 1), delta) is CrossingClass.NON_CROSSING
    assert classify(LatticeRect(-2, 0, 0, 1), delta) is CrossingClass.NON_CROSSING


def test_classify_half_unit_axis():
    delta = Axis(0, half=True)  # x = 1/2
    assert classify(LatticeRect(0, 1, 0, 1), delta) is CrossingClass.CENTERED
    assert classify(LatticeRect(-1, 3, 0, 1), delta) is CrossingClass.RIGHT
    assert classify(LatticeRect(-3, 2, 0, 1), delta) is CrossingClass.LEFT
    assert classify(LatticeRect(1, 3, 0, 1), delta) is CrossingClass.NON_CROSSING
    # centered exactly when a + b = 2*x0 + 1
    assert classify(LatticeRect(-2, 3, 0, 1), delta) is CrossingClass.CENTERED


# --- breakdowns --------------------------------------------------------------

def test_breakdown_half_diamond_order_2():
    breakdown = count_breakdown(build(aztec_half(2)), Axis(0))
    assert breakdown.by_class[CrossingClass.LEFT] == 1
    assert breakdown.by_class[CrossingClass.RIGHT] == 1
    assert breakdown.by_class[CrossingClass.CENTERED] == 4
    assert breakdown.by_class[CrossingClass.NON_CROSSING] == 10
    assert breakdown.total == 16
    assert breakdown.crossing == 6


def test_breakdown_is_a_read_only_value():
    tally = {CrossingClass.LEFT: 0, CrossingClass.RIGHT: 0, CrossingClass.CENTERED: 3,
             CrossingClass.NON_CROSSING: 6}
    breakdown = count_breakdown(build(aztec(1)), Axis(0))
    twins = check_record(breakdown, "CountBreakdown(total=9, by_class=mappingproxy({"
                         "<CrossingClass.LEFT: 'L'>: 0, <CrossingClass.RIGHT: 'R'>: 0, "
                         "<CrossingClass.CENTERED: 'C'>: 3, "
                         "<CrossingClass.NON_CROSSING: 'non-crossing'>: 6}))")
    same = counting.CountBreakdown(9, tally)
    reordered = counting.CountBreakdown(9, dict(reversed(tally.items())))
    assert breakdown == same == reordered
    assert {hash(twin) for twin in (*twins, same, reordered)} == {hash(breakdown)}
    assert len({breakdown, *twins, same, reordered}) == 1
    assert counting.CountBreakdown(10, tally) not in {breakdown}
    tally[CrossingClass.LEFT] = 1  # the breakdown keeps its own read-only copy
    assert breakdown.by_class[CrossingClass.LEFT] == 0
    with pytest.raises(TypeError):
        breakdown.by_class[CrossingClass.LEFT] = 1


def test_breakdown_axis_outside_box():
    breakdown = count_breakdown(build(staircase(3)), Axis(-5))
    assert breakdown.by_class[CrossingClass.NON_CROSSING] == breakdown.total == 15


def test_breakdown_biscuit_half_crossing():
    breakdown = count_breakdown(build(biscuit_half(2)), Axis(0, half=True))
    assert breakdown.crossing == 6
    assert breakdown.by_class[CrossingClass.NON_CROSSING] == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_breakdown_identities_small(n):
    s = partial(evaluate, SequenceId.STAIRCASE)
    half = count_breakdown(build(aztec_half(n)), Axis(0))
    assert half.by_class[CrossingClass.LEFT] == s(n - 1)
    assert half.by_class[CrossingClass.RIGHT] == s(n - 1)
    assert half.by_class[CrossingClass.CENTERED] == s(n) - s(n - 1)
    assert half.by_class[CrossingClass.NON_CROSSING] == 2 * s(n)

    bhalf = count_breakdown(build(biscuit_half(n)), Axis(0, half=True))
    assert bhalf.crossing == s(n) + s(n - 1)
    assert bhalf.by_class[CrossingClass.NON_CROSSING] == 2 * s(n - 1)


@pytest.mark.parametrize("width,height", [(2**40, 3), (2**40 + 1, 3),
                                          (3037000499, 1), (3037000500, 1)])
def test_breakdown_exact_past_the_int64_bound(width, height):
    # widths past the int64 switch, and one row either side of it: about the
    # center of H rows of one span, each of the C(H+1, 2) bands has
    # m = (W+1)//2 lines on either side of the axis, paired i-th with j-th
    x = -3 * 2**40
    region = CellRegion(7, ((x, x + width),) * height)
    breakdown = count_breakdown(region, Axis(x + width // 2, half=width % 2 == 1))
    bands, m = height * (height + 1) // 2, (width + 1) // 2
    assert breakdown.by_class[CrossingClass.LEFT] == breakdown.by_class[CrossingClass.RIGHT]
    assert breakdown.by_class[CrossingClass.LEFT] == bands * m * (m - 1) // 2
    assert breakdown.by_class[CrossingClass.CENTERED] == bands * m
    assert breakdown.crossing == bands * m * m
    assert breakdown.total == count_fast(region)


@pytest.mark.parametrize("region", [build(aztec(3)), CellRegion(0, ((0, 2**40),) * 3)])
def test_breakdown_about_a_far_axis_is_all_non_crossing(region):
    for x in (-10**30, 10**30):
        breakdown = count_breakdown(region, Axis(x, half=x > 0))
        assert breakdown.by_class[CrossingClass.NON_CROSSING] == breakdown.total
        assert breakdown.total == count_fast(region)


def test_breakdown_total_matches_naive():
    for spec, axis in [(aztec(3), Axis(0)), (biscuit(3), Axis(0, half=True)),
                       (staircase(4), Axis(1))]:
        region = build(spec)
        breakdown = count_breakdown(region, axis)
        assert breakdown.total == count_naive(region)
        assert sum(breakdown.by_class.values()) == breakdown.total


# --- the three routes on family shapes ----------------------------------------

def test_count_family_methods_agree_on_spot_specs():
    from latticerect import Part
    for spec in [aztec(1), biscuit(1), aztec_half(1), biscuit_half(2),
                 staircase(4), biscuit_half(3, Part.SMALLER)]:
        region = build(spec)
        assert count_naive(region) == count_fast(region) == count_formula(spec)


def test_count_family_smaller_half_uses_previous_order():
    from latticerect import Part
    for n in range(1, 8):
        spec = biscuit_half(n, Part.SMALLER)
        assert count_formula(spec) == evaluate(SequenceId.BISCUIT_HALF, n - 1)
        assert count_naive(build(spec)) == count_formula(spec)


def test_count_family_staircase_orientation_irrelevant():
    from latticerect import Corner
    for corner in Corner:
        assert count_fast(build(staircase(3, corner))) == 15


def test_count_fast_matches_formula_at_larger_orders():
    assert count_fast(build(aztec(64))) == evaluate(SequenceId.AZTEC, 64)
    assert count_fast(build(biscuit(64))) == evaluate(SequenceId.BISCUIT, 64)
