import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import check_four_tuple, flip_x
from latticerect import (Axis, CellRegion, Corner, Family, LatticeRect, Part,
                         Quadruple, ShapeError, ShapeSpec, Side, aztec,
                         aztec_half, biscuit, biscuit_half, build,
                         parse_shape_spec, split_half,
                         split_staircases, staircase, vertical_axis)
from latticerect import (count_breakdown, count_fast, count_naive, rectangles,
                         render_ascii, render_svg)

VARIANTS = {v.value: v for kind in (Corner, Side, Part) for v in kind}
GOLDEN = Path(__file__).parent / "golden"


def normalized(region: CellRegion) -> CellRegion:
    """Translate so the bounding box's lower-left corner is the origin."""
    if region.is_empty:
        return region
    box = region.bounding_box()
    return region.translate(-box.a, -box.c)


def row_widths(region: CellRegion) -> list[int]:
    return [hi - lo for lo, hi in region.spans]


# --- construction ---------------------------------------------------------

def test_aztec_1_is_two_rows_of_two():
    region = build(aztec(1))
    assert row_widths(region) == [2, 2]
    assert region.cell_count == 4


def test_aztec_3_cell_count():
    assert build(aztec(3)).cell_count == 24
    assert row_widths(build(aztec(3))) == [2, 4, 6, 6, 4, 2]


def test_biscuit_2_row_widths():
    assert row_widths(build(biscuit(2))) == [1, 3, 1]
    assert build(biscuit(2)).cell_count == 5


@pytest.mark.parametrize("corner", list(Corner))
def test_staircase_1_single_cell(corner):
    region = build(staircase(1, corner))
    assert region.cell_count == 1
    assert region.bounding_box() == LatticeRect(0, 1, 0, 1)


def test_staircase_0_is_empty():
    region = build(staircase(0))
    assert region.is_empty
    assert region.cell_count == 0


def test_aztec_half_top_spans():
    region = build(aztec_half(3))
    assert region.row0 == 0
    assert region.spans == ((-3, 3), (-2, 2), (-1, 1))  # and no row 3


def test_half_variants_partition_the_full_shape():
    for n in range(1, 8):
        whole = set(build(aztec(n)).cells())
        top = set(build(aztec_half(n, Side.TOP)).cells())
        bottom = set(build(aztec_half(n, Side.BOTTOM)).cells())
        left = set(build(aztec_half(n, Side.LEFT)).cells())
        right = set(build(aztec_half(n, Side.RIGHT)).cells())
        assert top | bottom == whole and not top & bottom
        assert left | right == whole and not left & right


def test_biscuit_halves_partition_the_biscuit():
    for n in range(2, 8):
        whole = set(build(biscuit(n)).cells())
        larger = set(build(biscuit_half(n, Part.LARGER)).cells())
        smaller_rows = {j for _, j in whole} - {j for _, j in larger}
        assert larger <= whole
        assert len(smaller_rows) == n - 1  # the lost half is one row shorter


@pytest.mark.parametrize("n", range(1, 101))
def test_cell_count_formulas(n):
    assert build(aztec(n)).cell_count == 2 * n * (n + 1)
    assert build(biscuit(n)).cell_count == 2 * n * n - 2 * n + 1
    assert build(staircase(n)).cell_count == n * (n + 1) // 2


def test_smaller_biscuit_half_matches_previous_larger():
    for n in range(2, 13):
        assert build(biscuit_half(n, Part.SMALLER)) == build(biscuit_half(n - 1))
    assert build(biscuit_half(1, Part.SMALLER)).is_empty


def test_build_offset_translates():
    moved = build(aztec(1), offset=(3, 4))
    assert moved == build(aztec(1)).translate(3, 4)


@pytest.mark.parametrize("offset", [(True, 0), (0, False), (0.5, 0), ("1", 0)])
def test_build_refuses_a_non_integer_offset(offset):
    # index() takes a bool as 0 or 1; a float or str would reach the spans
    with pytest.raises(ShapeError, match="offset must be two integers"):
        build(aztec(2), offset)


def test_build_takes_a_numpy_offset():
    region = build(staircase(3, Corner.UR), (np.int64(-4), np.int32(9)))
    assert region == build(staircase(3, Corner.UR)).translate(-4, 9)
    assert all(type(v) is int for span in region.spans for v in span)


def test_build_constructs_one_region_per_call(monkeypatch):
    made = []
    check = CellRegion.__post_init__
    monkeypatch.setattr(CellRegion, "__post_init__", lambda r: made.append(r) or check(r))
    for family in Family:
        default = ShapeSpec(family, 1).variant
        for variant in [None] if default is None else type(default):
            for n in (1, 2, 5):
                made.clear()
                region = build(ShapeSpec(family, n, variant), (3, -7))
                assert made == [region], (family, variant, n)


def test_build_placements_match_golden():
    # every family and variant at n <= 6, plus n = 3 at a large offset
    for entry in json.loads((GOLDEN / "build_spans.json").read_text()):
        spec = ShapeSpec(Family(entry["family"]), entry["n"], VARIANTS.get(entry["variant"]))
        region = build(spec, tuple(entry["offset"]))
        assert region.row0 == entry["row0"], entry
        assert region.spans == tuple(map(tuple, entry["spans"])), entry


# --- integer coordinates ----------------------------------------------------

@pytest.mark.parametrize("row0,spans", [
    (0, ((0.5, 2.5),)),  # both counters would count it as [0, 2)
    (0, (("0", "2"),)),  # numpy would parse the strings
    (0.0, ((0, 2),)),
    (0.5, ()),
    (True, ((0, 1),)),
    (np.bool_(True), ((0, 1),)),
    (0, ((False, True), (0, 2))),  # it used to build and count 5
])
def test_region_refuses_non_integer_coordinates(row0, spans):
    with pytest.raises(ShapeError, match="must be integers"):
        CellRegion(row0, spans)


def test_axis_refuses_a_non_integer_position():
    with pytest.raises(ShapeError, match="must be an integer"):
        Axis(0.3)
    with pytest.raises(ShapeError, match="must be an integer, got True"):
        Axis(True)  # it would print as x=True and classify as x=1


@pytest.mark.parametrize("half", ["no", 2, 1, None])
def test_axis_refuses_a_non_bool_half(half):
    # "no", 2 and 1 are all truthy, so each would put the line at x0 + 1/2
    with pytest.raises(ShapeError, match="axis half must be a bool"):
        Axis(0, half=half)


@pytest.mark.parametrize("coords", [
    (-1.5, 0.5, 0, 1), (0, 1.0, 0, 1), (0, True, 0, 1), (False, 1, 0, 1),
    (0, 1, "0", 1), (0, 1, 0, None),
])
def test_rect_refuses_non_integer_coordinates(coords):
    with pytest.raises(ShapeError, match="rectangle coordinates must be integers"):
        LatticeRect(*coords)


@pytest.mark.parametrize("b", [1.0, True, "1", None])
def test_maps_refuse_a_non_integer_rectangle(b):
    # Quadruple checks its entries, so the quadruple map's input cannot be made
    with pytest.raises(ValueError, match="quadruple entries must be integers"):
        Quadruple(0, b, 4, 5)


def test_numpy_integers_are_coordinates():
    region = CellRegion(np.int64(-2), ((np.int32(0), np.int64(2)), (np.int64(1), 3)))
    assert count_fast(region) == count_naive(region) == 7
    assert Axis(np.int64(1), half=True).double_x == 3


def test_numpy_integers_are_stored_as_ints():
    for value, fields in [
        (Axis(np.int64(-3), half=True), ("x0",)),
        (CellRegion(np.int32(-2), ((0, 2),)), ("row0",)),
        (CellRegion(np.int64(5), ()), ("row0",)),
        (ShapeSpec(Family.AZTEC, np.uint16(3)), ("n",)),
        (LatticeRect(np.int64(-3), np.int32(1), 0, np.uint8(1)), ("a", "b", "c", "d")),
        (Quadruple(np.int64(0), np.int8(1), 2, np.uint64(3)), ("a", "b", "c", "d")),
    ]:
        assert all(type(getattr(value, name)) is int for name in fields), value


def test_numpy_axis_counts_and_renders_a_far_region_as_an_int_axis():
    region = build(aztec_half(2)).translate(10**30, 0)  # past int64: a numpy x0 would overflow
    for half in (False, True):
        plain, numpy_axis = Axis(7, half), Axis(np.int64(7), half)
        assert count_breakdown(region, numpy_axis) == count_breakdown(region, plain)
        assert render_ascii(region, numpy_axis) == render_ascii(region, plain)
        assert render_svg(region, numpy_axis) == render_svg(region, plain)


@pytest.mark.parametrize("spec", [biscuit(2), aztec_half(3)])
def test_renders_do_not_move_with_a_far_region(spec):
    axis, far = vertical_axis(spec), 10**20  # past a float's exact integers
    region, moved = build(spec), build(spec, (far, 0))
    for render in (render_ascii, render_svg):
        assert render(moved, Axis(far + axis.x0, axis.half)) == render(region, axis)


def test_numpy_row0_at_the_int64_limit_counts_as_an_int_row0():
    top = 2**63 - 1  # row0 + 1 would wrap as an int64
    region, plain = CellRegion(np.int64(top), ((0, 1),)), CellRegion(top, ((0, 1),))
    assert list(rectangles(region)) == list(rectangles(plain)) == [LatticeRect(0, 1, top, top + 1)]
    assert region.bounding_box() == plain.bounding_box()
    assert count_naive(region) == count_fast(region) == 1


def test_list_spans_are_stored_as_a_tuple_of_int_pairs():
    listed, plain = CellRegion(0, [[0, 2], [1, 3]]), CellRegion(0, ((0, 2), (1, 3)))
    assert listed == plain and hash(listed) == hash(plain)  # a list made hash() raise
    assert listed.spans == ((0, 2), (1, 3)) and type(listed.spans[0]) is tuple


def test_numpy_span_bounds_at_the_int64_limit_count_as_int_bounds():
    lo, hi = 2**63 - 3, 2**63 - 1  # hi + 1 would wrap as an int64
    region = CellRegion(0, ((np.int64(lo), np.int64(hi)),))
    assert region == CellRegion(0, ((lo, hi),))
    assert all(type(bound) is int for bound in region.spans[0])
    assert len(list(rectangles(region))) == count_fast(region) == 3


# --- the rectangle value type ------------------------------------------------

def test_rect_is_an_immutable_four_tuple():
    rect = LatticeRect(-3, 1, 0, 1)
    check_four_tuple(rect, "LatticeRect(a=-3, b=1, c=0, d=1)")
    assert (rect.a, rect.b, rect.c, rect.d, rect.width, rect.height) == (-3, 1, 0, 1, 4, 1)
    assert str(rect) == "[-3,1]x[0,1]"
    tampered = pickle.dumps(LatticeRect(0, 1, 0, 1), 0).replace(b"I1\n", b"I-5\n", 1)
    with pytest.raises(ShapeError, match="degenerate rectangle"):
        pickle.loads(tampered)  # an old protocol too goes through the checks


def test_rect_takes_numpy_integers_as_ints():
    rect = LatticeRect(np.int64(-3), np.int32(1), 0, np.uint8(1))
    check_four_tuple(rect, "LatticeRect(a=-3, b=1, c=0, d=1)")
    assert all(type(x) is int for x in rect)


def test_rect_refuses_a_degenerate_rectangle():
    for coords in ((1, 1, 0, 1), (0, 1, 2, 2), (2, 1, 0, 1)):
        with pytest.raises(ShapeError, match="degenerate rectangle"):
            LatticeRect(*coords)


# --- bounding boxes and containment ---------------------------------------

@pytest.mark.parametrize("spec,box", [
    (aztec(1), LatticeRect(-1, 1, -1, 1)),
    (staircase(3), LatticeRect(0, 3, 0, 3)),
    (biscuit(2), LatticeRect(-1, 2, -1, 2)),
])
def test_bounding_boxes(spec, box):
    assert build(spec).bounding_box() == box


def test_bounding_box_of_empty_region_fails():
    with pytest.raises(ShapeError):
        build(staircase(0)).bounding_box()


def test_contains_rect_examples():
    assert build(aztec(1)).contains_rect(LatticeRect(-1, 1, -1, 1))
    assert not build(staircase(2)).contains_rect(LatticeRect(0, 2, 0, 2))
    assert build(aztec_half(3)).contains_rect(LatticeRect(-1, 2, 1, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_contains_rect_closed_form_on_half_diamond(n):
    # containment must reduce to 0 <= c < d <= n and -(n-d+1) <= a < b <= n-d+1
    region = build(aztec_half(n))
    for a in range(-n - 1, n + 1):
        for b in range(a + 1, n + 2):
            for c in range(-1, n + 1):
                for d in range(c + 1, n + 2):
                    closed = (0 <= c < d <= n
                              and -(n - d + 1) <= a < b <= n - d + 1)
                    assert region.contains_rect(LatticeRect(a, b, c, d)) == closed


# --- splits ----------------------------------------------------------------

def test_split_half_aztec_2():
    region = build(aztec(2))
    left, right, axis = split_half(aztec(2))
    assert axis == Axis(0)
    assert left.cell_count == right.cell_count == 6
    assert set(left.cells()) | set(right.cells()) == set(region.cells())
    assert not set(left.cells()) & set(right.cells())
    assert flip_x(left) == right  # congruent halves


def test_split_half_biscuit_axis_and_sizes():
    # the cell cut runs through the quasi-center; the symmetry axis sits at x=1/2
    left, right, axis = split_half(biscuit(2))
    assert axis == Axis(0, half=True)
    assert (left.cell_count, right.cell_count) == (1, 4)
    lb, rb = left.bounding_box(), right.bounding_box()
    assert rb.width == lb.width + 1  # larger part has one more column


def test_split_half_biscuit_1():
    left, right, _ = split_half(biscuit(1))
    assert left.is_empty
    assert right.cell_count == 1


@pytest.mark.parametrize("make", [aztec, biscuit])
def test_split_half_partitions(make):
    for n in range(1, 51):
        region = build(make(n))
        left, right, _ = split_half(make(n))
        assert left.cell_count + right.cell_count == region.cell_count
        cells = set(left.cells())
        assert not cells & set(right.cells())
        assert cells | set(right.cells()) == set(region.cells())


def test_split_half_of_an_aztec_gives_its_left_and_right_halves():
    for n in range(1, 31):
        left, right, axis = split_half(aztec(n))
        assert left == build(aztec_half(n, Side.LEFT))
        assert right == build(aztec_half(n, Side.RIGHT))
        assert axis == vertical_axis(aztec(n))


def test_split_half_rejects_other_families():
    with pytest.raises(ShapeError, match="split_half applies to aztec or biscuit"):
        split_half(staircase(3))


def test_split_staircases_aztec_4():
    parts = split_staircases(aztec(4))
    assert [spec.n for spec, _ in parts] == [4, 4, 4, 4]
    assert {spec.variant for spec, _ in parts} == set(Corner)
    whole = set(build(aztec(4)).cells())
    seen = set()
    for _, region in parts:
        cells = set(region.cells())
        assert not cells & seen
        seen |= cells
    assert seen == whole


def test_split_staircases_biscuit_orders():
    parts = split_staircases(biscuit(4))
    assert sorted(spec.n for spec, _ in parts) == [2, 3, 3, 4]
    parts = split_staircases(biscuit(2))
    assert sorted(spec.n for spec, _ in parts) == [0, 1, 1, 2]
    empty = [region for spec, region in parts if spec.n == 0]
    assert len(empty) == 1 and empty[0].is_empty


def test_split_staircases_parts_match_their_labels():
    for spec in [aztec(1), aztec(5), biscuit(2), biscuit(6)]:
        for label, region in split_staircases(spec):
            assert normalized(region) == normalized(build(label))


def test_split_staircases_biscuit_1_rejected():
    with pytest.raises(ShapeError):
        split_staircases(biscuit(1))


def test_split_staircases_rejects_other_families():
    with pytest.raises(ShapeError):
        split_staircases(staircase(4))


# --- region validation ------------------------------------------------------

def test_cell_region_rejects_empty_interval():
    with pytest.raises(ShapeError):
        CellRegion(0, ((0, 0),))


def test_translate_moves_cells_and_origin():
    region = build(staircase(2)).translate(5, -1)
    assert set(region.cells()) == {(5, -1), (6, -1), (5, 0)}
    assert region == build(staircase(2), (5, -1))  # as if built at the moved origin


# --- spec validation and parsing -------------------------------------------

def test_shape_spec_defaults():
    assert ShapeSpec(Family.STAIRCASE, 3).variant is Corner.DL
    assert ShapeSpec(Family.AZTEC_HALF, 3).variant is Side.TOP
    assert ShapeSpec(Family.BISCUIT_HALF, 3).variant is Part.LARGER


def test_shape_spec_rejects_bad_variants():
    with pytest.raises(ShapeError):
        ShapeSpec(Family.AZTEC, 2, Side.TOP)
    with pytest.raises(ShapeError):
        ShapeSpec(Family.STAIRCASE, 2, Side.TOP)
    with pytest.raises(ShapeError):
        ShapeSpec(Family.AZTEC, 0)
    with pytest.raises(ShapeError):
        ShapeSpec(Family.STAIRCASE, -1)


@pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
def test_shape_spec_refuses_a_non_integer_order(n):
    # operator.index takes a bool as 0 or 1; 2.5 would reach range() in build
    with pytest.raises(ShapeError, match="aztec order must be an integer"):
        ShapeSpec(Family.AZTEC, n)


@pytest.mark.parametrize("family", [3, "aztec", None, ["aztec"]])
def test_shape_spec_refuses_a_non_family(family):
    # ShapeSpec(3, 3) used to build, then fail in str() and build(); a list is unhashable
    with pytest.raises(ShapeError, match="shape family must be a Family, got"):
        ShapeSpec(family, 3)


def test_shape_spec_stores_a_numpy_order_as_int():
    spec = ShapeSpec(Family.STAIRCASE, np.int64(3), Corner.UL)
    assert type(spec.n) is int and str(spec) == "staircase:3:ul"
    assert spec == ShapeSpec(Family.STAIRCASE, 3, Corner.UL)
    assert count_fast(build(spec)) == 15


def test_parse_examples():
    assert parse_shape_spec("aztec:5") == aztec(5)
    assert parse_shape_spec("staircase:3:ul") == staircase(3, Corner.UL)
    assert parse_shape_spec("biscuit-half:4:larger") == biscuit_half(4)
    assert parse_shape_spec("AZTEC-HALF:2:Bottom") == aztec_half(2, Side.BOTTOM)
    assert parse_shape_spec("staircase:7") == staircase(7, Corner.DL)


@pytest.mark.parametrize("text,fragment", [
    ("nosuch:3", "unknown shape family"),
    ("aztec", "missing order"),
    ("aztec:x", "position 6"),
    ("staircase:0", "order must be >= 1"),
    ("aztec:2:top", "takes no variant"),
    ("staircase:3:xx", "invalid staircase variant"),
    ("staircase:3:ul:zz", "extra field"),
    ("aztec:1_0", "invalid order '1_0' at position 6"),
    ("aztec: +4", "invalid order ' \\+4' at position 6"),
    ("aztec:\u0663", "invalid order '\u0663' at position 6"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ShapeError, match=fragment):
        parse_shape_spec(text)


def test_parse_format_roundtrip():
    specs = [aztec(9), biscuit(1), staircase(4, Corner.UR),
             aztec_half(6, Side.LEFT), biscuit_half(2, Part.SMALLER)]
    for spec in specs:
        assert parse_shape_spec(str(spec)) == spec


# --- axes -------------------------------------------------------------------

def test_axis_positions():
    assert Axis(0).double_x == 0
    assert Axis(0, half=True).double_x == 1
    assert Axis(-2, half=True).double_x == -3
    assert str(Axis(0, half=True)) == "x=0.5"
    assert str(Axis(-1, half=True)) == "x=-0.5"
    assert str(Axis(-2, half=True)) == "x=-1.5"
    assert str(Axis(10**30, half=True)) == f"x={10**30}.5"


def test_vertical_axis_per_family():
    assert vertical_axis(aztec(3)) == Axis(0)
    assert vertical_axis(aztec_half(3)) == Axis(0)
    assert vertical_axis(biscuit(3)) == Axis(0, half=True)
    assert vertical_axis(biscuit_half(3)) == Axis(0, half=True)
    with pytest.raises(ShapeError):
        vertical_axis(aztec_half(3, Side.LEFT))
    with pytest.raises(ShapeError):
        vertical_axis(staircase(3))
