import itertools
from functools import partial
from math import comb

import pytest

from conftest import check_record, refuse_type_l_forward, refuse_type_l_inverse
from latticerect import (Axis, CellRegion, CrossingClass, LatticeRect, SequenceId, ShapeSpec,
                         aztec_half, biscuit_half, build, classify, evaluate, rectangles,
                         staircase, verify_bijection)
from latticerect import bijections, counting
from latticerect.bijections import BIJECTION_NAMES, MAX_VERIFY_ORDER, BijectionReport

s = partial(evaluate, SequenceId.STAIRCASE)


def crossing_rects(spec, axis, wanted=None):
    out = []
    for rect in rectangles(build(spec)):
        cls = classify(rect, axis)
        if (cls is wanted) or (wanted is None and cls is not CrossingClass.NON_CROSSING):
            out.append(rect)
    return out


def on_domain(name, n):
    """The domain that ``_MAPS`` lists for the named map at order n, and its ``_COORDS`` pair."""
    return (bijections._MAPS[name](n)[0], *bijections._COORDS[name])


# --- quadruple encoding -------------------------------------------------------

def test_single_cell_staircase_encodes_to_0123():
    domain, forward, _ = on_domain("quadruple", 1)
    assert domain == [LatticeRect(0, 1, 0, 1)]
    assert forward(LatticeRect(0, 1, 0, 1), 1) == (0, 1, 2, 3)


def test_order_2_rects_biject_with_quadruples():
    domain, forward, _ = on_domain("quadruple", 2)
    assert domain == list(rectangles(build(staircase(2))))
    quads = {forward(r, 2) for r in domain}
    assert quads == set(itertools.combinations(range(5), 4))
    assert len(quads) == comb(5, 4) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_quadruple_roundtrip(n):
    domain, forward, inverse = on_domain("quadruple", n)
    for rect in domain:
        a, b, c, d = q = forward(rect, n)
        assert 0 <= a < b < c < d <= n + 2
        assert inverse(q, n) == rect


def test_quadruple_rejects_out_of_range():
    # the codomain holds the strictly increasing integer quadruples from 0 to n + 2 only
    codomain = bijections._MAPS["quadruple"](3)[1]
    assert (0, 1, 2, 5) in codomain
    for q in [(2, 4, 0, 3), (-1, 1, 2, 3), (0, 1, 2, 3.5), (0, 1, 2, True), (0, 2, 2, 3),
              (0, 1, 2, 6)]:
        assert q not in codomain


def test_bijection_report_is_a_read_only_value():
    report = verify_bijection("quadruple", 1)
    twins = check_record(report, "BijectionReport(name='quadruple', order=1, domain_size=1, "
                         "image_size=1, is_injective=True, is_surjective=True, "
                         "roundtrip_ok=True, counterexample=None)")
    assert {hash(twin) for twin in twins} == {hash(report)}
    assert report == BijectionReport("quadruple", 1, 1, 1, True, True, True)
    failed = BijectionReport("type_l", 3, 2, 1, False, True, False,
                             (LatticeRect(0, 1, 0, 1), "refused"))
    check_record(failed, "BijectionReport(name='type_l', order=3, domain_size=2, image_size=1, "
                 "is_injective=False, is_surjective=True, roundtrip_ok=False, counterexample="
                 "(LatticeRect(a=0, b=1, c=0, d=1), 'refused'))")


# --- left-heavy fold ----------------------------------------------------------

def test_fold_left_heavy_wide_example():
    domain, forward, _ = on_domain("type_l", 7)
    assert LatticeRect(-3, 2, 1, 3) in domain
    assert forward(LatticeRect(-3, 2, 1, 3), 7) == LatticeRect(2, 3, 1, 3)


def test_fold_left_heavy_minimal_case():
    lefts = crossing_rects(aztec_half(2), Axis(0), CrossingClass.LEFT)
    assert lefts == [LatticeRect(-2, 1, 0, 1)]  # the single left-heavy rect
    domain, forward, _ = on_domain("type_l", 2)
    assert domain == lefts
    assert forward(lefts[0], 2) == LatticeRect(1, 2, 0, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_fold_left_heavy_roundtrip(n):
    domain, forward, inverse = on_domain("type_l", n)
    assert domain == crossing_rects(aztec_half(n), Axis(0), CrossingClass.LEFT)
    for rect in domain:
        folded = forward(rect, n)
        assert folded[0] >= 1
        assert inverse(folded, n) == rect


# --- centered anchoring ---------------------------------------------------------

def test_anchor_centered_example():
    domain, codomain = bijections._MAPS["type_c"](2)[:2]
    assert LatticeRect(-2, 2, 0, 1) in domain and LatticeRect(0, 2, 0, 1) in codomain
    forward, inverse = bijections._COORDS["type_c"]
    assert forward(LatticeRect(-2, 2, 0, 1), 2) == LatticeRect(0, 2, 0, 1)
    assert inverse(LatticeRect(0, 2, 0, 1), 2) == LatticeRect(-2, 2, 0, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_anchored_rect_count(n):
    anchored = [r for r in rectangles(build(staircase(n))) if r.a == 0]
    assert len(anchored) == s(n) - s(n - 1)


# --- biscuit column insertion ----------------------------------------------------

def test_expand_wide_example():
    domain, forward, _ = on_domain("biscuit_expand", 6)
    assert LatticeRect(-1, 3, 1, 3) in domain
    assert forward(LatticeRect(-1, 3, 1, 3), 6) == LatticeRect(-2, 3, 1, 3)


def test_expand_order_2_onto_crossing_rects():
    domain, forward, _ = on_domain("biscuit_expand", 2)
    assert domain == crossing_rects(biscuit_half(2), Axis(0, half=True))
    assert len(domain) == s(2) + s(1) == 6
    images = {forward(r, 2) for r in domain}
    assert images == set(crossing_rects(aztec_half(2), Axis(0)))


@pytest.mark.parametrize("n", range(1, 9))
def test_expand_roundtrip(n):
    domain, forward, inverse = on_domain("biscuit_expand", n)
    assert domain == crossing_rects(biscuit_half(n), Axis(0, half=True))
    for rect in domain:
        grown = forward(rect, n)
        assert classify(grown, Axis(0)) is not CrossingClass.NON_CROSSING
        assert inverse(grown, n) == rect


# --- exhaustive verification -------------------------------------------------------

EXPECTED_DOMAIN_SIZE = {
    "quadruple": lambda n: comb(n + 3, 4),
    "type_l": lambda n: s(n - 1),
    "type_c": lambda n: s(n) - s(n - 1),
    "biscuit_expand": lambda n: s(n) + s(n - 1),
}


def test_verify_bijection_examples():
    report = verify_bijection("quadruple", 5)
    assert report.verified
    assert report.domain_size == report.image_size == 70

    report = verify_bijection("type_l", 2)
    assert report.verified and report.domain_size == 1

    report = verify_bijection("biscuit_expand", 1)
    assert report.verified and report.domain_size == 1


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_verify_bijection_small_orders(name):
    for n in range(1, 9):
        report = verify_bijection(name, n)
        assert report.verified, (name, n, report)
        assert report.counterexample is None
        assert report.domain_size == EXPECTED_DOMAIN_SIZE[name](n)


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_maps_return_their_own_value_types(name):
    # an image is a rectangle, or for the quadruple map a strictly increasing quadruple,
    # and its inverse image is the domain rectangle's entries
    n = 5
    domain, _, forward, inverse = bijections._MAPS[name](n)
    for x in domain:
        a, b, c, d = y = forward(x, n)
        assert 0 <= a < b < c < d if name == "quadruple" else LatticeRect(*y) == y
        assert LatticeRect(*inverse(y, n)) == x


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_maps_compute_plain_int_tuples(name):
    for n in range(1, 9):
        domain, codomain, forward, inverse = bijections._MAPS[name](n)
        for x in domain:
            y = forward(x, n)
            for image in (y, inverse(y, n)):
                assert type(image) is tuple and len(image) == 4, (name, n, image)
                assert all(type(v) is int for v in image), (name, n, image)
        if name == "quadruple":
            assert codomain == set(itertools.combinations(range(n + 3), 4))
            assert len(codomain) == evaluate(SequenceId.STAIRCASE, n)


def test_verify_bijection_runs_no_guard(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"guard called on {args}")
    monkeypatch.setattr(counting, "classify", refuse)
    monkeypatch.setattr(CellRegion, "contains_rect", refuse)
    assert not hasattr(bijections, "classify")  # so no copy escapes the patch
    for name in BIJECTION_NAMES:
        assert verify_bijection(name, 6).verified, name


def test_type_c_codomain_is_the_staircase_rectangles_on_the_axis():
    for n in range(1, MAX_VERIFY_ORDER + 1):
        codomain = bijections._MAPS["type_c"](n)[1]
        assert codomain == {r for r in rectangles(build(staircase(n))) if r.a == 0}, n


def test_verify_bijection_guards():
    for name in ["nosuch", ["quadruple"], {}]:
        with pytest.raises(ValueError, match="^unknown bijection "):
            verify_bijection(name, 3)
    with pytest.raises(ValueError):
        verify_bijection("quadruple", 0)
    with pytest.raises(ValueError):
        verify_bijection("quadruple", MAX_VERIFY_ORDER + 1)


@pytest.mark.parametrize("n", [True, 2.0, 2.5])
def test_verify_bijection_refuses_a_non_integer_order_before_building(monkeypatch, n):
    built = []
    monkeypatch.setattr(bijections, "build", lambda spec: built.append(spec) or build(spec))
    message = rf"^order must be an integer in 1\.\.{MAX_VERIFY_ORDER}, got "
    with pytest.raises(ValueError, match=message) as err:
        verify_bijection("quadruple", n)
    assert type(err.value) is ValueError  # its own check, not ShapeSpec's ShapeError
    assert built == []


def test_verify_bijection_reports_a_numpy_order_as_int():
    np = pytest.importorskip("numpy")
    report = verify_bijection("quadruple", np.int64(3))
    assert type(report.order) is int and report.order == 3
    assert report.verified


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_verify_bijection_builds_each_shape_once(monkeypatch, name):
    built, made = [], []
    monkeypatch.setattr(bijections, "build", lambda spec: built.append(spec) or build(spec))
    init = ShapeSpec.__init__
    monkeypatch.setattr(ShapeSpec, "__init__", lambda spec, *a: init(spec, *a) or made.append(spec))
    assert verify_bijection(name, 6).verified
    assert built and len(built) == len(set(built)), built
    # the maps look their shapes up by constructor and order, not by a fresh ShapeSpec
    assert made and len(made) == len(set(made)), made


def test_verify_bijection_reports_a_raising_inverse(monkeypatch):
    refuse_type_l_inverse(monkeypatch, 3)
    assert verify_bijection("type_l", 2).verified
    report = verify_bijection("type_l", 3)
    assert (report.is_injective, report.is_surjective, report.roundtrip_ok) == (True, True, False)
    x, y, message = report.counterexample
    assert (x, y) == (LatticeRect(-3, 1, 0, 1), bijections._COORDS["type_l"][0](x, 3))
    assert message == f"refused {y}"


def test_verify_bijection_reports_a_raising_forward_map(monkeypatch):
    refused = LatticeRect(-3, 2, 0, 1)  # the second type_l domain element at n = 3
    refuse_type_l_forward(monkeypatch, refused)
    assert verify_bijection("type_l", 2).verified
    report = verify_bijection("type_l", 3)
    assert (report.is_injective, report.is_surjective, report.roundtrip_ok) == (False, False, False)
    assert report.counterexample == (refused, f"refused {refused}")


def test_verify_bijection_names_a_codomain_element_no_image_reaches(monkeypatch):
    extra = LatticeRect(50, 51, 0, 1)
    sides = bijections._MAPS["type_l"]

    def widened(n):
        domain, codomain, forward, inverse = sides(n)
        return domain, codomain | {extra}, forward, inverse
    monkeypatch.setitem(bijections._MAPS, "type_l", widened)
    report = verify_bijection("type_l", 3)
    assert (report.is_injective, report.is_surjective, report.roundtrip_ok) == (True, False, True)
    assert report.image_size == report.domain_size
    assert report.counterexample == (extra,)
