"""Invertible maps behind the counting identities, with exhaustive verifiers.

Each map is a concrete coordinate transformation between two finite rectangle
families, paired with its inverse.  A map's domain is a shape at order n and
maybe some crossing classes about its axis: the forward map refuses the rest
with ``_require``, and ``_MAPS`` lists it with ``rectangles`` or, given the
same axis and classes, ``_crossing_rects``.  ``verify_bijection`` walks the
domain once and checks injectivity, surjectivity and the roundtrip, so the
closed forms' identities are replayed.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional

from .counting import CrossingClass, _row_bands, classify, rectangles
from .geometry import (Axis, CellRegion, LatticeRect, ShapeSpec, _Four, _integer, _Record,
                       aztec_half, biscuit_half, build, staircase, vertical_axis)

#: Exhaustive verification is guarded to small orders; domain sizes grow as n^4.
MAX_VERIFY_ORDER = 20
#: Vertical symmetry axes of the canonical Aztec diamond and biscuit halves.
_AZTEC_AXIS, _BISCUIT_AXIS = vertical_axis(aztec_half(1)), vertical_axis(biscuit_half(1))
#: The classes of a rectangle whose interior meets the axis, in b order for each a.
_CROSSING = (CrossingClass.LEFT, CrossingClass.CENTERED, CrossingClass.RIGHT)


@functools.lru_cache(maxsize=8)
def _built(shape: Callable[[int], ShapeSpec], n: int) -> CellRegion:
    """build(shape(n)), once per shape and order: the maps check containment per rectangle."""
    return build(shape(n))


def _require(rect: LatticeRect, shape: Callable[[int], ShapeSpec], n: int,
             axis: Optional[Axis] = None, classes: tuple = _CROSSING) -> LatticeRect:
    """The rectangle, refused if outside shape(n) or, given an axis, the classes about it."""
    if not _built(shape, n).contains_rect(rect):
        raise ValueError(f"{rect} is not inside {shape(n)}")
    if axis is not None and (cls := classify(rect, axis)) not in classes:
        raise ValueError(f"{rect} is {cls.name} about {axis}")
    return rect


def _crossing_rects(region: CellRegion, axis: Axis,
                    classes: tuple = _CROSSING) -> list[LatticeRect]:
    """The rectangles of the region in crossing classes about the axis, in rectangles() order;
    a crossing one is LEFT, CENTERED or RIGHT as a + b <, = or > dx: one b range per a each."""
    dx = axis.double_x
    last, first = (dx - 1) // 2, dx // 2 + 1  # only a <= last and b >= first cross
    return [LatticeRect(a, b, c, d) for c, d, lo, hi in _row_bands(region)
            for a in range(lo, min(hi, last + 1))  # so lo < first <= dx - a
            for cuts in ((first, min(dx - a, hi + 1), min(dx - a + 1, hi + 1), hi + 1),)
            for k in range(3) if _CROSSING[k] in classes for b in range(cuts[k], cuts[k + 1])]


class Quadruple(_Four):
    """Strictly increasing integer quadruple 0 <= a < b < c < d."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        self = tuple.__new__(cls, (a, b, c, d))
        if not type(a) is type(b) is type(c) is type(d) is int:
            if None in (ints := tuple(map(_integer, self))):
                raise ValueError(f"quadruple entries must be integers, got {self}")
            a, b, c, d = self = tuple.__new__(cls, ints)
        if not (0 <= a < b < c < d):
            raise ValueError(f"not strictly increasing from 0: {self}")
        return self


def staircase_to_quadruple(rect: LatticeRect, n: int) -> Quadruple:
    """Encode a rectangle of the canonical order-n dl staircase as a quadruple.

    The staircase is flipped onto the frame where it sits above the line
    y = x + 1 with rows 2..n+1 (y -> n+2-y); there a contained rectangle
    [a, b] x [c, d] satisfies exactly 0 <= a < b < c < d <= n+2, so its own
    coordinates are the encoding.
    """
    a, b, c, d = _require(rect, staircase, n)
    return Quadruple(a, b, n + 2 - d, n + 2 - c)


def quadruple_to_staircase(q: Quadruple, n: int) -> LatticeRect:
    """Inverse of staircase_to_quadruple; requires d <= n + 2."""
    a, b, c, d = q
    if d > n + 2:
        raise ValueError(f"{q} exceeds the order-{n} bound {n + 2}")
    return LatticeRect(a, b, n + 2 - d, n + 2 - c)


def fold_left_heavy(rect: LatticeRect, n: int) -> LatticeRect:
    """Map a left-heavy crossing rectangle of the top half diamond inward.

    Reflecting the rectangle's left part across the axis x = 0 and removing
    the right part leaves the strip [b, -a] x [c, d], which lands in the
    order-(n-1) staircase one column right of the axis.
    """
    a, b, c, d = _require(rect, aztec_half, n, _AZTEC_AXIS, (CrossingClass.LEFT,))
    return LatticeRect(b, -a, c, d)


def unfold_left_heavy(rect: LatticeRect, n: int) -> LatticeRect:
    """Inverse of fold_left_heavy: [u, v] x [c, d] back to [-v, u] x [c, d]."""
    a, b, c, d = rect
    if a < 1:
        raise ValueError(f"{rect} does not lie strictly right of the axis")
    _require(rect, aztec_half, n)
    return LatticeRect(-b, a, c, d)


def anchor_centered(rect: LatticeRect) -> LatticeRect:
    """Identify a centered rectangle [-b, b] x [c, d] with its right part."""
    a, b, c, d = rect
    if a != -b:
        raise ValueError(f"{rect} is not centered on the axis x=0")
    return LatticeRect(0, b, c, d)


def unanchor_centered(rect: LatticeRect) -> LatticeRect:
    """Mirror an axis-anchored rectangle back to its centered original."""
    a, b, c, d = rect
    if a != 0:
        raise ValueError(f"{rect} does not have its left side on the axis x=0")
    return LatticeRect(-b, b, c, d)


def expand_to_aztec_half(rect: LatticeRect, n: int) -> LatticeRect:
    """Widen a crossing rectangle of the larger biscuit half by one column.

    Inserting a full-height column just left of the half-unit axis turns the
    larger half of an order-n biscuit into the top half of an order-n Aztec
    diamond; a rectangle whose interior meets the axis grows with it, to
    [a-1, b] x [c, d], which crosses the new diamond's axis x = 0.
    """
    a, b, c, d = _require(rect, biscuit_half, n, _BISCUIT_AXIS)
    return LatticeRect(a - 1, b, c, d)


def shrink_to_biscuit_half(rect: LatticeRect, n: int) -> LatticeRect:
    """Inverse of expand_to_aztec_half: drop the inserted column."""
    a, b, c, d = _require(rect, aztec_half, n, _AZTEC_AXIS)
    return LatticeRect(a + 1, b, c, d)


class BijectionReport(_Record):
    """Outcome of exhaustively verifying one map at one order."""

    __slots__ = ("name", "order", "domain_size", "image_size", "is_injective", "is_surjective",
                 "roundtrip_ok", "counterexample")

    def __init__(self, name: str, order: int, domain_size: int, image_size: int,
                 is_injective: bool, is_surjective: bool, roundtrip_ok: bool,
                 counterexample: Optional[tuple] = None):
        self._set(name, order, domain_size, image_size, is_injective, is_surjective,
                  roundtrip_ok, counterexample)

    @property
    def verified(self) -> bool:
        return self.is_injective and self.is_surjective and self.roundtrip_ok


#: name -> order -> (domain in enumeration order, codomain, forward, inverse)
_MAPS: dict[str, Callable[[int], tuple]] = {
    "quadruple": lambda n: (
        list(rectangles(_built(staircase, n))),
        {Quadruple(*combo) for combo in itertools.combinations(range(n + 3), 4)},
        staircase_to_quadruple, quadruple_to_staircase),
    "type_l": lambda n: (
        _crossing_rects(_built(aztec_half, n), _AZTEC_AXIS, (CrossingClass.LEFT,)),
        set(rectangles(_built(staircase, n - 1).translate(1, 0))),
        fold_left_heavy, unfold_left_heavy),
    "type_c": lambda n: (
        _crossing_rects(_built(aztec_half, n), _AZTEC_AXIS, (CrossingClass.CENTERED,)),
        {LatticeRect(0, b, c, d) for c, d, lo, hi in _row_bands(_built(staircase, n))
         if lo <= 0 for b in range(1, hi + 1)},
        lambda rect, _n: anchor_centered(rect), lambda rect, _n: unanchor_centered(rect)),
    "biscuit_expand": lambda n: (
        _crossing_rects(_built(biscuit_half, n), _BISCUIT_AXIS),
        set(_crossing_rects(_built(aztec_half, n), _AZTEC_AXIS)),
        expand_to_aztec_half, shrink_to_biscuit_half),
}

BIJECTION_NAMES = tuple(_MAPS)


def verify_bijection(name: str, n: int) -> BijectionReport:
    """Exhaustively check one named map at order n (guarded to n <= 20).

    Any failure is reported with a concrete counterexample: the offending
    domain element plus its image, or its broken roundtrip.
    """
    if name not in _MAPS:
        raise ValueError(f"unknown bijection {name!r}; known: {', '.join(_MAPS)}")
    if (order := _integer(n)) is None or not 1 <= order <= MAX_VERIFY_ORDER:
        raise ValueError(f"order must be an integer in 1..{MAX_VERIFY_ORDER}, got {n!r}")
    n = order  # a numpy order reports as an int
    domain, codomain, forward, inverse = _MAPS[name](n)
    images = set()
    counterexample = None  # the first in domain order
    in_codomain = roundtrip_ok = True
    for x in domain:
        try:
            y = forward(x, n)
        except ValueError as err:
            in_codomain = roundtrip_ok = False
            counterexample = counterexample or (x, str(err))
            continue
        images.add(y)
        if y not in codomain:
            in_codomain = False
            counterexample = counterexample or (x, y)
            continue
        try:
            back = inverse(y, n)
        except ValueError as err:
            back = str(err)
        if back != x:
            roundtrip_ok = False
            counterexample = counterexample or (x, y, back)
    is_injective = in_codomain and len(images) == len(domain)
    is_surjective = in_codomain and images == codomain
    if counterexample is None and images != codomain:  # every image roundtrips: one is missed
        counterexample = (next(iter(codomain - images)),)
    return BijectionReport(name, n, len(domain), len(images), is_injective, is_surjective,
                           roundtrip_ok, counterexample)
