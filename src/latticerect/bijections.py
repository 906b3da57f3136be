"""Invertible maps behind the counting identities, with exhaustive verifiers.

Each map is a concrete coordinate transformation between two finite rectangle
families, paired with its inverse; ``_COORDS`` writes each pair once, as integer
affine maps of (a, b, c, d) given the order n.  ``verify_bijection`` runs the entries
on the domain that ``_MAPS`` lists, with ``rectangles`` or ``_crossing_rects``, and
checks injectivity, surjectivity and the roundtrip against the codomain it lists the
same way, so the closed forms' identities are replayed.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional

from .counting import CrossingClass, _row_bands, rectangles
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
    """build(shape(n)), once per shape and order: the maps verified at one order share it."""
    return build(shape(n))


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


#: name -> (forward, inverse), each called as (rect, n) on its domain; the quadruple
#: map is one formula both ways, made as a Quadruple and as a LatticeRect.
_COORDS: dict[str, tuple[Callable, Callable]] = {
    # y -> n+2-y sets the staircase above y = x + 1, where 0 <= a < b < c < d <= n+2
    "quadruple": tuple(map(lambda make: lambda r, n: make(r[0], r[1], n + 2 - r[3], n + 2 - r[2]),
                           (Quadruple, LatticeRect))),
    # reflect across x = 0, drop the right part: staircase(n-1), one column right of the axis
    "type_l": (lambda r, _n: LatticeRect(r[1], -r[0], r[2], r[3]),
               lambda r, _n: LatticeRect(-r[1], r[0], r[2], r[3])),
    # a centered [-b, b] x [c, d] is identified with its right part [0, b] x [c, d]
    "type_c": (lambda r, _n: LatticeRect(0, r[1], r[2], r[3]),
               lambda r, _n: LatticeRect(-r[1], r[1], r[2], r[3])),
    # a column inserted left of the biscuit half's axis makes the aztec half: [a-1, b] x [c, d]
    "biscuit_expand": (lambda r, _n: LatticeRect(r[0] - 1, r[1], r[2], r[3]),
                       lambda r, _n: LatticeRect(r[0] + 1, r[1], r[2], r[3])),
}


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
        {Quadruple(*q) for q in itertools.combinations(range(n + 3), 4)}, *_COORDS["quadruple"]),
    "type_l": lambda n: (
        _crossing_rects(_built(aztec_half, n), _AZTEC_AXIS, (CrossingClass.LEFT,)),
        set(rectangles(_built(staircase, n - 1).translate(1, 0))), *_COORDS["type_l"]),
    "type_c": lambda n: (
        _crossing_rects(_built(aztec_half, n), _AZTEC_AXIS, (CrossingClass.CENTERED,)),
        set(_crossing_rects(_built(staircase, n), _BISCUIT_AXIS)), *_COORDS["type_c"]),  # a = 0
    "biscuit_expand": lambda n: (
        _crossing_rects(_built(biscuit_half, n), _BISCUIT_AXIS),
        set(_crossing_rects(_built(aztec_half, n), _AZTEC_AXIS)), *_COORDS["biscuit_expand"]),
}

BIJECTION_NAMES = tuple(_MAPS)


def verify_bijection(name: str, n: int) -> BijectionReport:
    """Exhaustively check one named map at order n (guarded to n <= 20).

    Any failure is reported with a concrete counterexample: the offending
    domain element plus its image, or its broken roundtrip.
    """
    if name not in BIJECTION_NAMES:  # by ==, so an unhashable name is unknown too
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
