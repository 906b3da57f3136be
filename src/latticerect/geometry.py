"""Lattice shape construction: Aztec diamonds, square biscuits, staircases, halves.

Every shape is a finite union of unit lattice cells, stored as one contiguous
column interval per row (all shapes here are row-convex).  Cell (i, j) is the
unit square [i, i+1] x [j, j+1].  Canonical placements put the symmetry center
of an Aztec diamond, and the quasi-center of a biscuit (the lattice point just
below-left of its true center), at the origin.
"""
from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import index, itemgetter
from typing import Iterator, Optional, Union


class ShapeError(ValueError):
    """Invalid shape parameters, malformed shape text, or an impossible region."""


def _integer(value) -> Optional[int]:
    """``index(value)``, so numpy integers pass as int; None for a bool or a non-integer."""
    try:
        return None if isinstance(value, bool) else index(value)
    except TypeError:
        return None


def ascii_int(text: str) -> int:
    """Parse ASCII decimal digits; int() would also take signs, "_", spaces and other digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII decimal digits: {text!r}")
    return int(text)


class LatticeRect(tuple):
    """Axis-aligned lattice rectangle [a, b] x [c, d] with a < b and c < d: an immutable
    4-tuple with named entries, equal to, and hashed as, the plain tuple."""

    __slots__ = ()
    a, b, c, d = (property(itemgetter(k)) for k in range(4))

    def __new__(cls, a, b, c, d):
        self = tuple.__new__(cls, (a, b, c, d))
        if not type(a) is type(b) is type(c) is type(d) is int:
            if None in (ints := tuple(map(_integer, self))):
                raise ShapeError(f"rectangle coordinates must be integers, got {self}")
            a, b, c, d = self = tuple.__new__(cls, ints)
        if not (a < b and c < d):
            raise ShapeError(f"degenerate rectangle {self}")
        return self

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)  # copy and every pickle protocol rebuild through __new__

    def __repr__(self) -> str:
        return "LatticeRect(a={!r}, b={!r}, c={!r}, d={!r})".format(*self)

    def __str__(self) -> str:
        return "[{},{}]x[{},{}]".format(*self)

    @property
    def width(self) -> int:
        return self[1] - self[0]

    @property
    def height(self) -> int:
        return self[3] - self[2]


class _Record:
    """Read-only fields named by ``__slots__`` and set by ``__init__``, shown as
    ``Type(field=value, ...)``; equal and hashed by the ``_KEY`` fields (default: all),
    within one type only."""

    __slots__ = ()
    _KEY: Optional[tuple[str, ...]] = None

    def _values(self, names: Optional[tuple[str, ...]] = None) -> tuple:
        return tuple(getattr(self, name) for name in names or self.__slots__)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self._KEY) == other._values(self._KEY)

    def __hash__(self) -> int:
        return hash(self._values(self._KEY))

    def __reduce__(self) -> tuple:
        return type(self), self._values()  # copy and every pickle protocol rebuild through __init__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Axis(_Record):
    """A vertical line: a shape's symmetry axis, or the axis of crossing classification.

    ``half=False`` puts the line on the lattice line x = x0; ``half=True`` puts
    it halfway between lattice lines, at x = x0 + 1/2 (the biscuit symmetry
    axis is of this kind).
    """

    __slots__ = ("x0", "half")

    def __init__(self, x0: int, half: bool = False):
        if (position := _integer(x0)) is None:
            raise ShapeError(f"axis position must be an integer, got {x0!r}")
        if not isinstance(half, bool):
            raise ShapeError(f"axis half must be a bool, got {half!r}")
        self._set(position, half)

    @property
    def double_x(self) -> int:
        """Line position in half-units; exact for both kinds."""
        return 2 * self.x0 + (1 if self.half else 0)

    def __str__(self) -> str:
        return f"x={_halves(self.double_x)}"


def _halves(double: int) -> str:
    """``double / 2`` written exactly at any size: no float."""
    return f"{'-' if double < 0 else ''}{abs(double) // 2}{'.5' if double % 2 else ''}"


#: Passed by ``_piece`` alone, so that no caller's spans skip the checks.
_MADE = object()


class CellRegion(_Record):
    """A row-convex set of unit cells: one column interval [lo, hi) per row.

    ``row0`` is the lowest row index; ``spans[k]`` is the interval of row
    ``row0 + k``.
    """

    __slots__ = ("row0", "spans")

    def __init__(self, row0: int, spans: tuple[tuple[int, int], ...], _made=None):
        if _made is _MADE:  # exact-int pairs with lo < hi, as _piece makes them: no checks
            self._set(row0 if spans else 0, spans)
            return
        if (start := _integer(row0)) is None:
            raise ShapeError(f"row0 and span bounds must be integers, got row0 {row0!r}")
        try:
            if type(spans) is tuple:  # int pairs, the common case, are kept as given
                for lo, hi in spans:
                    if not type(lo) is type(hi) is int or lo >= hi:
                        break
                else:
                    self._set(start if spans else 0, spans)
                    return
            checked = []
            for k, (lo, hi) in enumerate(spans, start):
                if (lo := _integer(lo)) is None or (hi := _integer(hi)) is None:
                    raise TypeError
                if lo >= hi:
                    raise ShapeError(f"empty interval [{lo},{hi}) in row {k}")
                checked.append((lo, hi))
        except ShapeError:
            raise
        except (TypeError, ValueError):  # also a row that does not unpack as a pair
            raise ShapeError("row0 and span bounds must be integers and spans pairs") from None
        self._set(start if checked else 0, tuple(checked))

    @property
    def is_empty(self) -> bool:
        return not self.spans

    @property
    def height(self) -> int:
        return len(self.spans)

    @property
    def cell_count(self) -> int:
        return sum(hi - lo for lo, hi in self.spans)

    def cells(self) -> Iterator[tuple[int, int]]:
        for j, (lo, hi) in enumerate(self.spans, self.row0):
            for i in range(lo, hi):
                yield (i, j)

    def bounding_box(self) -> LatticeRect:
        if self.is_empty:
            raise ShapeError("empty region has no bounding box")
        lo = min(s[0] for s in self.spans)
        hi = max(s[1] for s in self.spans)
        return LatticeRect(lo, hi, self.row0, self.row0 + len(self.spans))

    def contains_rect(self, rect: LatticeRect) -> bool:
        """True iff every cell of rect lies in the region."""
        a, b, c, d = rect
        if c < self.row0 or d > self.row0 + len(self.spans):
            return False
        for lo, hi in self.spans[c - self.row0:d - self.row0]:
            if a < lo or b > hi:
                return False
        return True

    def translate(self, dx: int, dy: int) -> "CellRegion":
        return CellRegion(self.row0 + dy, tuple((lo + dx, hi + dx) for lo, hi in self.spans))


class Family(Enum):
    AZTEC = "aztec"
    BISCUIT = "biscuit"
    STAIRCASE = "staircase"
    AZTEC_HALF = "aztec-half"
    BISCUIT_HALF = "biscuit-half"


class Corner(Enum):
    """Staircase orientation: the corner where the right angle sits."""

    UL = "ul"
    UR = "ur"
    DL = "dl"
    DR = "dr"


class Side(Enum):
    TOP = "top"
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"


class Part(Enum):
    LARGER = "larger"
    SMALLER = "smaller"


Variant = Union[Corner, Side, Part]

_DEFAULT_VARIANT = {
    Family.STAIRCASE: Corner.DL,
    Family.AZTEC_HALF: Side.TOP,
    Family.BISCUIT_HALF: Part.LARGER,
}


class ShapeSpec(_Record):
    """A shape family instance: family, order n, and a variant where one applies.

    Order must be >= 1, except that staircases admit order 0 (the empty
    region), which the four-staircase decomposition of a small biscuit needs.
    """

    __slots__ = ("family", "n", "variant")

    def __init__(self, family: Family, n: int, variant: Optional[Variant] = None):
        if not isinstance(family, Family):
            raise ShapeError(f"shape family must be a Family, got {family!r}")
        default = _DEFAULT_VARIANT.get(family)
        if default is None:
            if variant is not None:
                raise ShapeError(f"{family.value} takes no variant")
        elif variant is None:
            variant = default
        elif not isinstance(variant, type(default)):
            raise ShapeError(
                f"{family.value} variant must be a {type(default).__name__}, got {variant!r}")
        if (order := _integer(n)) is None:
            raise ShapeError(f"{family.value} order must be an integer, got {n!r}")
        min_n = 0 if family is Family.STAIRCASE else 1
        if order < min_n:
            raise ShapeError(f"{family.value} order must be >= {min_n}, got {order}")
        self._set(family, order, variant)

    def __str__(self) -> str:
        if self.variant is None:
            return f"{self.family.value}:{self.n}"
        return f"{self.family.value}:{self.n}:{self.variant.value}"


def aztec(n: int) -> ShapeSpec:
    return ShapeSpec(Family.AZTEC, n)


def biscuit(n: int) -> ShapeSpec:
    return ShapeSpec(Family.BISCUIT, n)


def staircase(n: int, corner: Optional[Corner] = None) -> ShapeSpec:
    return ShapeSpec(Family.STAIRCASE, n, corner)


def aztec_half(n: int, side: Optional[Side] = None) -> ShapeSpec:
    return ShapeSpec(Family.AZTEC_HALF, n, side)


def biscuit_half(n: int, part: Optional[Part] = None) -> ShapeSpec:
    return ShapeSpec(Family.BISCUIT_HALF, n, part)


def parse_shape_spec(text: str) -> ShapeSpec:
    """Parse ``family:n[:variant]`` (case-insensitive); see format below.

    Grammar: ``aztec:<n>``, ``biscuit:<n>``, ``staircase:<n>[:ul|ur|dl|dr]``
    (default dl), ``aztec-half:<n>[:top|bottom|left|right]`` (default top),
    ``biscuit-half:<n>[:larger|smaller]`` (default larger).  The order is ASCII
    decimal digits; orders below 1 are rejected.  Errors carry the character
    position of the offending field.
    """
    parts = text.split(":")
    fam_text = parts[0].strip().lower()
    try:
        family = Family(fam_text)
    except ValueError:
        raise ShapeError(f"unknown shape family {parts[0]!r} at position 0") from None
    if len(parts) < 2:
        raise ShapeError(f"missing order after {fam_text!r} at position {len(parts[0])}")
    n_pos = len(parts[0]) + 1
    try:
        n = ascii_int(parts[1].strip())
    except ValueError:
        raise ShapeError(f"invalid order {parts[1]!r} at position {n_pos}") from None
    if n < 1:
        raise ShapeError(f"order must be >= 1, got {n} at position {n_pos}")
    variant: Optional[Variant] = None
    if len(parts) >= 3:
        v_pos = n_pos + len(parts[1]) + 1
        if len(parts) > 3:
            raise ShapeError(f"unexpected extra field at position {v_pos}")
        if family not in _DEFAULT_VARIANT:
            raise ShapeError(
                f"{family.value} takes no variant, got {parts[2]!r} at position {v_pos}")
        try:
            variant = type(_DEFAULT_VARIANT[family])(parts[2].strip().lower())
        except ValueError:
            raise ShapeError(
                f"invalid {family.value} variant {parts[2]!r} at position {v_pos}") from None
    return ShapeSpec(family, n, variant)


#: Every family as a piece of a whole shape: variant (or whole family) ->
#: (whole shape, order change, columns kept, rows kept), where +1 keeps the
#: indices >= 0, -1 those < 0 and 0 both sides of the lines through the origin.
_PIECES: dict[Union[Family, Variant], tuple[Family, int, int, int]] = {
    Family.AZTEC: (Family.AZTEC, 0, 0, 0),
    Family.BISCUIT: (Family.BISCUIT, 0, 0, 0),
    Side.TOP: (Family.AZTEC, 0, 0, 1),
    Side.BOTTOM: (Family.AZTEC, 0, 0, -1),
    Side.LEFT: (Family.AZTEC, 0, -1, 0),
    Side.RIGHT: (Family.AZTEC, 0, 1, 0),
    Part.LARGER: (Family.BISCUIT, 0, 0, 1),
    Part.SMALLER: (Family.BISCUIT, -1, 0, 1),
    Corner.DL: (Family.AZTEC, 0, 1, 1),
    Corner.DR: (Family.AZTEC, 0, -1, 1),
    Corner.UR: (Family.AZTEC, 0, -1, -1),
    Corner.UL: (Family.AZTEC, 0, 1, -1),
}


def _piece(family: Family, n: int, x: int, y: int, cols: int, rows: int) -> CellRegion:
    """Order-n (n >= 0) aztec or biscuit, (quasi-)center at (x, y), cut as in ``_PIECES``.

    Row y + j (j >= 0) spans [x + j - n + b, x + n - j); the rows below mirror
    those above.  Only a left cut empties rows: a biscuit's [x, x + 1) end rows.
    """
    b = 1 if family is Family.BISCUIT else 0  # a biscuit's row y is its own mirror
    if cols > 0:
        top = tuple(zip(repeat(x, n), range(x + n, x, -1)))
    elif cols < 0:
        top = tuple(zip(range(x - n + b, x), repeat(x)))
    else:
        top = tuple(zip(range(x - n + b, x + b), range(x + n, x, -1)))
    if rows > 0:
        return CellRegion(y, top, _MADE)
    bottom = top[b:][::-1]
    return CellRegion(y - len(bottom), bottom if rows else bottom + top, _MADE)


def build(spec: ShapeSpec, offset: tuple[int, int] = (0, 0)) -> CellRegion:
    """Construct the canonical region for spec, moved by offset, in one pass.

    Only the two whole shapes have formulas; every other family is a piece of
    one of them, cut along the lattice lines through its center or
    quasi-center (see ``_PIECES``), and the formula yields only the piece's
    rows and columns.  Canonical rows, bottom to top:

    * aztec n: rows -n..n-1, row j spans [-(n-j'), n-j') with j' = j for
      j >= 0 and j' = -j-1 below; widths 2, 4, ..., 2n, 2n, ..., 4, 2.
    * biscuit n: rows -(n-1)..n-1, row j spans [|j|-n+1, n-|j|); widths
      1, 3, ..., 2n-1, ..., 3, 1; quasi-center at the origin, true center
      and vertical symmetry axis at x = 1/2.
    * aztec-half top/bottom/left/right: the aztec's rows >= 0, rows < 0,
      columns < 0 or columns >= 0, kept in place.
    * biscuit-half larger: the biscuit's rows >= 0, which keep the widest
      row; smaller: biscuit-half larger of order n-1.
    * staircase: the aztec's quadrant with its right angle at the center, which
      sits on that corner of the box [0, n] x [0, n]: dl keeps columns and rows
      >= 0, so row j spans [0, n-j); ul, ur and dr are its reflections.
    """
    try:
        x, y = map(_integer, offset)
    except (TypeError, ValueError):  # not a pair
        x = None
    if x is None or y is None:
        raise ShapeError(f"offset must be two integers, got {offset!r}")
    whole, dn, cols, rows = _PIECES[spec.variant or spec.family]
    n = spec.n + dn
    if isinstance(spec.variant, Corner):
        x, y = x + (n if cols < 0 else 0), y + (n if rows < 0 else 0)
    return _piece(whole, n, x, y, cols, rows)


def vertical_axis(spec: ShapeSpec) -> Axis:
    """The vertical symmetry axis of the canonical shape, where one exists.

    A shape has one exactly when it keeps both column sides of its whole
    shape: Aztec diamonds and their top/bottom halves are symmetric about the
    lattice line x = 0; biscuits and both their halves about x = 1/2.
    """
    whole, _, cols, _ = _PIECES[spec.variant or spec.family]
    if cols:
        raise ShapeError(f"{spec} has no vertical symmetry axis")
    return Axis(0, half=whole is Family.BISCUIT)
