"""Exact lattice-rectangle counting in Aztec diamonds, square biscuits,
staircases, and their halves: shape construction, three independent counting
routes (brute-force oracle, row-band kernel, closed forms), the rectangle
bijections behind the closed forms, and OEIS cross-checks.
"""
import importlib

__version__ = "0.1.0"

#: Each public name's home module, which ``__getattr__`` imports on the name's first use.
_HOMES = {name: module for module, names in {
    "bijections": ("BijectionReport", "verify_bijection"),
    "counting": ("CountBreakdown", "CrossingClass", "classify", "count_breakdown",
                 "count_fast", "count_formula", "count_naive", "rectangles"),
    "formulas": ("OEIS_IDS", "SequenceId", "evaluate"),
    "geometry": ("Axis", "CellRegion", "Corner", "Family", "LatticeRect", "Part", "ShapeError",
                 "ShapeSpec", "Side", "aztec", "aztec_half", "biscuit", "biscuit_half", "build",
                 "parse_shape_spec", "staircase", "vertical_axis"),
    "oeis": ("BFile", "SeqCheckReport", "check", "fetch", "parse_bfile"),
    "render": ("render_ascii", "render_svg"),
}.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import a public name's home module, or a submodule itself, and keep the result."""
    if name not in _HOMES and name not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOMES.get(name, name)}", __name__)
    value = globals()[name] = getattr(module, name) if name in _HOMES else module
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
