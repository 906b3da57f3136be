"""Exact lattice-rectangle counting in Aztec diamonds, square biscuits,
staircases, and their halves: shape construction, three independent counting
routes (brute-force oracle, row-band kernel, closed forms), the rectangle
bijections behind the closed forms, and OEIS cross-checks.
"""

__version__ = "0.1.0"

from .bijections import (BijectionReport, Quadruple, anchor_centered,
                         expand_to_aztec_half, fold_left_heavy,
                         quadruple_to_staircase, shrink_to_biscuit_half,
                         staircase_to_quadruple, unanchor_centered,
                         unfold_left_heavy, verify_bijection)
from .counting import (CountBreakdown, CrossingClass, classify,
                       count_breakdown, count_fast, count_formula,
                       count_naive, rectangles)
from .formulas import (OEIS_IDS, SequenceId, aztec_half_rects, aztec_rects,
                       binomial, biscuit_half_rects, biscuit_rects, evaluate,
                       staircase_rects)
from .geometry import (Axis, CellRegion, Corner, Family, LatticeRect, Part,
                       ShapeError, ShapeSpec, Side, aztec, aztec_half, biscuit,
                       biscuit_half, build, parse_shape_spec, split_half,
                       split_staircases, staircase, vertical_axis)
from .oeis import BFile, SeqCheckReport, check, fetch, parse_bfile
from .render import render_ascii, render_svg

__all__ = [
    "Axis", "BFile", "BijectionReport", "CellRegion", "Corner",
    "CountBreakdown", "CrossingClass", "Family", "LatticeRect", "OEIS_IDS",
    "Part", "Quadruple", "SeqCheckReport", "SequenceId", "ShapeError",
    "ShapeSpec", "Side", "anchor_centered", "aztec", "aztec_half",
    "aztec_half_rects", "aztec_rects", "binomial", "biscuit", "biscuit_half",
    "biscuit_half_rects", "biscuit_rects", "build", "check", "classify",
    "count_breakdown", "count_fast", "count_formula", "count_naive", "evaluate",
    "expand_to_aztec_half", "fetch", "fold_left_heavy", "parse_bfile",
    "parse_shape_spec", "quadruple_to_staircase", "rectangles", "render_ascii",
    "render_svg", "shrink_to_biscuit_half", "split_half", "split_staircases",
    "staircase", "staircase_rects", "staircase_to_quadruple",
    "unanchor_centered", "unfold_left_heavy", "verify_bijection",
    "vertical_axis",
]
