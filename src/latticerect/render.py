"""ASCII and SVG grid rendering of cell regions, byte-deterministic."""
from __future__ import annotations

from typing import Optional

from .geometry import Axis, CellRegion, _halves


def render_ascii(region: CellRegion, axis: Optional[Axis] = None) -> str:
    """Grid of '#' (cell) and '.' (gap) over the bounding box, top row first.

    With an axis, cells render two characters wide and a '|' column is
    inserted at the axis: between cell columns for a lattice line, mid-cell
    for a half-unit line.  The axis is drawn only when it falls within the
    bounding box.
    """
    if region.is_empty:
        return ""
    box = region.bounding_box()
    cell_w = 1 if axis is None else 2
    cut = None
    if axis is not None:
        pos = axis.double_x - 2 * box.a  # character offset at cell_w == 2
        if 0 <= pos <= 2 * (box.b - box.a):
            cut = pos
    gap, cell = "." * cell_w, "#" * cell_w
    lines = []
    for lo, hi in reversed(region.spans):
        line = gap * (lo - box.a) + cell * (hi - lo) + gap * (box.b - hi)
        if cut is not None:
            line = line[:cut] + "|" + line[cut:]
        lines.append(line)
    return "\n".join(lines) + "\n"


def render_svg(region: CellRegion, axis: Optional[Axis] = None) -> str:
    """Unit cells as 1x1 <rect> elements in lattice coordinates, y pointing up.

    Output is fully determined by the region and axis: fixed styling, fixed
    element order (top row first, left to right), no timestamps.  The axis
    line is drawn at its exact position, also outside the bounding box.
    """
    if region.is_empty:
        return '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1"/>\n'
    box = region.bounding_box()
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="-0.5 -0.5 {box.width + 1} {box.height + 1}">',
        '<g fill="#dde3f0" stroke="#30343c" stroke-width="0.05">',
    ]
    for y, (lo, hi) in enumerate(reversed(region.spans)):  # SVG y grows down
        for i in range(lo, hi):
            lines.append(f'<rect x="{i - box.a}" y="{y}" width="1" height="1"/>')
    lines.append("</g>")
    if axis is not None:
        x = _halves(axis.double_x - 2 * box.a)
        lines.append(
            f'<line x1="{x}" y1="-0.5" x2="{x}" y2="{box.height}.5" '
            'stroke="#c03020" stroke-width="0.06" stroke-dasharray="0.3 0.2"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
