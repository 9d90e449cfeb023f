"""Staircase diagrams for ideals in two variables.

Generators are the inner corners of the staircase, irredundant
components the outer corners.  ASCII output marks them on the lattice;
SVG uses a fixed integer unit so diffs stay stable.
"""

from __future__ import annotations

from cellres.decompose import decompose_brute
from cellres.errors import DimensionMismatch
from cellres.ioformats import monomial_str
from cellres.monomial import MonomialIdeal

SVG_UNIT = 32
SVG_MARGIN = 48


def staircase_data(M: MonomialIdeal) -> dict:
    if M.nvars != 2:
        raise DimensionMismatch("staircase diagrams need exactly 2 variables")
    M.require_nonzero()
    inner = [g.exps for g in M.gens]
    outer = [c.exponent.exps for c in decompose_brute(M).components]
    return {"inner_corners": sorted(inner), "outer_corners": sorted(outer)}


def _extent(data):
    pts = data["inner_corners"] + data["outer_corners"]
    return max(p[0] for p in pts) + 2, max(p[1] for p in pts) + 2


def _column_floors(M: MonomialIdeal, width):
    """For each column x < width, the least y with the monomial (x, y) in M, or None.

    (x, y) is in M exactly when some generator g has g0 <= x and g1 <= y,
    that is when y >= min{g1 : g0 <= x}.  A column that no generator
    reaches has no floor; that happens only when M is not Artinian.
    """
    gens = [g.exps for g in M.gens]
    return [min((g1 for g0, g1 in gens if g0 <= x), default=None) for x in range(width)]


def ascii_staircase(M: MonomialIdeal, names) -> str:
    """Lattice picture; G = generator, O = component, # = monomial in M."""
    data = staircase_data(M)
    width, height = _extent(data)
    inner = set(data["inner_corners"])
    outer = set(data["outer_corners"])
    floors = _column_floors(M, width)
    lines = []
    for y in range(height - 1, -1, -1):
        cells = []
        for x, floor in enumerate(floors):
            if (x, y) in inner:
                cells.append("G")
            elif (x, y) in outer:
                cells.append("O")
            elif floor is not None and y >= floor:
                cells.append("#")
            else:
                cells.append(".")
        lines.append(f"{y:>3} " + " ".join(cells))
    lines.append("    " + " ".join(str(x % 10) for x in range(width)))
    lines.append(f"rows: {names[1]}-degree, columns: {names[0]}-degree; "
                 "G generator (inner corner), O component (outer corner), # in the ideal")
    return "\n".join(lines) + "\n"


def svg_staircase(M: MonomialIdeal, names) -> str:
    data = staircase_data(M)
    width, height = _extent(data)
    u, mg = SVG_UNIT, SVG_MARGIN
    w_px = 2 * mg + width * u
    h_px = 2 * mg + height * u

    def px(x, y):
        return mg + x * u, h_px - mg - y * u

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
           f'viewBox="0 0 {w_px} {h_px}">',
           f'<rect width="{w_px}" height="{h_px}" fill="white"/>']
    for x, floor in enumerate(_column_floors(M, width)):
        if floor is None:
            continue
        for y in range(floor, height):
            cx, cy = px(x, y + 1)
            out.append(f'<rect x="{cx}" y="{cy}" width="{u}" height="{u}" '
                       'fill="#d8d8d8" stroke="none"/>')
    for x in range(width + 1):
        x0, y0 = px(x, 0)
        _, y1 = px(x, height)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#bbbbbb" stroke-width="1"/>')
    for y in range(height + 1):
        x0, y0 = px(0, y)
        x1, _ = px(width, y)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#bbbbbb" stroke-width="1"/>')
    for x in range(width + 1):
        cx, cy = px(x, 0)
        out.append(f'<text x="{cx}" y="{cy + 20}" font-size="12" text-anchor="middle">{x}</text>')
    for y in range(height + 1):
        cx, cy = px(0, y)
        out.append(f'<text x="{cx - 16}" y="{cy + 4}" font-size="12" text-anchor="middle">{y}</text>')
    for x, y in data["inner_corners"]:
        cx, cy = px(x, y)
        label = monomial_str((x, y), names)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="#222222"/>')
        out.append(f'<text x="{cx + 8}" y="{cy - 6}" font-size="12">{label}</text>')
    for x, y in data["outer_corners"]:
        cx, cy = px(x, y)
        label = monomial_str((x, y), names)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="white" stroke="#222222" stroke-width="2"/>')
        out.append(f'<text x="{cx + 8}" y="{cy + 16}" font-size="12" font-style="italic">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
