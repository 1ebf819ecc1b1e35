"""Deterministic SVG rendering of a tiled board with its admissible walks."""

from . import walks
from .boards import TileKind, tiling_at
from .errors import BudgetExceeded, IndexOutOfRange

CELL = 60
MARGIN = 30

GRID_STYLE = 'stroke="#bbbbbb" stroke-width="1"'
SQUARE_FILL = "#fff3c4"
DOMINO_FILL = "#c9dff2"
TILE_STYLE = 'stroke="#555555" stroke-width="2"'
FORBIDDEN_STYLE = 'stroke="#d62728" stroke-width="5" stroke-linecap="round"'
WALK_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b")


def _vx(x):
    return MARGIN + x * CELL


def _vy(y, rows):
    # flip: board y grows upward, SVG y grows downward
    return MARGIN + (rows - y) * CELL


def svg_for_tiling(board, tiling_index, squares_allowed=True):
    """SVG text for one tiling of the board with all walks overlaid.

    Byte-deterministic for fixed input: enumeration order is deterministic
    and all geometry is integer or fixed-precision.
    """
    try:
        tiling = tiling_at(board, tiling_index, squares_allowed)
    except IndexError as exc:
        raise IndexOutOfRange(*exc.args)
    rows, n = board.rows, board.cols
    if (count := walks.count_walks_for_tiling(tiling, rows)) > walks.DEFAULT_BUDGET:
        raise BudgetExceeded(f"tiling {tiling_index} of the {rows}x{n} board has "
                             f"{walks._count_text(count)} walks, "
                             f"budget {walks.DEFAULT_BUDGET}")
    width = 2 * MARGIN + max(n, 1) * CELL
    height = 2 * MARGIN + rows * CELL
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<title>{rows}x{n} board, tiling {tiling_index}</title>',
    ]
    for t in tiling.tiles:  # from the anchor cell's lower left to the last cell's upper right
        c1, r1 = t.covered_cells()[-1]
        x0, y0 = _vx(t.col - 1), _vy(r1, rows)
        fill = SQUARE_FILL if t.kind == TileKind.SQUARE else DOMINO_FILL
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{_vx(c1) - x0}" height="{_vy(t.row - 1, rows) - y0}" '
            f'fill="{fill}" {TILE_STYLE}/>'
        )
    for x in range(n + 1):
        out.append(
            f'<line x1="{_vx(x)}" y1="{_vy(0, rows)}" '
            f'x2="{_vx(x)}" y2="{_vy(rows, rows)}" {GRID_STYLE}/>'
        )
    for y in range(rows + 1):
        out.append(
            f'<line x1="{_vx(0)}" y1="{_vy(y, rows)}" '
            f'x2="{_vx(n)}" y2="{_vy(y, rows)}" {GRID_STYLE}/>'
        )
    # each domino's interior edge: bit y of column x's cross is the edge
    # from (x-1, y) to (x, y), bit y of its spill the edge from (x, y) to
    # (x, y+1); the horizontal edges come first, each kind by x, then y
    for i, dx, dy in ((1, 1, 0), (0, 0, 1)):
        for x, column in enumerate(tiling.masks()):
            for y in range(rows + 1):
                if column[i] >> y & 1:
                    out.append(
                        f'<line x1="{_vx(x - dx)}" y1="{_vy(y, rows)}" '
                        f'x2="{_vx(x)}" y2="{_vy(y + dy, rows)}" {FORBIDDEN_STYLE}/>'
                    )
    paths = walks.enumerate_walks(tiling)
    for i, walk in enumerate(paths):
        # small per-walk offset so overlapping walks stay distinguishable
        off = (i - (len(paths) - 1) / 2) * 4
        x, y = 0, 0
        pts = [(_vx(0) + off, _vy(0, rows) + off)]
        for step in walk:
            if step == "R":
                x += 1
            else:
                y += 1
            pts.append((_vx(x) + off, _vy(y, rows) + off))
        path = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
        color = WALK_COLORS[i % len(WALK_COLORS)]
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2.5" stroke-opacity="0.85"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
