"""Brute-force walk enumeration and counting over tilings.

This is the ground-truth oracle: every recurrence and closed form in the
package is cross-checked against the sums computed here.
"""

from dataclasses import dataclass

from .boards import (
    Board,
    EdgeId,
    Orientation,
    _column_fills,
    _raw_tilings,
    count_tilings,
    forbidden_edges,
)
from .errors import BudgetExceeded

# Cap on the number of tilings a single brute-force sum may enumerate.
# 10**7 admits 2xn boards up to n = 14.
DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class WalkCountByLine:
    """Walk totals of a 2xn board split by the ending grid line."""

    n: int
    w0: int
    w1: int
    w2: int


def _column_step(ways, spill, cross):
    """Walk counts on grid line x from those on line x-1.

    `spill` and `cross` are the masks of column x from `_column_fills`: bit
    y-1 of `spill` blocks the climb from (x, y-1) to (x, y), bit y of `cross`
    blocks the step from (x-1, y) to (x, y). Line 0 is the step from
    [1, 0, ..., 0] with nothing blocked.
    """
    nxt, below, climb = [], 0, spill << 1
    for y, w in enumerate(ways):
        below = (0 if cross >> y & 1 else w) + (0 if climb >> y & 1 else below)
        nxt.append(below)
    return nxt


def count_walks_for_tiling(tiling, end_line):
    """Monotone paths from (0,0) to (n, end_line) avoiding forbidden edges."""
    rows, n = tiling.board.rows, tiling.board.cols
    if not 0 <= end_line <= rows:
        raise ValueError(f"end_line {end_line} outside 0..{rows}")
    tiles, removed = [()] * (n + 1), [0] * (n + 1)
    for t in tiling.tiles:
        tiles[t.col] += ((t.kind, t.row),)
    for j, r in tiling.removed:
        removed[j] |= 1 << (r - 1)
    ways, spill = _column_step([1] + [0] * rows, 0, 0), 0
    for x in range(1, n + 1):
        # the masks of the column fill that places this tiling's column-x tiles
        spill, cross = next((s, c) for fill, s, c in _column_fills(
            rows, spill | removed[x], 0, True) if fill == tiles[x])
        ways = _column_step(ways, spill, cross)
    return ways[end_line]


def enumerate_walks(tiling):
    """All admissible corner-to-corner paths, lexicographic (Right < Up).

    Returns step tuples of 'R'/'U' characters; meant for small boards and
    rendering, counting goes through count_walks_for_tiling.
    """
    board = tiling.board
    forb = forbidden_edges(tiling)
    out = []

    def extend(x, y, steps):
        if x == board.cols and y == board.rows:
            out.append(tuple(steps))
            return
        if x < board.cols and EdgeId(Orientation.HORIZONTAL, x, y) not in forb:
            steps.append("R")
            extend(x + 1, y, steps)
            steps.pop()
        if y < board.rows and EdgeId(Orientation.VERTICAL, x, y) not in forb:
            steps.append("U")
            extend(x, y + 1, steps)
            steps.pop()

    extend(0, 0, [])
    return out


def _check_budget(board, budget, squares_allowed=True):
    # dominoes-only 2xn boards have F(n+1) tilings, as many as the 1xn board;
    # a truncated shape has fewer tilings than its full board
    total = count_tilings(board if squares_allowed else Board(1, board.cols))
    if total > budget:
        raise BudgetExceeded(
            f"{board.rows}x{board.cols} board has {total} tilings, budget {budget}"
        )


def brute_tiling_count(board, budget=DEFAULT_BUDGET, partial=None):
    """Number of tilings of the board, or of its truncated `partial` shape,
    counted on the enumeration stream."""
    _check_budget(board, budget)
    return sum(1 for _ in _raw_tilings(board, partial=partial))


def _line_totals(board, squares_allowed=True):
    """Walk totals per ending grid line, summed over every tiling.

    A depth-first search over column fills that carries each partial
    tiling's walk vector, so a tiling costs O(1) column steps amortized.
    """
    n, rows = board.cols, board.rows
    totals = [0] * (rows + 1)
    # (columns filled, spill into the next column, walk counts on the last line)
    stack = [(0, 0, _column_step([1] + [0] * rows, 0, 0))]
    while stack:
        j, spill, ways = stack.pop()
        if j == n:
            totals = [t + w for t, w in zip(totals, ways)]
            continue
        closed = (1 << rows) - 1 if j + 1 == n else 0
        for _, out, cross in _column_fills(rows, spill, closed, squares_allowed):
            stack.append((j + 1, out, _column_step(ways, out, cross)))
    return totals


def brute_v(n, budget=DEFAULT_BUDGET):
    """Total walks over all tilings of the 1xn board."""
    board = Board(1, n)
    _check_budget(board, budget)
    return _line_totals(board)[1]


def brute_w_by_line(n, squares_allowed=True, budget=DEFAULT_BUDGET):
    """Per-ending-line walk totals over all tilings of the 2xn board."""
    board = Board(2, n)
    _check_budget(board, budget, squares_allowed)
    return WalkCountByLine(n, *_line_totals(board, squares_allowed))
