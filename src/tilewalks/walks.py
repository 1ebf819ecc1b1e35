"""Brute-force walk enumeration and counting over tilings.

This is the ground-truth oracle: every recurrence and closed form in the
package is cross-checked against the sums computed here.
"""

from dataclasses import dataclass

from .boards import (
    Board,
    EdgeId,
    Orientation,
    TileKind,
    Tiling,
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
    """Walk totals of a 2xn (or 1xn) board split by the ending grid line."""

    n: int
    w0: int
    w1: int
    w2: int = None


def _blocked_sets(raw_tiles):
    """(set of x with a blocked vertical edge at height y, horizontal blocks).

    Vertical edge (x, y)->(x, y+1) is the interior of an HDomino anchored at
    column x, row y+1. Horizontal edge (x, 1)->(x+1, 1) is the interior of a
    VDomino anchored at column x+1.
    """
    vblock = set()
    hblock = set()
    for kind, j, r in raw_tiles:
        if kind == TileKind.HDOMINO:
            vblock.add((j, r - 1))
        elif kind == TileKind.VDOMINO:
            hblock.add(j - 1)
    return vblock, hblock


def _walk_counts(raw_tiles, n, rows):
    """Paths from (0,0) to (n, y) for each y, avoiding domino interiors.

    Column-sweep DP over the rows+1 vertices of each vertical grid line.
    """
    vblock, hblock = _blocked_sets(raw_tiles)
    ways = [0] * (rows + 1)
    ways[0] = 1
    for y in range(1, rows + 1):
        if (0, y - 1) not in vblock:
            ways[y] = ways[y - 1]
    for x in range(1, n + 1):
        nxt = list(ways)
        if rows == 2 and x - 1 in hblock:
            nxt[1] = 0
        for y in range(1, rows + 1):
            if (x, y - 1) not in vblock:
                nxt[y] += nxt[y - 1]
            # a blocked vertical edge only stops the climb, not arrival from the left
        ways = nxt
    return ways


def count_walks_for_tiling(tiling, end_line):
    """Monotone paths from (0,0) to (n, end_line) avoiding forbidden edges."""
    if not 0 <= end_line <= tiling.board.rows:
        raise ValueError(f"end_line {end_line} outside 0..{tiling.board.rows}")
    raw = tuple((t.kind, t.col, t.row) for t in tiling.tiles)
    return _walk_counts(raw, tiling.board.cols, tiling.board.rows)[end_line]


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


def brute_v(n, budget=DEFAULT_BUDGET):
    """Total walks over all tilings of the 1xn board."""
    board = Board(1, n)
    _check_budget(board, budget)
    return sum(_walk_counts(raw, n, 1)[1] for raw in _raw_tilings(board))


def brute_w_by_line(n, squares_allowed=True, budget=DEFAULT_BUDGET):
    """Per-ending-line walk totals over all tilings of the 2xn board."""
    board = Board(2, n)
    _check_budget(board, budget, squares_allowed)
    w0 = w1 = w2 = 0
    for raw in _raw_tilings(board, squares_allowed):
        w = _walk_counts(raw, n, 2)
        w0 += w[0]
        w1 += w[1]
        w2 += w[2]
    return WalkCountByLine(n=n, w0=w0, w1=w1, w2=w2)
