"""Brute-force walk enumeration and counting over tilings.

This is the ground-truth oracle: every recurrence and closed form in the
package is cross-checked against the sums computed here.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add

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


@lru_cache(maxsize=None)
def _column_step(rows, spill, cross):
    """The map from the rows + 1 walk counts on grid line x-1 to the tuple
    of counts on line x, compiled to straight-line additions on first use.

    `spill` and `cross` are the masks of column x from `_column_fills`: bit
    y-1 of `spill` blocks the climb from (x, y-1) to (x, y), bit y of `cross`
    blocks the step from (x-1, y) to (x, y), so n[y] = (w[y] unless cross)
    + (n[y-1] unless spill). The source is built from the three ints alone.
    Line 0 is the step from (1, 0, ..., 0) with nothing blocked.
    """
    lines, climb = range(rows + 1), spill << 1 | 1  # row 0 has no climb
    sums = [" + ".join([f"w{y}"] * (not cross >> y & 1)
                       + [f"n{y - 1}"] * (not climb >> y & 1)) or "0" for y in lines]
    source = (f"def step({', '.join(f'w{y}' for y in lines)}):\n"
              + "".join(f"    n{y} = {term}\n" for y, term in enumerate(sums))
              + f"    return ({''.join(f'n{y}, ' for y in lines)})\n")
    namespace = {}
    exec(source, namespace)
    return namespace["step"]


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
    ways, spill = _column_step(rows, 0, 0)(1, *[0] * rows), 0
    for x in range(1, n + 1):
        # the masks of the column fill that places this tiling's column-x tiles
        spill, cross = next((s, c) for fill, s, c in _column_fills(
            rows, spill | removed[x], 0, True) if fill == tiles[x])
        ways = _column_step(rows, spill, cross)(*ways)
    return ways[end_line]


def enumerate_walks(tiling):
    """All admissible corner-to-corner paths, lexicographic (Right < Up).

    Returns step tuples of 'R'/'U' characters; meant for small boards and
    rendering, counting goes through count_walks_for_tiling.
    """
    rows, n = tiling.board.rows, tiling.board.cols
    forb = forbidden_edges(tiling)
    out, steps, stack = [], [], []  # stack: (x, y, the step that reaches it)

    def expand(x, y):  # "R" goes on top, so it is taken first
        if y < rows and EdgeId(Orientation.VERTICAL, x, y) not in forb:
            stack.append((x, y + 1, "U"))
        if x < n and EdgeId(Orientation.HORIZONTAL, x, y) not in forb:
            stack.append((x + 1, y, "R"))

    expand(0, 0)
    while stack:
        x, y, step = stack.pop()
        del steps[x + y - 1:]  # back to the path of the vertex this step leaves
        steps.append(step)
        if x == n and y == rows:
            out.append(tuple(steps))
        else:
            expand(x, y)
    return out


def _count_text(total):
    """`total` in digits when it has at most 30, else "more than 10^k" with
    10^k < total, found without str(), which refuses long ints."""
    if total < 10**30:
        return str(total)
    k = int((total.bit_length() - 1) * 0.30103) - 2  # 0.30103 ~ log10(2): k is low
    while 10 ** (k + 1) < total:
        k += 1
    return f"more than 10^{k}"


def _check_budget(board, budget, squares_allowed=True, partial=None):
    total = count_tilings(board, squares_allowed, partial)
    if total > budget:
        shape = f"{board.rows}x{board.cols} board"
        if partial is not None:
            shape = f"shape {partial.name} of the {shape}"
        raise BudgetExceeded(f"{shape} has {_count_text(total)} tilings, budget {budget}")


def brute_tiling_count(board, budget=DEFAULT_BUDGET, partial=None):
    """Number of tilings of the board, or of its truncated `partial` shape,
    counted on the enumeration stream."""
    _check_budget(board, budget, partial=partial)
    return sum(1 for _ in _raw_tilings(board, partial=partial))


def _line_totals(board, squares_allowed=True):
    """Walk totals per ending grid line, summed over every tiling of each
    prefix board: entry j belongs to the board's first j columns.

    A depth-first search over column fills that carries each partial
    tiling's walk vector, so a tiling costs O(1) column steps amortized. A
    node at depth j with no spill into column j+1 is a tiling of the
    j-column board, and its vector is that tiling's walk counts; it is
    added when it is made, and the nodes at depth n are never pushed.
    Before the search, the fills become two tables of (spill out, compiled
    step) indexed by the spill in: one for the inner columns and one for
    the last, which is closed on every row. A node only indexes a list.
    """
    n, rows = board.cols, board.rows
    start = _column_step(rows, 0, 0)(1, *[0] * rows)
    inner, last = ([[(out, _column_step(rows, out, cross)) for _, out, cross
                     in _column_fills(rows, spill, closed, squares_allowed)]
                    for spill in range(1 << rows)] for closed in (0, (1 << rows) - 1))
    fills = [inner] * (n - 1) + [last]
    totals = [list(start)] + [[0] * (rows + 1) for _ in range(n)]
    # (columns filled, spill into the next column, walk counts on the last line)
    stack = [(0, 0, start)] if n else []
    while stack:
        j, spill, ways = stack.pop()
        for out, step in fills[j][spill]:
            nxt = step(*ways)
            if not out:
                totals[j + 1] = list(map(add, totals[j + 1], nxt))
            if j + 1 < n:
                stack.append((j + 1, out, nxt))
    return totals


def brute_line_totals(rows, upto, squares_allowed=True, budget=DEFAULT_BUDGET):
    """Per-ending-line walk totals over all tilings of the rows x j board,
    for every j = 0..upto, from one search of the largest board.

    The budget is checked against the largest board before any enumeration.
    """
    board = Board(rows, upto)
    _check_budget(board, budget, squares_allowed)
    return _line_totals(board, squares_allowed)


def brute_v(n, budget=DEFAULT_BUDGET):
    """Total walks over all tilings of the 1xn board."""
    return brute_line_totals(1, n, budget=budget)[n][1]


def brute_w_by_line(n, squares_allowed=True, budget=DEFAULT_BUDGET):
    """Per-ending-line walk totals over all tilings of the 2xn board."""
    return WalkCountByLine(n, *brute_line_totals(2, n, squares_allowed, budget)[n])
