"""Boards, tiles, tilings and exhaustive tiling enumeration.

Cells are addressed (col, row) with col in 1..n and row in 1..rows.
Grid vertices are (x, y) with x in 0..n and y in 0..rows; walks run from
(0, 0) to (n, rows).
"""

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache

from .closedforms import fib
from .recurrences import eval_system, tiling_system


class TileKind(IntEnum):
    SQUARE = 0
    HDOMINO = 1
    VDOMINO = 2


class Orientation(IntEnum):
    HORIZONTAL = 0
    VERTICAL = 1


class PartialKind(IntEnum):
    """Truncated 2xn board shapes used by the coupled tiling recurrences."""

    A = 0
    C = 1
    D = 2


@dataclass(frozen=True)
class Board:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows not in (1, 2):
            raise ValueError(f"rows must be 1 or 2, got {self.rows}")
        if self.cols < 0:
            raise ValueError(f"cols must be >= 0, got {self.cols}")

    @property
    def cells(self):
        return frozenset(
            (j, r) for j in range(1, self.cols + 1) for r in range(1, self.rows + 1)
        )


@dataclass(frozen=True)
class TilePlacement:
    """A tile anchored at its left (HDomino) or bottom (VDomino) cell."""

    kind: TileKind
    col: int
    row: int

    def covered_cells(self):
        if self.kind == TileKind.SQUARE:
            return ((self.col, self.row),)
        if self.kind == TileKind.HDOMINO:
            return ((self.col, self.row), (self.col + 1, self.row))
        return ((self.col, self.row), (self.col, self.row + 1))

    def sort_key(self):
        return (self.col, self.row, int(self.kind))


@dataclass(frozen=True)
class Tiling:
    """An exact cover of a board region; removed cells model partial boards."""

    board: Board
    tiles: tuple
    removed: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        covered = [c for t in self.tiles for c in t.covered_cells()]
        region = self.board.cells - self.removed
        if len(covered) != len(set(covered)) or set(covered) != region:
            raise ValueError("tiles do not form an exact cover of the region")
        if list(self.tiles) != sorted(self.tiles, key=TilePlacement.sort_key):
            raise ValueError("tiles not in canonical order")

    def dominoes(self):
        return [t for t in self.tiles if t.kind != TileKind.SQUARE]


@dataclass(frozen=True)
class EdgeId:
    """A unit grid-line segment named by its lower/left endpoint."""

    orientation: Orientation
    x: int
    y: int


@lru_cache(maxsize=None)
def _column_fills(rows, occupied, closed, squares_allowed):
    """Every cover of one column's free cells, as (tiles, spill, cross).

    Rows are filled bottom up, trying square, horizontal domino, vertical
    domino at each free row, so the fills come in canonical order. Bit r-1
    of `occupied` marks row r as already covered, bit r-1 of `closed` marks
    row r of the next column as unavailable to a horizontal domino. `tiles`
    holds (kind, row) pairs; bit r-1 of `spill` marks a horizontal domino in
    row r, which covers row r of the next column; bit r of `cross` marks a
    vertical domino over rows r and r+1.
    """
    fills = []

    def fill(i, tiles, spill, cross):
        while i < rows and occupied >> i & 1:
            i += 1
        if i == rows:
            fills.append((tiles, spill, cross))
            return
        if squares_allowed:
            fill(i + 1, tiles + ((TileKind.SQUARE, i + 1),), spill, cross)
        if not closed >> i & 1:
            fill(i + 1, tiles + ((TileKind.HDOMINO, i + 1),), spill | 1 << i, cross)
        if i + 1 < rows and not occupied >> (i + 1) & 1:
            fill(i + 2, tiles + ((TileKind.VDOMINO, i + 1),), spill, cross | 2 << i)

    fill(0, (), 0, 0)
    return tuple(fills)


def _raw_tilings(board, squares_allowed=True, partial=None):
    """Cover stream in canonical order; yields a live tile list, consume at once.

    A depth-first search over the column fills of `_column_fills`, so the
    stream is lexicographic over sorted tile lists. A `partial` shape starts
    with its removed and forced cells taken and places each forced tile with
    its column; a shape that does not fit the board yields nothing.
    """
    n, rows = board.cols, board.rows
    taken = [0] * (n + 2)  # rows of column j covered before the search; n+1 is closed
    taken[n + 1] = (1 << rows) - 1
    forced = [()] * (n + 1)
    if partial is not None:
        if n < (1 if partial == PartialKind.C else 2):
            return
        removed, forced_tiles = _partial_setup(board, partial)
        for kind, j, r in forced_tiles:
            forced[j] += ((kind, r),)
        for j, r in removed.union(*(TilePlacement(*t).covered_cells() for t in forced_tiles)):
            taken[j] |= 1 << (r - 1)
    # fills[j][spill]: the fills of column j as (tiles with their column, spill)
    fills = [None] + [
        [[(tuple((k, j, r) for k, r in sorted(tiles + forced[j], key=lambda t: t[1])), out)
          for tiles, out, _ in _column_fills(
              rows, spill | taken[j], taken[j + 1], squares_allowed)]
         for spill in range(1 << rows)]
        for j in range(1, n + 1)
    ]
    tiles = []
    if n == 0:
        yield tiles
        return
    stack = [(0, iter(fills[1][0]))]  # (length of `tiles` before the column, fills)
    while stack:
        mark, it = stack[-1]
        for col_tiles, spill in it:
            tiles[mark:] = col_tiles
            if len(stack) < n:
                stack.append((len(tiles), iter(fills[len(stack) + 1][spill])))
                break
            yield tiles
        else:
            stack.pop()


def _to_tiling(board, raw, removed=frozenset()):
    return Tiling(board, tuple(TilePlacement(k, j, r) for k, j, r in raw), removed)


def enumerate_tilings(board, squares_allowed=True):
    """All exact covers of the board, in deterministic lexicographic order."""
    return [_to_tiling(board, raw) for raw in _raw_tilings(board, squares_allowed)]


@lru_cache(maxsize=None)
def count_tilings(board):
    """Tiling count without enumerating: F(n+1) for 1xn, r(n) for 2xn."""
    n = board.cols
    if board.rows == 1:
        return fib(n + 1)
    return eval_system(tiling_system(), n)["r"][n]


def forbidden_edges(tiling):
    """The interior edge of every domino; walks may not traverse these."""
    edges = set()
    for t in tiling.tiles:
        if t.kind == TileKind.HDOMINO:
            edges.add(EdgeId(Orientation.VERTICAL, t.col, t.row - 1))
        elif t.kind == TileKind.VDOMINO:
            edges.add(EdgeId(Orientation.HORIZONTAL, t.col - 1, t.row))
    return frozenset(edges)


def _partial_setup(board, kind):
    """Removed cells and forced tiles for the A/C/D truncated shapes."""
    n = board.cols
    if kind == PartialKind.A:
        # top-right cell missing, bottom-right pair covered by a domino
        return frozenset({(n, 2)}), ((TileKind.HDOMINO, n - 1, 1),)
    if kind == PartialKind.C:
        # bottom-right cell missing
        return frozenset({(n, 1)}), ()
    # D: bottom-right pair missing, top-right pair covered by a domino
    return frozenset({(n - 1, 1), (n, 1)}), ((TileKind.HDOMINO, n - 1, 2),)


def enumerate_partial_tilings(board, kind):
    """Exact covers of a truncated 2xn board of shape A, C, or D."""
    if board.rows != 2:
        raise ValueError("partial tilings are defined for 2xn boards only")
    if board.cols < 1:
        raise ValueError("partial tilings need n >= 1")
    removed = _partial_setup(board, kind)[0]
    return [_to_tiling(board, raw, removed) for raw in _raw_tilings(board, partial=kind)]
