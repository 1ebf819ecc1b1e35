"""Boards, tiles, tilings and exhaustive tiling enumeration.

Cells are addressed (col, row) with col in 1..n and row in 1..rows.
Grid vertices are (x, y) with x in 0..n and y in 0..rows; walks run from
(0, 0) to (n, rows).
"""

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache
from operator import gt
from typing import NamedTuple


class TileKind(IntEnum):
    SQUARE = 0
    HDOMINO = 1
    VDOMINO = 2


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

    @cached_property
    def cells(self):
        return frozenset(
            (j, r) for j in range(1, self.cols + 1) for r in range(1, self.rows + 1)
        )


class TilePlacement(NamedTuple):
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
        cells = set(covered)
        if len(covered) != len(cells) or cells != self.board.cells - self.removed:
            raise ValueError("tiles do not form an exact cover of the region")
        keys = [t.sort_key() for t in self.tiles]
        if any(map(gt, keys, keys[1:])):
            raise ValueError("tiles not in canonical order")

    def dominoes(self):
        return [t for t in self.tiles if t.kind != TileKind.SQUARE]

    def masks(self):
        """The walk masks (spill, cross) of each column 0..n, from its
        tiles; column 0, left of the board, has none."""
        columns = [[] for _ in range(self.board.cols + 1)]
        for t in self.tiles:
            columns[t.col].append((t.kind, t.row))
        return [_walk_masks(tiles) for tiles in columns]


def _walk_masks(tiles):
    """The walk masks (spill, cross) of one column's (kind, row) tiles, the
    one rule that a walk may not cross the interior edge of a domino.

    A horizontal domino in row r sets bit r-1 of `spill`: it blocks the
    climb from (x, r-1) to (x, r) on the column's right grid line x, and it
    covers row r of the next column. A vertical domino over rows r and r+1
    sets bit r of `cross`: it blocks the step from (x-1, r) to (x, r).
    """
    spill = cross = 0
    for kind, row in tiles:
        if kind == TileKind.HDOMINO:
            spill |= 1 << (row - 1)
        elif kind == TileKind.VDOMINO:
            cross |= 1 << row
    return spill, cross


@lru_cache(maxsize=None)
def _column_fills(rows, occupied, closed, squares_allowed):
    """Every cover of one column's free cells, as (tiles, spill, cross).

    Rows are filled bottom up, trying square, horizontal domino, vertical
    domino at each free row, so the fills come in canonical order. Bit r-1
    of `occupied` marks row r as already covered, bit r-1 of `closed` marks
    row r of the next column as unavailable to a horizontal domino. `tiles`
    holds (kind, row) pairs, and (spill, cross) are their `_walk_masks`.
    """
    fills = []

    def fill(i, tiles):
        while i < rows and occupied >> i & 1:
            i += 1
        if i == rows:
            fills.append((tiles, *_walk_masks(tiles)))
            return
        if squares_allowed:
            fill(i + 1, tiles + ((TileKind.SQUARE, i + 1),))
        if not closed >> i & 1:
            fill(i + 1, tiles + ((TileKind.HDOMINO, i + 1),))
        if i + 1 < rows and not occupied >> (i + 1) & 1:
            fill(i + 2, tiles + ((TileKind.VDOMINO, i + 1),))

    fill(0, ())
    return tuple(fills)


def _taken(board, partial):
    """Rows of each column 0..n+1 covered before the search, as masks, with
    column n+1 closed: a `partial` shape's removed cells and the cells of
    the tiles it forces. None for a shape that does not fit the board, one
    with such a cell left of column 1."""
    n, rows = board.cols, board.rows
    taken = [0] * (n + 2)
    taken[n + 1] = (1 << rows) - 1
    if partial is not None:
        removed, forced = _partial_setup(board, partial)
        for j, r in removed.union(*(t.covered_cells() for t in forced)):
            if j < 1:
                return None
            taken[j] |= 1 << (r - 1)
    return taken


def _completions(rows, after, occupied, closed, squares_allowed):
    """Covers of columns j..n per spill into column j, from `after`, the
    covers of columns j+1..n per spill into column j+1; `occupied` and
    `closed` are the taken rows of columns j and j+1."""
    return [sum(after[out] for _, out, _ in _column_fills(
        rows, spill | occupied, closed, squares_allowed)) for spill in range(1 << rows)]


def _raw_tilings(board, squares_allowed=True, partial=None):
    """Cover stream in canonical order; yields a live list of TilePlacements,
    consume at once.

    A depth-first search over a table of every column's fills, built once
    per call: fills[j][spill] lists the covers of column j, given the rows
    `spill` that column j-1's horizontal dominoes cover, as (TilePlacements,
    spill into column j+1) in canonical order, so the stream is
    lexicographic over sorted tile lists. A `partial` shape starts with its
    taken masks, and the tiles it forces are not in the stream; a shape
    that does not fit the board has no tilings.
    """
    taken = _taken(board, partial)
    if taken is None:
        return
    n, rows, tiles = board.cols, board.rows, []
    if n == 0:
        yield tiles
        return
    fills = [None] + [
        [[(tuple(TilePlacement(k, j, r) for k, r in fill), out)
          for fill, out, _ in _column_fills(
              rows, spill | taken[j], taken[j + 1], squares_allowed)]
         for spill in range(1 << rows)]
        for j in range(1, n + 1)
    ]
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


def enumerate_tilings(board, squares_allowed=True):
    """All exact covers of the board, in deterministic lexicographic order."""
    return [Tiling(board, tuple(raw)) for raw in _raw_tilings(board, squares_allowed)]


def count_tilings(board, squares_allowed=True, partial=None):
    """Tilings of the board, or of its truncated `partial` shape, from one
    row of completion counts carried from the last column to the first,
    without enumerating or keeping a table."""
    taken = _taken(board, partial)
    if taken is None:
        return 0
    after = [1] + [0] * ((1 << board.rows) - 1)
    for j in range(board.cols, 0, -1):
        after = _completions(board.rows, after, taken[j], taken[j + 1], squares_allowed)
    return after[0]


def tiling_at(board, index, squares_allowed=True):
    """The tiling at `index` of the enumeration order, in O(n 2^rows) steps:
    each column skips the fills whose completions all come before it, from
    the completion rows of `count_tilings`, kept for every column."""
    rows, n = board.rows, board.cols
    taken = _taken(board, None)
    after = [None] * (n + 1) + [[1] + [0] * ((1 << rows) - 1)]
    for j in range(n, 0, -1):
        after[j] = _completions(rows, after[j + 1], taken[j], taken[j + 1], squares_allowed)
    total = after[1][0]
    if not 0 <= index < total:
        raise IndexError(f"tiling index {index} outside 0..{total - 1}" if total
                         else f"{rows}x{n} has no dominoes-only tilings")
    tiles, spill = [], 0
    for j in range(1, n + 1):
        for fill, out, _ in _column_fills(rows, spill, taken[j + 1], squares_allowed):
            if index < after[j + 1][out]:
                break
            index -= after[j + 1][out]
        tiles += (TilePlacement(k, j, r) for k, r in fill)
        spill = out
    return Tiling(board, tuple(tiles))


def _partial_setup(board, kind):
    """Removed cells and forced tiles for the A/C/D truncated shapes."""
    n = board.cols
    if kind == PartialKind.A:
        # top-right cell missing, bottom-right pair covered by a domino
        return frozenset({(n, 2)}), (TilePlacement(TileKind.HDOMINO, n - 1, 1),)
    if kind == PartialKind.C:
        # bottom-right cell missing
        return frozenset({(n, 1)}), ()
    # D: bottom-right pair missing, top-right pair covered by a domino
    return frozenset({(n - 1, 1), (n, 1)}), (TilePlacement(TileKind.HDOMINO, n - 1, 2),)


def enumerate_partial_tilings(board, kind):
    """Exact covers of a truncated 2xn board of shape A, C, or D: each cover
    of the search with the shape's forced tiles added in canonical order."""
    if board.rows != 2:
        raise ValueError("partial tilings are defined for 2xn boards only")
    if board.cols < 1:
        raise ValueError("partial tilings need n >= 1")
    removed, forced = _partial_setup(board, kind)
    return [Tiling(board, tuple(sorted((*raw, *forced), key=TilePlacement.sort_key)), removed)
            for raw in _raw_tilings(board, partial=kind)]
