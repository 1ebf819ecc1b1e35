"""Boards, tiles, tilings, and their counting and unranking.

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
    """Rows of each column 0..n+1 covered before any fill, as masks, with
    column n+1 closed: a `partial` shape's removed cells and the cells of
    the tiles it forces. None for a shape that does not fit the board, one
    with such a cell left of column 1; a ValueError for a shape on a board
    without two rows."""
    n, rows = board.cols, board.rows
    taken = [0] * (n + 2)
    taken[n + 1] = (1 << rows) - 1
    if partial is not None:
        if rows != 2:
            raise ValueError("partial tilings are defined for 2xn boards only")
        removed, forced = _partial_setup(board, partial)
        for j, r in removed.union(*(t.covered_cells() for t in forced)):
            if j < 1:
                return None
            taken[j] |= 1 << (r - 1)
    return taken


def _completion_rows(rows, taken, squares_allowed):
    """The completion rows of the columns n+1, n, ..., 1 of the board whose
    `_taken` masks are `taken`: row j counts, per spill into column j, the
    covers of columns j..n, from row j+1 and column j's fills (the transfer
    counts of Stanley, EC I, section 4.7). Row n+1 counts the empty cover."""
    after = [1] + [0] * ((1 << rows) - 1)
    yield after
    for j in range(len(taken) - 2, 0, -1):
        after = [sum(after[out] for _, out, _ in _column_fills(
            rows, spill | taken[j], taken[j + 1], squares_allowed)) for spill in range(1 << rows)]
        yield after


def count_tilings(board, squares_allowed=True, partial=None):
    """Tilings of the board, or of its truncated `partial` shape: row 1 of
    its completion rows, keeping one row at a time, without enumerating."""
    taken = _taken(board, partial)
    if taken is None:
        return 0
    for after in _completion_rows(board.rows, taken, squares_allowed):
        pass
    return after[0]


def _unranker(board, squares_allowed, partial=None):
    """(count, tiles_at) for the covers of the board or of its `partial`
    shape, without the shape's forced tiles. tiles_at(i) is the tile list
    of cover i in enumeration order, lexicographic over sorted tile lists:
    each column takes the first fill whose completions reach past the
    index, in `_column_fills` order, and skips the ones before it. It keeps
    every completion row while it lives, n rows of O(n)-bit counts."""
    taken = _taken(board, partial)
    if taken is None:
        return 0, None
    rows = board.rows
    # after[j]: covers of columns j+1..n, per spill into column j+1
    after = list(_completion_rows(rows, taken, squares_allowed))[::-1]

    def tiles_at(index):
        tiles, spill = [], 0
        for j in range(1, board.cols + 1):
            for fill, out, _ in _column_fills(rows, spill | taken[j], taken[j + 1], squares_allowed):
                if index < after[j][out]:
                    break
                index -= after[j][out]
            tiles += (TilePlacement(k, j, r) for k, r in fill)
            spill = out
        return tuple(tiles)

    return after[0][0], tiles_at


def enumerate_tilings(board, squares_allowed=True):
    """All exact covers of the board, in deterministic lexicographic order."""
    total, tiles_at = _unranker(board, squares_allowed)
    return [Tiling(board, tiles_at(i)) for i in range(total)]


def tiling_at(board, index, squares_allowed=True):
    """The tiling at `index` of the enumeration order, unranked in O(n)
    column steps; n completion rows of O(n)-bit counts are kept while it
    runs, so its memory is quadratic in n."""
    total, tiles_at = _unranker(board, squares_allowed)
    if not 0 <= index < total:
        raise IndexError(f"tiling index {index} outside 0..{total - 1}" if total
                         else f"{board.rows}x{board.cols} has no dominoes-only tilings")
    return Tiling(board, tiles_at(index))


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
    """Exact covers of a truncated 2xn board of shape A, C, or D: each
    unranked cover with the shape's forced tiles added in canonical order."""
    total, tiles_at = _unranker(board, True, kind)
    removed, forced = _partial_setup(board, kind)
    return [Tiling(board, tuple(sorted((*tiles_at(i), *forced), key=TilePlacement.sort_key)),
                   removed) for i in range(total)]
