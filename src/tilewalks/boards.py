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


def _raw_tilings(board, squares_allowed=True, partial=None):
    """Cover stream in canonical order; yields a live tile list, consume at once.

    The DFS fills the first free cell in column-major order and tries
    square, horizontal domino, vertical domino, so the stream is
    lexicographic over sorted tile lists. A `partial` shape starts with its
    removed and forced cells occupied and its forced tiles in the list; a
    shape that does not fit the board yields nothing.
    """
    n, rows = board.cols, board.rows
    squares = squares_allowed
    total = n * rows
    occ = bytearray(total + rows)  # slack for HDomino spill past the last column
    tiles = []
    if partial is not None:
        if n < (1 if partial == PartialKind.C else 2):
            return
        removed, forced = _partial_setup(board, partial)
        tiles.extend(forced)
        for j, r in removed.union(*(TilePlacement(*t).covered_cells() for t in forced)):
            occ[(j - 1) * rows + r - 1] = 1

    def dfs(pos):
        while pos < total and occ[pos]:
            pos += 1
        if pos == total:
            yield tiles
            return
        j, r = pos // rows + 1, pos % rows + 1
        occ[pos] = 1
        if squares:
            tiles.append((TileKind.SQUARE, j, r))
            yield from dfs(pos + 1)
            tiles.pop()
        if j < n and not occ[pos + rows]:
            occ[pos + rows] = 1
            tiles.append((TileKind.HDOMINO, j, r))
            yield from dfs(pos + 1)
            tiles.pop()
            occ[pos + rows] = 0
        if rows == 2 and r == 1 and not occ[pos + 1]:
            occ[pos + 1] = 1
            tiles.append((TileKind.VDOMINO, j, r))
            yield from dfs(pos + 1)
            tiles.pop()
            occ[pos + 1] = 0
        occ[pos] = 0

    yield from dfs(0)


def _to_tiling(board, raw, removed=frozenset()):
    tiles = tuple(
        sorted((TilePlacement(k, j, r) for k, j, r in raw), key=TilePlacement.sort_key)
    )
    return Tiling(board, tiles, removed)


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
            edges.add(EdgeId(Orientation.HORIZONTAL, t.col - 1, 1))
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
