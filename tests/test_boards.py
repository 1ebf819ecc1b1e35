import ast
import hashlib
import tracemalloc
from pathlib import Path

import pytest

import tilewalks
from tilewalks.boards import (
    Board,
    PartialKind,
    TileKind,
    TilePlacement,
    Tiling,
    _taken,
    count_tilings,
    enumerate_partial_tilings,
    enumerate_tilings,
    tiling_at,
)
from tilewalks import boards
from tilewalks.recurrences import eval_system, tiling_system
from tilewalks.walks import brute_line_totals


def search_counts(rows, upto, kind=None):
    # line 0 of the walks' fan search, which shares only `_taken` and
    # `_column_fills` with the completion rows
    return [t[0] for t in brute_line_totals(rows, upto, partial=kind)]


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_board_validation():
    with pytest.raises(ValueError):
        Board(3, 4)
    with pytest.raises(ValueError):
        Board(1, -1)
    assert Board(2, 0).cells == frozenset()


def test_empty_board_has_one_tiling():
    assert enumerate_tilings(Board(1, 0)) == [Tiling(Board(1, 0), ())]


def test_1x2_tilings():
    tilings = enumerate_tilings(Board(1, 2))
    assert len(tilings) == 2
    kinds = [tuple(t.kind for t in til.tiles) for til in tilings]
    assert kinds == [(TileKind.SQUARE, TileKind.SQUARE), (TileKind.HDOMINO,)]


@pytest.mark.parametrize("n,count", [(2, 7), (3, 22)])
def test_2xn_tiling_counts_from_table(n, count):
    assert len(enumerate_tilings(Board(2, n))) == count


def test_count_tilings_examples():
    assert count_tilings(Board(1, 5)) == 8
    assert count_tilings(Board(2, 6)) == 733
    assert count_tilings(Board(2, 0)) == 1


def test_count_tilings_of_a_long_board_keeps_one_row_of_counts():
    # the budget check counts the largest board of a brute column first,
    # so refusing a long one must not build its fill table
    tracemalloc.start()
    try:
        total = count_tilings(Board(2, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    r = [1, 2, 7]  # 2xn tilings: r(n) = 3 r(n-1) + r(n-2) - r(n-3)
    for _ in range(20000 - 2):
        r = [r[1], r[2], 3 * r[2] + r[1] - r[0]]
    assert total == r[2]


@pytest.mark.parametrize("n", range(21))
def test_1xn_count_is_fibonacci(n):
    assert count_tilings(Board(1, n)) == fib(n + 1)


def test_1xn_enumeration_matches_count():
    for n in range(13):
        assert len(enumerate_tilings(Board(1, n))) == count_tilings(Board(1, n))


def test_2xn_count_recurrence():
    counts = search_counts(2, 12)
    assert counts[:3] == [1, 2, 7]
    for n in range(3, 13):
        assert counts[n] == 3 * counts[n - 1] + counts[n - 2] - counts[n - 3]


def test_exact_cover_invariant():
    for til in enumerate_tilings(Board(2, 4)):
        covered = [c for t in til.tiles for c in t.covered_cells()]
        assert sorted(covered) == sorted(til.board.cells)


def test_enumeration_is_deterministic():
    a = enumerate_tilings(Board(2, 5))
    b = enumerate_tilings(Board(2, 5))
    assert a == b


def test_forbidden_edges_all_squares():
    all_squares = enumerate_tilings(Board(2, 3))[0]
    assert all(t.kind == TileKind.SQUARE for t in all_squares.tiles)
    assert all_squares.masks() == [(0, 0)] * 4


def test_forbidden_edges_hdomino():
    til = Tiling(
        Board(1, 3),
        (TilePlacement(TileKind.HDOMINO, 1, 1), TilePlacement(TileKind.SQUARE, 3, 1)),
    )
    assert til.masks() == [(0, 0), (0b1, 0), (0, 0), (0, 0)]  # spill bit 0 of column 1


def test_forbidden_edges_vdomino():
    til = Tiling(Board(2, 1), (TilePlacement(TileKind.VDOMINO, 1, 1),))
    assert til.masks() == [(0, 0), (0, 0b10)]  # cross bit 1 of column 1


def test_forbidden_edge_count_equals_domino_count():
    for til in enumerate_tilings(Board(2, 4)):
        bits = sum(bin(spill).count("1") + bin(cross).count("1") for spill, cross in til.masks())
        assert bits == len(til.dominoes())


def test_partial_tiling_examples():
    assert len(enumerate_partial_tilings(Board(2, 2), PartialKind.C)) == 3
    assert len(enumerate_partial_tilings(Board(2, 3), PartialKind.A)) == 3
    assert enumerate_partial_tilings(Board(2, 1), PartialKind.D) == []
    # every shape comes out in canonical order of the sorted tile lists
    for kind in PartialKind:
        keys = [tuple(t.sort_key() for t in til.tiles)
                for til in enumerate_partial_tilings(Board(2, 6), kind)]
        assert keys == sorted(keys)


# sha256 of the (kind, col, row) lists of every shape's tilings of the 2xn
# boards, 1 <= n <= 7, from the search that still placed the forced tiles
# itself: adding them afterwards keeps each tiling's tiles and their order
PARTIAL_TILINGS_SHA256 = "ce91eb7c9080a8278dd398ede248aaa0fc8341cd6f4ccb47ce2d8223841cdcdf"


# sha256 of the (kind, col, row) lists of the tilings of the 1xn boards,
# n <= 14, and of the 2xn boards, n <= 8, in both modes, as the depth-first
# search over column fills listed them before the unranker replaced it
TILINGS_SHA256 = "68914914dc7c3dfaac8a4961f310bbc854bb384b86a1a243d021cb5faae95c2c"


def tilings_digest():
    digest = hashlib.sha256()
    for squares_allowed in (True, False):
        for rows, upto in ((1, 14), (2, 8)):
            for n in range(upto + 1):
                digest.update(repr([[(int(t.kind), t.col, t.row) for t in til.tiles] for til
                                    in enumerate_tilings(Board(rows, n), squares_allowed)]).encode())
    return digest.hexdigest()


def test_tilings_keep_their_tiles_and_order():
    assert tilings_digest() == TILINGS_SHA256


def test_the_tiling_digest_sees_another_fill_order(monkeypatch):
    # the same fills, last first: the counts hold, the order does not
    fills = boards._column_fills
    monkeypatch.setattr(boards, "_column_fills", lambda *args: fills(*args)[::-1])
    assert count_tilings(Board(2, 8)) == 7573
    assert tilings_digest() != TILINGS_SHA256


def test_partial_tilings_keep_their_tiles_and_order():
    digest = hashlib.sha256()
    for kind in PartialKind:
        for n in range(1, 8):
            digest.update(repr([[(int(t.kind), t.col, t.row) for t in til.tiles]
                                for til in enumerate_partial_tilings(Board(2, n), kind)]).encode())
    assert digest.hexdigest() == PARTIAL_TILINGS_SHA256


@pytest.mark.parametrize("kind, width", [(PartialKind.A, 2), (PartialKind.C, 1),
                                         (PartialKind.D, 2)], ids=["A", "C", "D"])
def test_a_shape_fits_exactly_the_boards_as_wide_as_its_cells(kind, width):
    for n in range(4):
        assert (_taken(Board(2, n), kind) is None) == (n < width), n


@pytest.mark.parametrize("kind", list(PartialKind), ids=lambda kind: kind.name)
def test_a_shape_on_one_row_is_refused_by_every_path(kind):
    message = "^partial tilings are defined for 2xn boards only$"
    for refused in (lambda: count_tilings(Board(1, 5), True, kind),
                    lambda: brute_line_totals(1, 5, partial=kind),
                    lambda: enumerate_partial_tilings(Board(1, 5), kind)):
        with pytest.raises(ValueError, match=message):
            refused()


@pytest.mark.parametrize("kind", list(PartialKind), ids=lambda kind: kind.name)
def test_a_shape_on_the_empty_board_has_no_tilings(kind):
    assert enumerate_partial_tilings(Board(2, 0), kind) == []
    assert count_tilings(Board(2, 0), True, kind) == 0


def test_partial_counts_satisfy_coupled_system():
    r, a, c, d = (search_counts(2, 10, kind) for kind in (None, *PartialKind))
    for n in range(2, 11):
        assert r[n] == r[n - 1] + a[n] + c[n] + d[n]
        assert a[n] == c[n - 1]
        assert c[n] == r[n - 1] + a[n - 1] + d[n]
        assert d[n] == r[n - 2]


def test_invalid_tiling_rejected():
    with pytest.raises(ValueError):
        Tiling(Board(1, 2), (TilePlacement(TileKind.SQUARE, 1, 1),))
    with pytest.raises(ValueError):
        Tiling(
            Board(1, 2),
            (
                TilePlacement(TileKind.SQUARE, 2, 1),
                TilePlacement(TileKind.SQUARE, 1, 1),
            ),
        )


def test_counts_match_the_tiling_system_and_the_stream():
    tables = eval_system(tiling_system(), 40)
    shapes = {"r": None, "a": PartialKind.A, "c": PartialKind.C, "d": PartialKind.D}
    for name, kind in shapes.items():
        searched = search_counts(2, 9, kind)
        for n in range(41):
            count = count_tilings(Board(2, n), True, kind)
            assert count == tables[name][n], (name, n)
            if n <= 9:
                assert count == searched[n], (name, n)
    for n in range(41):
        assert count_tilings(Board(2, n), False) == fib(n + 1)
        assert count_tilings(Board(1, n), False) == 1 - n % 2


@pytest.mark.parametrize("board", [Board(2, 8), Board(1, 10), Board(2, 1), Board(2, 0),
                                   Board(1, 0)], ids=str)
@pytest.mark.parametrize("squares_allowed", [True, False])
def test_tiling_at_follows_the_stream(board, squares_allowed):
    # every board here is in the range that TILINGS_SHA256 pins
    tilings = enumerate_tilings(board, squares_allowed)
    assert len(tilings) == count_tilings(board, squares_allowed)
    assert [tiling_at(board, i, squares_allowed) for i in range(len(tilings))] == tilings
    with pytest.raises(IndexError):
        tiling_at(board, len(tilings), squares_allowed)


def test_tiling_at_names_the_range_or_the_board_without_tilings():
    # -1 as well: the count is bound before the range test, which stops at 0 <= index
    for index in (-1, 7573):
        with pytest.raises(IndexError, match=rf"^tiling index {index} outside 0\.\.7572$"):
            tiling_at(Board(2, 8), index)
    with pytest.raises(IndexError, match="^1x3 has no dominoes-only tilings$"):
        tiling_at(Board(1, 3), 0, False)


def test_tiling_at_keeps_nothing_once_it_returns():
    # the completion rows of a 2x5000 board take about 25 MiB while it runs
    tracemalloc.start()
    try:
        tiling_at(Board(2, 5000), 0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_boards_imports_no_package_module():
    # the lowest layer: tiling counts come from its own fill table
    tree = ast.parse(Path(tilewalks.__file__).with_name("boards.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not node.level and not node.module.startswith("tilewalks"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("tilewalks") for alias in node.names)
