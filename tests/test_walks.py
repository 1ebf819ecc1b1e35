from math import comb

import pytest

from tilewalks.boards import (
    Board,
    PartialKind,
    TileKind,
    TilePlacement,
    Tiling,
    enumerate_partial_tilings,
    enumerate_tilings,
)
from tilewalks.errors import BudgetExceeded
from tilewalks.walks import (
    brute_v,
    brute_w_by_line,
    count_walks_for_tiling,
    enumerate_walks,
)


def one_domino_1x3():
    return Tiling(
        Board(1, 3),
        (TilePlacement(TileKind.HDOMINO, 1, 1), TilePlacement(TileKind.SQUARE, 3, 1)),
    )


def test_count_walks_one_domino():
    # n - k + 1 walks with k dominoes on a 1xn board
    assert count_walks_for_tiling(one_domino_1x3(), 1) == 3


def test_bottom_line_always_one_walk():
    for til in enumerate_tilings(Board(2, 4)):
        assert count_walks_for_tiling(til, 0) == 1


def test_unobstructed_count_is_binomial():
    all_squares = enumerate_tilings(Board(2, 2))[0]
    assert count_walks_for_tiling(all_squares, 2) == comb(4, 2)


def test_monotone_superset_bound():
    for n in range(1, 7):
        for til in enumerate_tilings(Board(2, n)):
            cnt = count_walks_for_tiling(til, 2)
            bound = comb(n + 2, 2)
            assert cnt <= bound
            assert (cnt == bound) == (not til.dominoes())


def test_brute_v_initial_values():
    assert [brute_v(n) for n in range(5)] == [1, 2, 5, 10, 20]


def test_brute_v_aggregation_identity():
    for n in range(21):
        expected = sum(
            comb(n - k, k) * (n - k + 1) for k in range(n // 2 + 1)
        )
        assert brute_v(n) == expected


def test_brute_w_by_line_values():
    by2 = brute_w_by_line(2)
    assert (by2.w0, by2.w1, by2.w2) == (7, 14, 28)
    by1 = brute_w_by_line(1)
    assert (by1.w1, by1.w2) == (3, 5)


def test_brute_w_domino_only():
    assert brute_w_by_line(5, squares_allowed=False).w2 == 50


def test_w0_equals_tiling_count():
    for n in range(9):
        assert brute_w_by_line(n).w0 == len(enumerate_tilings(Board(2, n)))


def test_domino_only_tiling_count_is_fibonacci():
    # dominoes-only covers of 2xn: F(n+1) of them
    fibs = [1, 1, 2, 3, 5, 8, 13, 21]
    for n in range(8):
        count = len(enumerate_tilings(Board(2, n), squares_allowed=False))
        assert count == fibs[n]


def test_enumerate_walks_examples():
    square = Tiling(Board(1, 1), (TilePlacement(TileKind.SQUARE, 1, 1),))
    assert enumerate_walks(square) == [("R", "U"), ("U", "R")]

    domino = Tiling(Board(1, 2), (TilePlacement(TileKind.HDOMINO, 1, 1),))
    assert enumerate_walks(domino) == [("R", "R", "U"), ("U", "R", "R")]

    vdomino = Tiling(Board(2, 1), (TilePlacement(TileKind.VDOMINO, 1, 1),))
    assert enumerate_walks(vdomino) == [("R", "U", "U"), ("U", "U", "R")]


def test_enumerate_walks_matches_count():
    # the column-step kernel against the independent edge-set model
    for rows in (1, 2):
        for n in range(7):
            for squares in (True, False):
                for til in enumerate_tilings(Board(rows, n), squares_allowed=squares):
                    assert len(enumerate_walks(til)) == count_walks_for_tiling(til, rows)
        for kind in PartialKind:
            for til in enumerate_partial_tilings(Board(2, n + 1), kind):
                assert len(enumerate_walks(til)) == count_walks_for_tiling(til, 2)


def test_sum_is_order_independent():
    n = 5
    tilings = enumerate_tilings(Board(2, n))
    forward = sum(count_walks_for_tiling(t, 2) for t in tilings)
    backward = sum(count_walks_for_tiling(t, 2) for t in reversed(tilings))
    assert forward == backward == brute_w_by_line(n).w2
    # per-tiling counts summed line by line equal the brute column search
    for n in range(7):
        for squares in (True, False):
            tilings = enumerate_tilings(Board(2, n), squares_allowed=squares)
            by = brute_w_by_line(n, squares_allowed=squares)
            assert [sum(count_walks_for_tiling(t, y) for t in tilings)
                    for y in range(3)] == [by.w0, by.w1, by.w2]


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        brute_w_by_line(8, budget=100)
    with pytest.raises(BudgetExceeded):
        brute_v(30, budget=1000)
    # dominoes-only boards are checked against F(n+1), not enumerated first
    with pytest.raises(BudgetExceeded):
        brute_w_by_line(40, squares_allowed=False, budget=10)


def test_end_line_validation():
    square = Tiling(Board(1, 1), (TilePlacement(TileKind.SQUARE, 1, 1),))
    with pytest.raises(ValueError):
        count_walks_for_tiling(square, 2)
