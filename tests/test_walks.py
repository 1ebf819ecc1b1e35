import random
import re
import sys
from collections import Counter, namedtuple
from functools import partial
from itertools import product
from math import comb
from operator import add

import pytest

from tilewalks.boards import (
    Board,
    PartialKind,
    TileKind,
    TilePlacement,
    Tiling,
    count_tilings,
    enumerate_partial_tilings,
    enumerate_tilings,
)
from tilewalks import boards, walks
from tilewalks.boards import _column_fills, _taken
from tilewalks.cli import SEQUENCES
from tilewalks.closedforms import fib
from tilewalks.errors import BudgetExceeded
from tilewalks.recurrences import (
    domino_only_recurrence,
    eval_system,
    tiling_system,
    v_theorem_spec,
    walk_system,
)
from tilewalks.walks import (
    DEFAULT_BUDGET,
    brute_line_totals,
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
    totals = brute_line_totals(2, 2)
    assert totals[2] == brute_w_by_line(2) == [7, 14, 28]
    assert totals[1][1:] == [3, 5]


def test_brute_w_domino_only():
    assert brute_line_totals(2, 5, squares_allowed=False)[5][2] == 50


def test_w0_equals_tiling_count():
    totals = brute_line_totals(2, 8)
    for n in range(9):
        assert totals[n][0] == len(enumerate_tilings(Board(2, n)))


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


def test_enumerate_walks_on_a_board_deeper_than_the_recursion_limit():
    # 1000 horizontal dominoes leave one climb at each even x
    n = 2000
    til = Tiling(Board(1, n),
                 tuple(TilePlacement(TileKind.HDOMINO, j, 1) for j in range(1, n, 2)))
    walks = enumerate_walks(til)
    assert len(walks) == 1001 == count_walks_for_tiling(til, 1)
    assert walks[0] == ("R",) * n + ("U",)
    assert walks[-1] == ("U",) + ("R",) * n


def edge_model_mismatches(til):
    """The walk functions that disagree with the edge model on every grid
    edge: count_walks_for_tiling on a line of x = n, enumerate_walks on a
    vertex, read as the distinct prefixes of its walks that end there. Each
    vertex reaches (n, rows), as no vertex has both its climb and its step
    right blocked, so each walk to it is such a prefix."""
    rows, n = til.board.rows, til.board.cols
    ways = edge_model(til, region=False)
    prefixes = {w[:k] for w in enumerate_walks(til) for k in range(n + rows + 1)}
    found = []
    if any(count_walks_for_tiling(til, y) != ways[n, y] for y in range(rows + 1)):
        found.append("count_walks_for_tiling")
    if dict(Counter((p.count("R"), p.count("U")) for p in prefixes)) != ways:
        found.append("enumerate_walks")
    return found


def test_enumerate_walks_matches_count():
    # both walk functions read the column masks; the edge model reads none
    for rows in (1, 2):
        for n in range(7):
            for squares in (True, False):
                for til in enumerate_tilings(Board(rows, n), squares_allowed=squares):
                    assert edge_model_mismatches(til) == []
        for kind in PartialKind:
            for til in enumerate_partial_tilings(Board(2, n + 1), kind):
                assert edge_model_mismatches(til) == []


def test_the_walk_functions_fail_the_edge_model_on_a_misplaced_cross_bit(monkeypatch):
    # negative control: a vertical domino that sets its cross bit one row
    # low blocks the step onto (1, 0) instead of the one onto (1, 1)
    til = Tiling(Board(2, 1), (TilePlacement(TileKind.VDOMINO, 1, 1),))
    assert edge_model_mismatches(til) == []
    rule = boards._walk_masks

    def one_row_low(tiles):
        spill, cross = rule(tiles)
        return spill, cross >> 1

    monkeypatch.setattr(boards, "_walk_masks", one_row_low)
    assert edge_model_mismatches(til) == ["count_walks_for_tiling", "enumerate_walks"]


def per_vertex_step(tiles, ways):
    """Walk counts on grid line x from those on line x-1, vertex by vertex,
    from the tiles one fill places in column x: the interior edge of a
    vertical domino on rows r, r+1 blocks the step right onto (x, r), that
    of a horizontal domino in row r the climb from (x, r-1) to (x, r)."""
    no_step = {r for kind, r in tiles if kind == TileKind.VDOMINO}
    no_climb = {r for kind, r in tiles if kind == TileKind.HDOMINO}
    counts = []
    for y, w in enumerate(ways):
        counts.append((0 if y in no_step else w)
                      + (0 if y == 0 or y in no_climb else counts[y - 1]))
    return tuple(counts)


def edge_model(tiling, region=True):
    """The monotone walks from (0, 0) to each vertex of the board that never
    cross a domino, by vertex. With `region`, a walk uses a grid edge only
    if the edge bounds a present cell of the tiling's region or lies on
    x = 0; without it, any grid edge. A domino blocks the edge its two cells
    share, read from its cells, not from the column masks."""
    present = tiling.board.cells - tiling.removed
    blocked = set()  # edges as (lower or left end, upper or right end)
    for cells in (t.covered_cells() for t in tiling.tiles):
        if len(cells) == 2:  # a domino: cells (a, b), (c, d) share this edge
            (a, b), (c, d) = cells
            blocked.add(((c - 1, d - 1), (a, b)))

    def usable(edge, *cells):
        (x0, _), (x1, _) = edge
        on_x0 = x0 == x1 == 0
        return edge not in blocked and (not region or on_x0 or not present.isdisjoint(cells))

    ways = {}
    for x in range(tiling.board.cols + 1):
        for y in range(tiling.board.rows + 1):
            w = int((x, y) == (0, 0))
            if x and usable(((x - 1, y), (x, y)), (x, y), (x, y + 1)):
                w += ways[x - 1, y]
            if y and usable(((x, y - 1), (x, y)), (x, y), (x + 1, y)):
                w += ways[x, y - 1]
            ways[x, y] = w
    return ways


# Each truncated-shape member of walk_system: its shape, the grid line its
# walks end on, and how far left of x = n they end, at the rightmost vertex
# of the region on that line.
SHAPE_MEMBERS = {
    "a1": (PartialKind.A, 1, 0),
    "c1": (PartialKind.C, 1, 0),
    "d1": (PartialKind.D, 1, 0),
    "a2": (PartialKind.A, 2, 1),
    "c2": (PartialKind.C, 2, 0),
    "d2": (PartialKind.D, 2, 0),
}


def test_shape_members_count_the_edge_model_walks():
    tables = eval_system(walk_system(), 8, tuple(SHAPE_MEMBERS))
    model = {member: [] for member in SHAPE_MEMBERS}
    for n in range(1, 9):
        for kind in PartialKind:
            ways = [edge_model(til) for til in enumerate_partial_tilings(Board(2, n), kind)]
            for member, (shape, line, back) in SHAPE_MEMBERS.items():
                if shape == kind:
                    model[member].append(sum(w[n - back, line] for w in ways))
    assert model == {member: list(t.values[1:]) for member, t in tables.items()}


def test_the_edge_model_needs_its_region_rule():
    # negative control: walks on every grid edge overcount the C shape at
    # n = 1, whose bottom-right cell is missing
    tables = eval_system(walk_system(), 1, ("c1", "c2"))
    [til] = enumerate_partial_tilings(Board(2, 1), PartialKind.C)
    ways, naive = edge_model(til), edge_model(til, region=False)
    assert (tables["c1"][1], ways[1, 1], naive[1, 1]) == (1, 1, 2)
    assert (tables["c2"][1], ways[1, 2], naive[1, 2]) == (2, 2, 3)


def column_step_mismatches(column_step):
    """(rows, tiles, vector) for every fill of a 1- to 4-row column where
    column_step(rows, spill, cross) disagrees with per_vertex_step, on each
    unit vector and on one random vector."""
    rng, bad = random.Random(1), []
    for rows in range(1, 5):
        vectors = [tuple(int(i == y) for i in range(rows + 1)) for y in range(rows + 1)]
        vectors.append(tuple(rng.randrange(10**9) for _ in range(rows + 1)))
        for occupied in range(1 << rows):
            for closed in (0, (1 << rows) - 1):
                for squares in (True, False):
                    for tiles, spill, cross in _column_fills(rows, occupied, closed, squares):
                        step = column_step(rows, spill, cross)
                        bad += [(rows, tiles, ways) for ways in vectors
                                if step(*ways) != per_vertex_step(tiles, ways)]
    return bad


def test_compiled_column_step_matches_a_per_vertex_model():
    # rows 3 and 4 are past Board's limit: the step itself is row-generic
    assert column_step_mismatches(walks._column_step) == []


def test_per_vertex_model_catches_a_column_step_that_ignores_spill():
    def mutant(rows, spill, cross):
        return walks._column_step(rows, 0, cross)

    assert column_step_mismatches(mutant)


def fan_model(rows, spill, keys, squares, ways):
    """The children and totals-row increments of a group of columns, from
    per_vertex_step composed along every fill path: column l's fills that
    spill nothing out add to increment l, a `last` column ends its paths,
    and the group's last column makes the children (out, vector)."""
    children, increments = [], [[0] * (rows + 1) for _ in keys]

    def walk(l, into, vector):
        taken, closed, last = keys[l]
        for tiles, out, _ in _column_fills(rows, into | taken, closed, squares):
            step = per_vertex_step(tiles, vector)
            if not out:
                increments[l] = list(map(add, increments[l], step))
            if last:
                continue
            if l + 1 < len(keys):
                walk(l + 1, out, step)
            else:
                children.append((out, step))

    walk(0, spill, ways)
    return children, increments


def recorder(rows, children):
    """The nxt of a fan that appends each child it is called with to
    `children` as (spill out, vector), in call order."""
    def record(out, *vector):
        children.append((out, vector))

    return [partial(record, out) for out in range(1 << rows)]


def fan_groups():
    """(rows, keys): every one-column group of 1 to 4 rows, and every group
    of 2 and 3 columns of 1 and 2 rows, from the (taken, next column taken,
    last) keys of an open column, one with row 1 taken, an inner column
    closed on every row, and, in the group's last place only, the board's
    last column."""
    for rows in range(1, 5):
        full = (1 << rows) - 1
        inner = [(0, 0, False), (1, 0, False), (0, full, False)]
        for size in (1, 2, 3) if rows <= 2 else (1,):
            for head in product(inner, repeat=size - 1):
                yield from ((rows, (*head, end)) for end in (*inner, (0, full, True)))


def column_fan_mismatches(column_fan):
    """(rows, spill, keys, squares, vector) for every group of columns in
    fan_groups, every spill into it and both tile sets, where
    column_fan(rows, spill, keys, squares) disagrees with fan_model on each
    unit vector or on one random vector: the children it calls nxt with must
    be those of every fill path in path order, none after a `last` column,
    also below an inner column closed on every row, and its increment of
    each totals row the sum of the steps of that column's fills with no
    spill out."""
    rng, bad = random.Random(1), []
    for rows, keys in fan_groups():
        vectors = [tuple(int(i == y) for i in range(rows + 1)) for y in range(rows + 1)]
        vectors.append(tuple(rng.randrange(10**9) for _ in range(rows + 1)))
        for spill in range(1 << rows):
            for squares in (True, False):
                fan = column_fan(rows, spill, keys, squares)
                for ways in vectors:
                    children, increments = fan_model(rows, spill, keys, squares, ways)
                    totals = [[3] * (rows + 1) for _ in keys]  # the fan adds to what is there
                    called = []
                    fan(*totals, recorder(rows, called), *ways)
                    if (called != children
                            or totals != [[3 + v for v in inc] for inc in increments]):
                        bad.append((rows, spill, keys, squares, ways))
    return bad


def edit_children(edit):
    """A column_fan whose fans pass the children they make through
    edit(children, totals rows) before they call nxt with them."""
    def column_fan(rows, spill, keys, squares):
        fan = walks._column_fan(rows, spill, keys, squares)

        def edited(*args):
            totals, nxt, ways = args[:len(keys)], args[len(keys)], args[len(keys) + 1:]
            children = []
            fan(*totals, recorder(rows, children), *ways)
            for out, vector in edit(children, totals):
                nxt[out](*vector)
        return edited
    return column_fan


def test_compiled_column_fan_matches_a_per_vertex_model():
    assert column_fan_mismatches(walks._column_fan) == []


def test_per_vertex_model_catches_a_fan_that_drops_a_fill():
    assert column_fan_mismatches(edit_children(lambda children, totals: children[:-1]))


def test_per_vertex_model_catches_a_fan_that_adds_an_open_child_to_the_totals():
    def add_open_child(children, totals):
        row = totals[-1]  # the totals row of the group's last column
        for out, vector in children:
            if out:
                row[:] = map(add, row, vector)
                break
        return children

    assert column_fan_mismatches(edit_children(add_open_child))


def test_per_vertex_model_catches_a_fan_that_ends_at_a_closed_inner_column():
    # a fan that takes "closed on every row" for the last column, as the
    # first column of a mirrored D shape is closed on every row
    def mutant(rows, spill, keys, squares):
        full = (1 << rows) - 1
        return walks._column_fan(rows, spill, tuple(
            (taken, closed, last or closed == full) for taken, closed, last in keys), squares)

    assert column_fan_mismatches(mutant)


def test_per_vertex_model_catches_a_fan_that_drops_a_grandchild_path():
    # the fan's second fill lookup is a column below the group's first:
    # dropping its last fill drops the paths through it
    def mutant(rows, spill, keys, squares):
        if len(keys) == 1:  # no grandchild to drop
            return walks._column_fan(rows, spill, keys, squares)
        lookups = []

        def fills(*args):
            lookups.append(args)
            found = _column_fills(*args)
            return found[:-1] if len(lookups) == 2 else found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "_column_fills", fills)
            return walks._column_fan.__wrapped__(rows, spill, keys, squares)

    bad = column_fan_mismatches(mutant)
    assert bad and all(len(keys) > 1 for _, _, keys, _, _ in bad)


def test_per_vertex_model_catches_a_fan_that_ends_at_an_inner_column():
    def mutant(rows, spill, keys, squares):
        (taken, closed, last), *rest = keys
        return walks._column_fan(rows, spill, ((taken, closed, last or bool(rest)), *rest),
                                 squares)

    bad = column_fan_mismatches(mutant)
    assert bad and all(len(keys) > 1 for _, _, keys, _, _ in bad)


def idle_lines(source):
    """The assignments of a source that add nothing: a copy `x = name`, or
    `x = 0`."""
    return [line for line in source.splitlines() if re.fullmatch(r" *\w+ = \w+", line)]


def step_sources():
    """The step source of every fill of a 1- to 4-row column, from inputs
    with each set of counts 0 (None)."""
    for rows in range(1, 5):
        masks = {(spill, cross) for occupied, closed, squares in product(
                     range(1 << rows), (0, (1 << rows) - 1), (True, False))
                 for _, spill, cross in _column_fills(rows, occupied, closed, squares)}
        for (spill, cross), zero in product(sorted(masks), range(1 << (rows + 1))):
            names = [None if zero >> y & 1 else f"w{y}" for y in range(rows + 1)]
            yield walks._step_source(rows, spill, cross, "n", names, {})[0]


def fan_sources():
    for rows, keys in fan_groups():
        for spill, squares in product(range(1 << rows), (True, False)):
            yield walks._fan_source(rows, spill, keys, squares)[1]


def test_a_step_or_fan_source_has_a_line_only_for_an_addition():
    # every assignment adds two counts, and every += adds at least one
    for source in step_sources():
        assert all(re.fullmatch(r" *\w+ = \w+ \+ \w+", line) for line in source.splitlines())
    for source in fan_sources():
        assert idle_lines(source) == []
        for line in source.splitlines():
            assert re.fullmatch(r" *(\w+ = \w+ \+ \w+|t\d+\[\d+\] \+= \w+( \+ \w+)*"
                                r"|nxt\[\d+\]\((\w+, )*\w+\)|pass)", line), line


def test_no_two_sum_lines_of_a_fan_share_a_right_hand_side():
    # sibling fill paths read one name for a sum they both make, as the
    # search shares their parents; every tiling still adds its own term
    for source in fan_sources():
        sums = [tuple(sorted(line.split(" = ")[1].split(" + "))) for line in source.splitlines()
                if re.fullmatch(r" *\w+ = \w+ \+ \w+", line)]
        assert len(set(sums)) == len(sums), source


def test_the_idle_line_check_catches_a_step_source_that_keeps_its_copies(monkeypatch):
    # negative control: each count on the new line also gets its own name,
    # copied from the name that holds it or set to 0, as every line once
    # did; the fans still count right, so only the structure tells them apart
    step_source, expected = walks._step_source, brute_line_totals(2, 8)

    def keeping_copies(rows, spill, cross, out, names, sums):
        source, held = step_source(rows, spill, cross, out, names, sums)
        for y, name in enumerate(held):
            if name != f"{out}{y}":
                source += f"    {out}{y} = {name or 0}\n"
        return source, [f"{out}{y}" for y in range(rows + 1)]

    monkeypatch.setattr(walks, "_step_source", keeping_copies)
    assert any(" = 0" in line for source in step_sources() for line in idle_lines(source))
    walks._column_fan.cache_clear()
    try:
        # line 0 is copied by every fill: only a fan with no fill has none
        assert all(idle_lines(source) or source == "    pass\n" for source in fan_sources())
        assert walks._line_totals(Board(2, 8)) == expected
    finally:
        walks._column_fan.cache_clear()


def test_a_search_compiles_one_fan_per_spill_and_closed_pair():
    # groups of 3 columns end at the last column: 2x12 has inner groups and
    # the last one, 2x7 a 1-column inner group first (start-aligned groups
    # would give it 2 kinds, inner and a 1-column last). 4 spills into a
    # group times each kind: each fan is looked up once, before the search,
    # and the only column step is the start vector
    for cols, kinds in ((12, 2), (7, 3)):  # 808,395 tilings of the 2x12 board alone
        walks._column_fan.cache_clear()
        walks._column_step.cache_clear()
        brute_line_totals(2, cols)
        fans, steps = walks._column_fan.cache_info(), walks._column_step.cache_info()
        assert fans.misses == fans.currsize == fans.hits + fans.misses == 4 * kinds
        assert steps.misses == steps.hits + steps.misses == 1


def test_groups_hold_at_most_128_leaves_of_an_empty_column():
    # b fills of an empty column: b^g <= 128 < b^(g+1), at most n columns
    assert [walks._group_size(rows, 50, squares)
            for rows, squares in ((2, True), (2, False), (1, True), (3, True), (4, True))
            ] == [3, 7, 7, 1, 1]
    assert walks._group_size(2, 2, False) == 2 and walks._group_size(2, 0, True) == 1


def test_the_one_fill_column_search_caps_its_groups_at_7_columns():
    # a 1-row dominoes-only empty column has one fill, so 1^g never passes
    # 128 and only the cap of 7, or n, bounds the group
    for n in range(31):
        assert walks._group_size(1, n, False) == min(max(n, 1), 7)
        assert walks._line_totals(Board(1, n), False)[n] == (
            [1, n // 2 + 1] if n % 2 == 0 else [0, 0])


def test_no_fan_passes_7_columns_or_128_leaves_of_an_empty_column():
    for rows, squares in product(range(1, 5), (True, False)):
        b, g = len(_column_fills(rows, 0, 0, squares)), walks._group_size(rows, 4000, squares)
        assert 1 <= g <= 7 and (g == 1 or b ** g <= 128), (rows, squares)
    # the one-fill board that compiled one fan of all 4,000 columns
    walks._column_fan.cache_clear()
    assert brute_line_totals(1, 4000, False)[4000] == [1, 2001]
    assert walks._column_fan.cache_info().currsize <= 2 * 3  # spills x (inner, last, first)


def set_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    return limit


def test_the_search_call_depth_is_bounded_whatever_n_is():
    # 2,858 groups of 7 columns: a fan chain across all of them would pass
    # the default recursion limit
    limit = set_default_recursion_limit()
    try:
        assert brute_line_totals(1, 20000, False)[20000] == [1, 10001]
    finally:
        sys.setrecursionlimit(limit)


def test_a_search_that_chains_every_fan_passes_the_recursion_limit(monkeypatch):
    # negative control: without the stack, one fan calls the next to the end
    monkeypatch.setattr(walks, "_CHAINED", 10**6)
    limit = set_default_recursion_limit()
    try:
        with pytest.raises(RecursionError):
            brute_line_totals(1, 20000, False)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("chained", [1, 2])
def test_searches_through_the_stack_match_their_recurrences(monkeypatch, chained):
    # with chains of 1 or 2 fans, nodes with real tilings below them cross
    # the stack at every boundary (1) or at every other one (2): 2x12 in 4
    # groups of 3 columns, the dominoes-only 2x20 and the 1x25 board in 3
    # and 4 groups of 7
    monkeypatch.setattr(walks, "_CHAINED", chained)
    walk = eval_system(walk_system(), 12, ("r", "r1", "r2"))
    assert brute_line_totals(2, 12) == [list(t) for t in zip(*walk.values())]
    shape = eval_system(tiling_system(), 12, ("c",))["c"]
    assert tiling_counts(2, 12, PartialKind.C) == list(shape)
    domino = eval_system(domino_only_recurrence(), 20)["w-domino"]
    assert [t[2] for t in brute_line_totals(2, 20, False)] == list(domino)
    v = eval_system(v_theorem_spec(), 25)["v"]
    assert [t[1] for t in brute_line_totals(1, 25)] == list(v)


def test_the_search_is_row_generic():
    # 3 rows is past Board's limit, so a stand-in board with rows and cols
    totals = walks._line_totals(namedtuple("B", "rows cols")(3, 6))
    assert [t[3] for t in totals] == [1, 10, 130, 1312, 12401, 108672, 907185]
    # the 3x1 board is the 1x3 board transposed, the 3x2 board the 2x3 board
    assert totals[1][3] == brute_v(3) == 10
    assert totals[2][3] == brute_line_totals(2, 3)[3][2] == 130


def test_count_text_is_exact_to_30_digits():
    assert walks._count_text(10**30 - 1) == "9" * 30
    assert walks._count_text(10**30) == "more than 10^29"
    assert walks._count_text(10**30 + 1) == "more than 10^30"


def test_sum_is_order_independent():
    n = 5
    tilings = enumerate_tilings(Board(2, n))
    forward = sum(count_walks_for_tiling(t, 2) for t in tilings)
    backward = sum(count_walks_for_tiling(t, 2) for t in reversed(tilings))
    assert forward == backward == brute_line_totals(2, n)[n][2]
    # per-tiling counts summed line by line equal the brute column search
    for squares in (True, False):
        totals = brute_line_totals(2, 6, squares_allowed=squares)
        for n in range(7):
            tilings = enumerate_tilings(Board(2, n), squares_allowed=squares)
            assert [sum(count_walks_for_tiling(t, y) for t in tilings)
                    for y in range(3)] == totals[n]


def test_brute_line_totals_matches_each_board():
    # entry j of one search over the largest board is the search of board j alone
    for rows, upto, squares in ((1, 16, True), (2, 10, True), (2, 10, False)):
        totals = brute_line_totals(rows, upto, squares)
        assert len(totals) == upto + 1
        for j in range(upto + 1):
            assert totals[j] == brute_line_totals(rows, j, squares)[j]
            if j <= 6:  # and the per-line sums over the tilings of board j
                tilings = enumerate_tilings(Board(rows, j), squares_allowed=squares)
                assert totals[j] == [sum(count_walks_for_tiling(t, y) for t in tilings)
                                     for y in range(rows + 1)]


def test_brute_line_totals_checks_the_budget_on_the_largest_board(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("brute walk sum called before the budget check")

    monkeypatch.setattr(walks, "_line_totals", no_enumeration)
    with pytest.raises(BudgetExceeded):  # 2x13 has 2,598,440 tilings, 2x12 fewer
        brute_line_totals(2, 13, budget=10**6)


SHAPES = {"r": None, "a": PartialKind.A, "c": PartialKind.C, "d": PartialKind.D}


def tiling_counts(rows, upto, kind=None):
    return [t[0] for t in brute_line_totals(rows, upto, partial=kind)]


@pytest.mark.parametrize("kind", SHAPES.values(), ids=SHAPES)
def test_brute_tiling_counts_match_the_stream_of_each_board(kind):
    # line 0 of one search of the largest shape counts every smaller one,
    # 0 where it does not fit, as the completion rows count them
    counts = tiling_counts(2, 10, kind)
    assert counts == [count_tilings(Board(2, n), True, kind) for n in range(11)]


def test_brute_tiling_counts_of_one_row_and_fib():
    ones = tiling_counts(1, 16)
    assert ones == [count_tilings(Board(1, n)) for n in range(17)]
    assert SEQUENCES["fib"]["brute"](17, DEFAULT_BUDGET) == (("",), [(x,) for x in [0] + ones])
    assert [0] + ones == [fib(n) for n in range(18)]


def test_a_shape_that_fits_no_board_searches_nothing(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a shape that fits no board")

    monkeypatch.setattr(walks, "_line_totals", no_search)
    assert brute_line_totals(2, 1, partial=PartialKind.A) == [[0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("kind", list(PartialKind), ids=lambda kind: kind.name)
def test_the_shape_search_without_mirroring_disagrees(monkeypatch, kind):
    def unmirrored(board, partial):  # the search mirrors these back
        taken = _taken(board, partial)
        return None if taken is None else [0, *taken[board.cols:0:-1], taken[-1]]

    monkeypatch.setattr(walks, "_taken", unmirrored)
    assert tiling_counts(2, 10, kind) != [count_tilings(Board(2, n), True, kind)
                                          for n in range(11)]


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
