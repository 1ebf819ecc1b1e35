"""Brute-force walk enumeration and counting over tilings.

This is the ground-truth oracle: every recurrence and closed form in the
package is cross-checked against the sums computed here. Its search,
`_line_totals`, still enumerates every tiling, but a group of columns at a
time: each group's subtree is one call of a fan compiled to straight-line
additions (`_column_fan`), from the same step source as `_column_step`.
The source holds each distinct sum of two counts once, with no line for
a count that is copied or 0, and every tiling adds its own term to the
totals. A fan calls the next group's fan for each node it ends at, and
a stack takes the nodes past a bounded depth of such calls.
"""

from functools import lru_cache, partial as bind

from .boards import Board, _column_fills, _taken, count_tilings
from .errors import DEFAULT_BUDGET, BudgetExceeded


def _step_source(rows, spill, cross, out, names, sums):
    """The lines of straight-line source that step the rows + 1 walk counts
    on grid line x-1, held by `names`, to line x, and the names that hold
    the counts on line x.

    `spill` and `cross` are the masks of column x, `boards._walk_masks`: bit
    y-1 of `spill` blocks the climb from (x, y-1) to (x, y), bit y of `cross`
    blocks the step from (x-1, y) to (x, y), so out[y] = (in[y] unless
    cross) + (out[y-1] unless spill). A name is a str, or None for a count
    that is 0. Only a sum of two counts not in `sums`, {sum: its name} for
    the source, gets a line, `<out>y = a + b`; a count that is one of the
    two is held by that one's name, and 0 by None. The source is built from
    the ints and the names alone.
    """
    climb = spill << 1 | 1  # row 0 has no climb
    lines, held = [], []
    for y in range(rows + 1):
        terms = [name for name in (None if cross >> y & 1 else names[y],
                                   None if climb >> y & 1 else held[-1])
                 if name is not None]
        if len(terms) == 2:
            rhs = " + ".join(sorted(terms))
            lines += [f"    {out}{y} = {rhs}\n"] * (rhs not in sums)
            terms = [sums.setdefault(rhs, f"{out}{y}")]
        held.append(terms[0] if terms else None)
    return "".join(lines), held


def _inputs(rows):
    return [f"w{y}" for y in range(rows + 1)]


def _compile(rows, head, body):
    """The function `def f(<head>w0, ..., w<rows>):` + body, compiled."""
    namespace = {}
    exec(f"def f({head}{', '.join(_inputs(rows))}):\n{body}", namespace)
    return namespace["f"]


def _args(names):
    """The names as call arguments, 0 for None."""
    return ", ".join(name or "0" for name in names)


@lru_cache(maxsize=None)
def _column_step(rows, spill, cross):
    """The map from the rows + 1 walk counts on grid line x-1 to the tuple
    of counts on line x through the column fill with masks (spill, cross),
    compiled to straight-line additions on first use. Line 0 is the step
    from (1, 0, ..., 0) with nothing blocked.
    """
    source, names = _step_source(rows, spill, cross, "n", _inputs(rows), {})
    return _compile(rows, "", source + f"    return ({_args(names)},)\n")


def _fan_source(rows, spill, keys, squares_allowed):
    """The head and body of the fan of `_column_fan`."""
    lines, sums, named = [], [[] for _ in keys], {}
    frontier = [(spill, _inputs(rows))]  # (spill in, names of the parent's counts)
    for l, (taken, closed, last) in enumerate(keys):
        grown = []
        for into, parent in frontier:
            for _, out, cross in _column_fills(rows, into | taken, closed, squares_allowed):
                source, names = _step_source(rows, out, cross, f"n{len(lines)}_", parent, named)
                lines.append(source)
                if not out:
                    sums[l].append(names)
                if not last:
                    grown.append((out, names))
        frontier = grown
    for l, vectors in enumerate(sums, 1):
        for y in range(rows + 1):
            terms = [names[y] for names in vectors if names[y] is not None]
            if terms:
                lines.append(f"    t{l}[{y}] += {' + '.join(terms)}\n")
    lines += (f"    nxt[{out}]({_args(names)})\n" for out, names in frontier)
    head = "".join(f"t{l}, " for l in range(1, len(keys) + 1)) + "nxt, "
    return head, "".join(lines) or "    pass\n"


@lru_cache(maxsize=None)
def _column_fan(rows, spill, keys, squares_allowed):
    """Every node of a depth-g subtree of the search, compiled to
    straight-line source: the g columns of a group, one key per column.

    Each key is (rows taken, rows of the next column taken, last), and
    `spill` holds the rows the column before the group spills into its
    first column. fan(t1, ..., tg, nxt, *ways) steps the walk counts `ways`
    through every fill path of the group, each fill from its parent's
    counts by `_step_source`, so the source holds one line per distinct
    sum and none for a count that is copied or 0. It adds the counts of column
    l's fills that spill nothing out into the totals row tl in place, one
    += per grid line with one term per fill, and then calls nxt[spill
    out](*counts) for each fill of the group's last column, the next
    group's fan. A column whose key is `last` has no fills after it, while
    an inner column closed on every row, as the first column of a mirrored
    D shape is, has them.
    """
    return _compile(rows, *_fan_source(rows, spill, keys, squares_allowed))


def count_walks_for_tiling(tiling, end_line):
    """Monotone paths from (0,0) to (n, end_line) that cross no domino,
    stepped from (1, 0, ..., 0) through the masks of each column 0..n."""
    rows = tiling.board.rows
    if not 0 <= end_line <= rows:
        raise ValueError(f"end_line {end_line} outside 0..{rows}")
    ways = (1,) + (0,) * rows
    for spill, cross in tiling.masks():
        ways = _column_step(rows, spill, cross)(*ways)
    return ways[end_line]


def enumerate_walks(tiling):
    """All admissible corner-to-corner paths, lexicographic (Right < Up).

    Returns step tuples of 'R'/'U' characters; meant for small boards and
    rendering, counting goes through count_walks_for_tiling.
    """
    rows, n = tiling.board.rows, tiling.board.cols
    masks = tiling.masks()
    out, steps, stack = [], [], []  # stack: (x, y, the step that reaches it)

    def expand(x, y):  # "R" goes on top, so it is taken first
        if y < rows and not masks[x][0] >> y & 1:  # spill of column x: no climb
            stack.append((x, y + 1, "U"))
        if x < n and not masks[x + 1][1] >> y & 1:  # cross of column x+1: no step
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


def _group_size(rows, n, squares_allowed):
    """Columns per fan: the largest g with b^g <= 128, where b is the number
    of fills of an empty column, so a fan from an empty column has at most
    128 leaves; at most 7 (for b = 1) and n, and at least 1."""
    b, g = len(_column_fills(rows, 0, 0, squares_allowed)), 1
    while g < min(n, 7) and b ** (g + 1) <= 128:
        g += 1
    return g


_CHAINED = 8  # groups whose fans call the next fan directly: the call depth


def _line_totals(board, squares_allowed=True, partial=None):
    """Walk totals per ending grid line, summed over every tiling of each
    prefix board: entry j belongs to the board's first j columns. The bottom
    walk is never blocked, so line 0 counts the tilings.

    A depth-first search over column fills that carries each partial
    tiling's walk counts, so a tiling costs O(1) column steps amortized. A
    node at depth j with no spill into column j+1 is a tiling of the
    j-column board; its counts are added when it is made. The columns are
    cut into groups of `_group_size` columns, the first taking n mod g (or
    g), so that the last group ends at column n. Each node at a group
    boundary is one call of its group's compiled fan, which makes the whole
    subtree down to the next boundary; the nodes at depth n are never made.
    The fans come from one table per distinct group of (taken, next column
    taken, last) keys: at most three for a full board.

    A fan of one of the last `_CHAINED` groups is called directly by the
    fan before it; a fan of an earlier group is pushed with its counts onto
    a stack that a loop pops, so that the Python call depth stays at most
    `_CHAINED` fans whatever n is.

    A `partial` shape is searched as its mirror image, the taken masks of
    `boards._taken` in reverse column order, which has the same tilings, so
    entry j is the shape on the j-column board where it fits. Only line 0
    has a meaning for a shape.
    """
    n, rows = board.cols, board.rows
    taken = [0, *_taken(board, partial)[n:0:-1], (1 << rows) - 1]  # mirrored
    keys = tuple((taken[j], taken[j + 1], j == n) for j in range(1, n + 1))
    start = _column_step(rows, 0, 0)(1, *[0] * rows)
    totals = [list(start)] + [[0] * (rows + 1) for _ in range(n)]
    if not n:
        return totals
    g = _group_size(rows, n, squares_allowed)
    bounds = [0, *range(n % g or g, n + 1, g)]  # the last group ends at column n
    spans = list(zip(bounds, bounds[1:]))  # group i holds columns a+1..b
    tables = {group: [_column_fan(rows, spill, group, squares_allowed)
                      for spill in range(1 << rows)]
              for group in dict.fromkeys(keys[a:b] for a, b in spans)}
    stack = []  # (fan, counts) of the deferred nodes
    push, pop = stack.append, stack.pop

    def defer(fan, *ways):
        push((fan, ways))

    # fans[spill](*ways): group i's fan with its totals rows and nxt bound,
    # from the last group back; nxt is group i+1's fans, reached through the
    # stack where group i+1 heads the last _CHAINED groups or one before them
    fans = None
    for i in range(len(spans) - 1, -1, -1):
        a, b = spans[i]
        if fans is not None and len(spans) - (i + 1) >= _CHAINED:
            fans = [bind(defer, fan) for fan in fans]
        fans = [bind(fan, *totals[a + 1:b + 1], fans) for fan in tables[keys[a:b]]]
    fans[0](*start)
    while stack:
        fan, ways = pop()
        fan(*ways)
    return totals


def brute_line_totals(rows, upto, squares_allowed=True, budget=DEFAULT_BUDGET, partial=None):
    """Per-ending-line walk totals over all tilings of the rows x j board,
    or of its truncated `partial` shape, for every j = 0..upto, from one
    search of the largest; rows of zeros where the shape does not fit.

    The budget is checked against the largest board before any enumeration.
    """
    board = Board(rows, upto)
    _check_budget(board, budget, squares_allowed, partial)
    fits = [partial is None or _taken(Board(rows, j), partial) is not None
            for j in range(upto + 1)]
    if not fits[-1]:  # a shape too wide for the largest board fits none: no search
        return [[0] * (rows + 1) for _ in fits]
    totals = _line_totals(board, squares_allowed, partial)
    return [t if fit else [0] * (rows + 1) for fit, t in zip(fits, totals)]


def brute_v(n, budget=DEFAULT_BUDGET):
    """Total walks over all tilings of the 1xn board."""
    return brute_line_totals(1, n, budget=budget)[n][1]


def brute_w_by_line(n, squares_allowed=True, budget=DEFAULT_BUDGET):
    """Per-ending-line walk totals [w0, w1, w2] over all tilings of the 2xn board."""
    return brute_line_totals(2, n, squares_allowed, budget)[n]
