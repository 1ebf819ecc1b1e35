"""The three workloads: operation lists and the checks on their outputs.

Each operation calls ``tilewalks.cli.main(argv)`` with stdout captured, or
one of the library functions the CLI has no entry for. Functions are looked
up on their module at call time, so a traced run sees every call. A check
returns None when the output is right and a one-line reason otherwise; it
trusts neither the exit code alone nor the program's own report, and
compares every term with the other routes in the same output and with
``reference.Reference``.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from tilewalks import cli, closedforms

OP_DEADLINE_S = 30.0

# brute-oracle: the ground-truth oracle path.
BRUTE_W_BY_LINE_N = 9
BRUTE_DOMINO_N = 20
BRUTE_V_N = 20

# deep-terms: big-integer and exact-field arithmetic with no brute work.
DEEP_N = 2000
CEILING_SWEEP_N = 158   # w_domino_ceiling cost grows ~1.6x per n past 150
EXPLICIT_SWEEP_N = 160
# Known defects, counted as failed operations until they are fixed.
INT_STR_N = 8600        # w(n) passes 4300 decimal digits at n = 8480
CEILING_HANG_N = 200    # QSqrt5.floor's +-1 correction loop does not finish
CEILING_HANG_DEADLINE_S = 0.5

# verify-objects: validated Tiling objects, small-n recurrences, rendering.
OBJECTS_N = 8
RENDER_BOARD = (2, 8)

BY_LINE = {"r": "r", "r1": "r1", "r2": "w"}  # w-by-line member -> reference name


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], object]
    deadline: float = OP_DEADLINE_S
    known_defect: str = ""       # ROADMAP item the op is expected to fail on
    defect_signature: str = ""   # text in the failure that identifies it


def _cli(argv, out_dir):
    """Run the CLI with stdout in a file, so that a large table costs the
    process no memory that a terminal or a pipe would not cost it."""
    def call():
        err = io.StringIO()
        with open(out_dir / "stdout.txt", "w+") as out:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            out.seek(0)
            return rc, out.read(), err.getvalue()

    return call


def _exit_ok(result):
    rc, _, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:120]}"
    return None


# -- seq tables -------------------------------------------------------------


def _seq_op(ref, out_dir, name, upto, routes, **defect):
    argv = ["seq", name, "--upto", str(upto), "--route", routes, "--format", "csv"]
    if name == "w-by-line":
        columns = [f"{route}:{m}" for route in ("brute", "recurrence") for m in BY_LINE]
    elif routes == "all":
        columns = ["brute", "recurrence"] + (
            ["closed"] if name in ("v", "w-domino", "fib") else [])
    else:
        columns = [routes]
    columns.sort()

    def check(result):
        return _exit_ok(result) or _check_table(ref, name, upto, columns, result[1])

    return Op(" ".join(argv[:6]), _cli(argv, out_dir), check, **defect)


def _check_table(ref, name, upto, columns, text):
    lines = text.splitlines()
    if not lines or lines[0].split(",") != ["n"] + columns:
        return f"header {lines[0][:80] if lines else ''!r}, expected n,{','.join(columns)}"
    if len(lines) != upto + 2:
        return f"{len(lines) - 1} rows, expected {upto + 1}"
    members = [BY_LINE[c.split(":")[1]] if ":" in c else name for c in columns]
    for n, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != len(columns) + 1 or fields[0] != str(n):
            return f"malformed row {n}"
        seen = {}
        for col, member, value in zip(columns, members, fields[1:]):
            if seen.setdefault(member, value) != value:
                return f"routes disagree at n={n} on {member} ({col})"
            expected = ref.expected(member, n)
            if expected is not None and value != expected:
                return f"{col} at n={n} differs from the reference"
    return None


# -- direct library calls ------------------------------------------------------


def _terms_op(ref, label, fn_name, ns, **defect):
    def call():
        fn = getattr(closedforms, fn_name)
        return [fn(n) for n in ns]

    def check(values):
        for n, value in zip(ns, values):
            if value != ref.value("w-domino", n):
                return f"{fn_name}({n}) = {value}, reference {ref.value('w-domino', n)}"
        return None

    return Op(label, call, check, **defect)


# -- verify and render -----------------------------------------------------------

VERIFY_MIN_CHECKS = 58
VERIFY_REQUIRED = {
    "kernel-vector": "(1, -5, 7, -3, -4, 2, 1, -3, 5, -2, -1)",
    "matrix-matches-printed": None,
    "w-ninth-order-equals-system": None,
    "domino-ceiling-vs-recurrence": None,
    "charpoly-w-9th": None,
    "oeis:fib-vs-A000045": None,
    "oeis:v-vs-A001629": None,
    "oeis:r-vs-A030186": None,
    "oeis:w-domino-vs-A054454": None,
}


def _check_verify(result):
    bad = _exit_ok(result)
    if bad:
        return bad
    try:
        checks = json.loads(result[1])["checks"]
    except (ValueError, KeyError, TypeError):
        return "report is not JSON with a checks list"
    by_name = {c["name"]: c for c in checks}
    if len(checks) < VERIFY_MIN_CHECKS or len(by_name) != len(checks):
        return f"{len(checks)} checks ({len(by_name)} distinct), expected >= {VERIFY_MIN_CHECKS}"
    failing = [c["name"] for c in checks if c["passed"] is not True]
    if failing:
        return f"checks failed: {', '.join(failing[:5])}"
    for name, actual in VERIFY_REQUIRED.items():
        if name not in by_name:
            return f"check {name} missing"
        if actual is not None and by_name[name]["actual"] != actual:
            return f"check {name} reports {by_name[name]['actual']}"
    return None


def tiling_at(rows, cols, index):
    """The index-th tiling in the package's documented order: fill the first
    free cell in column-major order, trying square, horizontal domino,
    vertical domino. Tiles are (kind, col, row) with kind in "SHV"."""
    total = rows * cols
    occ = [False] * (total + rows)
    tiles = []
    seen = 0

    def dfs(pos):
        nonlocal seen
        while pos < total and occ[pos]:
            pos += 1
        if pos == total:
            seen += 1
            return seen > index
        col, row = pos // rows + 1, pos % rows + 1
        occ[pos] = True
        options = [("S", None)]
        if col < cols and not occ[pos + rows]:
            options.append(("H", pos + rows))
        if rows == 2 and row == 1 and not occ[pos + 1]:
            options.append(("V", pos + 1))
        for kind, other in options:
            if other is not None:
                occ[other] = True
            tiles.append((kind, col, row))
            if dfs(pos + 1):
                return True
            tiles.pop()
            if other is not None:
                occ[other] = False
        occ[pos] = False
        return False

    if not dfs(0):
        raise ValueError(f"{rows}x{cols} has no tiling {index}")
    return frozenset(tiles)


def count_walks(rows, cols, tiles):
    """Right/up lattice paths (0,0) -> (cols, rows) that cross no domino."""
    no_up = {(col, row - 1) for kind, col, row in tiles if kind == "H"}   # x, y
    no_right = {(col - 1, 1) for kind, col, row in tiles if kind == "V"}  # x, y
    ways = {(0, 0): 1}
    for x in range(cols + 1):
        for y in range(rows + 1):
            if (x, y) == (0, 0):
                continue
            left = ways.get((x - 1, y), 0) if (x - 1, y) not in no_right else 0
            below = ways.get((x, y - 1), 0) if (x, y - 1) not in no_up else 0
            ways[(x, y)] = left + below
    return ways[(cols, rows)]


_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)"')
_SVG = re.compile(r'<svg [^>]*width="(\d+)" height="(\d+)"')


def _render_op(index, out_path):
    rows, cols = RENDER_BOARD
    argv = ["render", f"{rows}x{cols}", str(index), "--out", str(out_path)]
    tiles = tiling_at(rows, cols, index)
    walks = count_walks(rows, cols, tiles)
    first_digest = []

    def check(result):
        bad = _exit_ok(result)
        if bad:
            return bad
        svg = out_path.read_text()
        digest = hashlib.sha256(svg.encode()).hexdigest()
        if first_digest and digest != first_digest[0]:
            return "SVG bytes changed between passes"
        first_digest.append(digest)
        size = _SVG.search(svg)
        if not svg.endswith("</svg>\n") or not size:
            return "not a complete SVG document"
        if f"<title>{rows}x{cols} board, tiling {index}</title>" not in svg:
            return "wrong title"
        width, height = int(size[1]), int(size[2])
        cell = (width - height) // (cols - rows)
        margin = (height - rows * cell) // 2
        drawn = set()
        for x, y, w, h in _RECT.findall(svg):
            x, y, w, h = (int(v) for v in (x, y, w, h))
            kind = {(1, 1): "S", (2, 1): "H", (1, 2): "V"}.get((w // cell, h // cell))
            col = (x - margin) // cell + 1
            row = rows - (y - margin) // cell - (1 if kind == "V" else 0)
            drawn.add((kind, col, row))
        if drawn != tiles:
            return "drawn tiles differ from the expected tiling"
        if svg.count("<polyline") != walks:
            return f"{svg.count('<polyline')} walks drawn, expected {walks}"
        return None

    return Op(" ".join(argv[:3]), _cli(argv, out_path.parent), check)


# ---------------------------------------------------------------------------


def build(name, rng, ref, out_dir):
    """The operation list of one workload; the seed picks the render index."""
    if name == "brute-oracle":
        return [
            _seq_op(ref, out_dir, "w-by-line", BRUTE_W_BY_LINE_N, "all"),
            _seq_op(ref, out_dir, "w-domino", BRUTE_DOMINO_N, "all"),
            _seq_op(ref, out_dir, "v", BRUTE_V_N, "all"),
        ]
    if name == "deep-terms":
        ref.extend(DEEP_N)
        ops = [
            _seq_op(ref, out_dir, seq, DEEP_N, route)
            for seq in ("w", "w-domino", "v", "fib")
            for route in ("recurrence", "closed")
            if not (seq == "w" and route == "closed")
        ]
        for seq in ("w", "w-domino", "v", "fib"):  # warm the expected strings
            for n in range(DEEP_N + 1):
                ref.expected(seq, n)
        ops += [
            _terms_op(ref, f"w_domino_ceiling n<={CEILING_SWEEP_N}",
                      "w_domino_ceiling", range(CEILING_SWEEP_N + 1)),
            _terms_op(ref, f"w_domino_explicit n<={EXPLICIT_SWEEP_N}",
                      "w_domino_explicit", range(EXPLICIT_SWEEP_N + 1)),
            _seq_op(ref, out_dir, "w", INT_STR_N, "recurrence",
                    known_defect="ROADMAP 3c: int-to-str digit limit",
                    defect_signature="Exceeds the limit (4300 digits)"),
            _terms_op(ref, f"w_domino_ceiling n={CEILING_HANG_N}",
                      "w_domino_ceiling", [CEILING_HANG_N],
                      deadline=CEILING_HANG_DEADLINE_S,
                      known_defect="ROADMAP 3a: QSqrt5.floor does not terminate",
                      defect_signature="deadline"),
        ]
        return ops
    if name == "verify-objects":
        rows, cols = RENDER_BOARD
        index = rng.randrange(ref.value("r", cols))
        return [Op("verify all", _cli(["verify", "all"], out_dir), _check_verify)] + [
            _seq_op(ref, out_dir, seq, OBJECTS_N, "all") for seq in ("r", "a", "c", "d")
        ] + [_render_op(index, out_dir / "board.svg")]
    raise KeyError(name)


WORKLOADS = ("brute-oracle", "deep-terms", "verify-objects")
