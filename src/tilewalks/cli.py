"""Command-line front end: compute, verify and render. Importing it loads
only `errors` of the package and builds no parser; each command imports what
it runs. The first `main` call builds the parser, reading the `--route`
choices from `SEQUENCES` then, and every later call in the process reuses
it. A command runs as the module's `cmd_<name>`, looked up by name at each
call."""

import argparse
import os
import sys
import time
from collections import deque
from itertools import count
from math import comb

from .errors import (DEFAULT_BUDGET, CheckResult, OutputNotWritable, TileWalksError,
                     UnknownSequence)

BLOCK = 64 * 1024  # characters of values in a csv, text or bfile table per write to stdout


def _text(value):
    """One side of a check as the report prints it: str() of the object, so
    an IntPoly reads as a polynomial."""
    return None if value is None else str(value)


class RunReport:
    """The argv a run parsed, its `CheckResult`s and its timings by name."""

    def __init__(self, command):
        self.command, self.checks, self.timings = command, [], {}

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_json(self, **extra):
        import json
        payload = {
            "command": self.command,
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "expected": _text(c.expected),
                 "actual": _text(c.actual), "first_failure": c.first_failure}
                for c in self.checks
            ],
            "ok": self.ok,
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            **extra,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# sequence routes
#
# Every route is route(upto, budget) -> (members, rows): its members, sorted,
# and for n = 0..upto a tuple of their values, made as the rows are read:
# ints, or for a system column the Decimals of one exact base-10 run. The
# call itself refuses what the route refuses. A one-member route is the column
# `route` ("" names a member the route computes itself), a many-member one
# the columns `route:member`; the columns of one member must agree. A route
# names what it calls and looks it up in its module at each call: importing
# cli loads none of it, and a name that the tracer rebinds is the one called.


def _line_column(rows, squares_allowed=True, partial=None, **lines):
    """The brute walk totals on the grid lines `lines` names (member=line)
    for every board, or truncated `partial` shape (a `PartialKind` name), up
    to `upto`, from one search of the largest. Line 0 counts the tilings."""
    def route(upto, budget):
        from . import walks
        from .boards import PartialKind
        kind = partial and PartialKind[partial]
        totals = walks.brute_line_totals(rows, upto, squares_allowed, budget, kind)
        return tuple(lines), [tuple(t[line] for line in lines.values()) for t in totals]

    return route


def _brute_fib(upto, budget):
    """F(n) counts the tilings of the 1x(n-1) board, so F(0) = 0 comes first."""
    from . import walks
    totals = walks.brute_line_totals(1, upto - 1, budget=budget) if upto else []
    return ("",), [(0,)] + [(t[0],) for t in totals]


def _system_column(system, *members):
    def route(upto, budget):
        from . import recurrences
        return members, recurrences.decimal_columns(getattr(recurrences, system)(), upto, members)

    return route


# A closed column maps its per-n function's pair form(n, F(n+at), F(n+at+1)) over
# `_fib_pairs`: one fast doubling per `_BLOCK` terms, two big-by-small products per term.
def _closed(form, upto, at=0):
    from . import closedforms
    term, pairs = getattr(closedforms, form), closedforms._fib_pairs(at, upto + 1 + at)
    return (term(n, *pair) for n, pair in enumerate(pairs))


def _closed_column(form, at=0):
    def route(upto, budget):
        return ("",), zip(_closed(form, upto, at))

    return route


SEQUENCES = {
    "v": {
        "brute": _line_column(1, v=1),
        "recurrence": _system_column("v_theorem_spec", "v"),
        "closed": _closed_column("_v_form", at=1),
    },
    "w": {
        "brute": _line_column(2, r2=2),
        "recurrence": _system_column("walk_system", "r2"),
    },
    "w-domino": {
        "brute": _line_column(2, squares_allowed=False, r2=2),
        "recurrence": _system_column("domino_only_recurrence", "w-domino"),
        "closed": _closed_column("_w_domino_form"),
    },
    "r": {
        "brute": _line_column(2, r=0),
        "recurrence": _system_column("tiling_system", "r"),
    },
    "a": {
        "brute": _line_column(2, partial="A", a=0),
        "recurrence": _system_column("tiling_system", "a"),
    },
    "c": {
        "brute": _line_column(2, partial="C", c=0),
        "recurrence": _system_column("tiling_system", "c"),
    },
    "d": {
        "brute": _line_column(2, partial="D", d=0),
        "recurrence": _system_column("tiling_system", "d"),
    },
    "r1": {
        "brute": _line_column(2, r1=1),
        "recurrence": _system_column("walk_system", "r1"),
    },
    "fib": {
        "brute": _brute_fib,
        "recurrence": _system_column("fibonacci_spec", "fib"),
        "closed": _closed_column("_fib_form"),
    },
    "w-by-line": {  # the walk totals ending on each grid line
        "brute": _line_column(2, r=0, r1=1, r2=2),
        "recurrence": _system_column("walk_system", "r", "r1", "r2"),
    },
}


def cmd_seq(args, report):
    """The columns of the sequence by each route asked for, read a row at a
    time as the routes make them, with each route's time in the report and
    one agreement check for each column after the first of each member."""
    if args.name not in SEQUENCES:
        raise UnknownSequence(f"unknown sequence {args.name!r}")
    available = SEQUENCES[args.name]
    if args.route not in (*available, "all"):
        raise UnknownSequence(
            f"sequence {args.name!r} has no {args.route!r} route "
            f"(available: {', '.join(available)})"
        )
    streams, keys = [], []  # (rows, width) of each route; the columns
    for route in sorted(available) if args.route == "all" else [args.route]:
        t0 = time.perf_counter()
        members, rows = available[route](args.upto, args.budget)
        if args.format == "json":  # it prints the timings: drain the route in its timer,
            rows = iter(deque([*rows, None]).popleft, None)  # each row let go of once read
        report.timings[f"{args.name}:{route}"] = time.perf_counter() - t0
        streams.append((iter(rows), len(members)))
        keys += [route if len(members) == 1 else f"{route}:{m}" for m in members]
    _emit_table(args, keys, _table(args.name, keys, streams, report), report)
    for check in report.checks:
        if not check.passed:
            print(f"error: check {check.name} failed at n={check.first_failure}",
                  file=sys.stderr)


def _table(name, keys, streams, report):
    """The streams' rows joined while every stream makes one; once all have
    ended, each column is checked against the first column of its member,
    failing at the first n where the two differ or one of them has ended."""
    if len(streams) == 1:  # one route: nothing to compare
        yield from streams[0][0]
        return
    members = [key.partition(":")[2] for key in keys]
    failures = {(a, b): None for b, m in enumerate(members) if (a := members.index(m)) < b}
    for n in count():
        row, ended = [], 0
        for rows, width in streams:
            made = next(rows, None)
            ended += made is None
            row += [None] * width if made is None else made  # None: the stream has ended
        if ended == len(streams):
            break
        for (a, b), failed in failures.items():
            if failed is None and row[a] != row[b]:
                failures[a, b] = n
        if not ended:  # an ended stream makes no more rows
            yield row
    report.checks += [CheckResult(f"agree:{name}:{keys[a]}={keys[b]}", n is None,
                                  first_failure=n) for (a, b), n in failures.items()]


def _rows(rows):
    """The strings of each row's values. A value past the int-to-str digit
    limit goes through str(int(value)), so that a `Decimal` value raises the
    ValueError that str() of the int raises."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    for row in rows:
        texts = []
        for value in row:
            text = str(value)
            if limit and len(text) - text.startswith("-") > limit:
                text = str(int(value))
            texts.append(text)
        yield texts


def _emit_table(args, keys, rows, report):
    if args.format == "json":  # the run report, with the table
        columns = dict(zip(keys, map(list, zip(*_rows(rows)))))  # the rows go before encoding
        print(report.to_json(name=args.name, columns=columns))
        return
    if args.format == "bfile":  # "n value" of the first route, with no header
        sep, rows = " ", (row[:1] for row in rows)
        block = [] if len(keys) == 1 else ["# b-file output uses the first route only\n"]
    else:  # csv or text: a header, then one row per n
        sep = "," if args.format == "csv" else "\t"
        block = [sep.join(["n"] + keys), "\n"]
    size = 0
    try:  # the lines made before an error reach stdout before it propagates
        for n, texts in enumerate(_rows(rows)):
            block.append(str(n))
            for text in texts:  # one join per block, none per row
                block += sep, text
                size += len(text)
            block.append("\n")
            if size >= BLOCK:
                text, block, size = "".join(block), [], 0
                sys.stdout.write(text)
    finally:
        if block:
            sys.stdout.write("".join(block))


# ---------------------------------------------------------------------------
# verify suites


def _verify_theorems():
    from . import elimination, recurrences
    from .recurrences import agreement_check
    upto = 200
    theorem = recurrences.eval_recurrence(recurrences.v_theorem_spec(), upto)
    [fourth] = recurrences.eval_system(recurrences.v_fourth_order_spec(), upto).values()
    [inhomogeneous] = recurrences.eval_system(recurrences.v_inhomogeneous_system(), upto,
                                              ("v",)).values()
    [w9] = recurrences.eval_system(recurrences.w_ninth_order_spec(), 50).values()
    [r2] = recurrences.eval_system(recurrences.walk_system(), 50, ("r2",)).values()
    return [
        agreement_check("v-three-routes-agree", theorem, fourth, inhomogeneous),
        agreement_check("v-fibonacci-closed-form", theorem, [*_closed("_v_form", upto, at=1)]),
        recurrences.theorem_step_check(fourth, upto),
        agreement_check("w-ninth-order-equals-system", w9, r2),
        elimination.composed_form_check(w9, 50),
    ]


def _verify_lemmas():
    from itertools import zip_longest
    from .boards import TileKind, _column_fills
    from .recurrences import agreement_check, verify_intermediate_identities
    checks, hists = [], {0: [1]}  # per spill into the next column, tilings by number of dominoes
    for n in range(17):  # the spill-0 list after column n is the histogram of 1xn
        checks.append(agreement_check(f"domino-count-histogram-n{n}",
                                      [comb(n - k, k) for k in range(n // 2 + 1)], hists[0]))
        if n == 16:
            break
        step = {}  # column n + 1: each fill moves its list by the dominoes it starts
        for spill, hist in hists.items():
            for fill, out, _ in _column_fills(1, spill, 0, True):
                moved = [0] * sum(kind != TileKind.SQUARE for kind, _ in fill) + hist
                step[out] = [sum(p) for p in zip_longest(step.get(out, ()), moved, fillvalue=0)]
        hists = step
    return checks + verify_intermediate_identities(30)


def _verify_elimination():
    from . import elimination
    from .recurrences import agreement_check
    m = elimination.build_matrix_m()
    basis = elimination.kernel(m)
    weights = elimination.ALPHA_WEIGHTS + elimination.BETA_WEIGHTS
    return [
        agreement_check("matrix-matches-printed", elimination.PRINTED_M, m.entries),
        CheckResult("kernel-dimension-one", len(basis) == 1, 1, len(basis)),
        CheckResult("kernel-vector", basis == [weights], weights, basis[0] if basis else None),
        CheckResult("kernel-annihilated", bool(basis) and not any(m.mul_vector(basis[0]))),
        *elimination.verify_la_lb_combination(30),
        *elimination.charpoly_factorization_check(),
    ]


def _verify_closed_forms():
    from . import closedforms, recurrences
    from .qsqrt5 import ALPHA, BETA
    from .recurrences import agreement_check
    upto = 50
    [rec] = recurrences.eval_system(recurrences.domino_only_recurrence(), upto).values()
    [r2] = recurrences.eval_system(recurrences.domino_only_system(), upto, ("r2",)).values()
    return [
        CheckResult("alpha-beta-product", ALPHA * BETA == -1),
        CheckResult("alpha-beta-sum", ALPHA + BETA == 1),
        closedforms.binet_identity_check(100),
        agreement_check("domino-system-vs-recurrence", rec, r2),
        agreement_check("domino-fibonacci-vs-recurrence", rec, [*_closed("_w_domino_form", upto)]),
        agreement_check("domino-explicit-vs-recurrence", rec, [*_closed("_explicit_form", upto)]),
        agreement_check("domino-ceiling-vs-recurrence", rec, [*_closed("_ceiling_form", upto)]),
        agreement_check("domino-even-odd-splits", rec[:upto], [*_closed("_split_form", upto - 1)]),
    ]


def _verify_oeis():
    from . import oeis
    checks = []
    for name, seq_id, upto in [("fib", "A000045", 45), ("v", "A001629", 40),
                               ("r", "A030186", 40), ("w-domino", "A054454", 40)]:
        values = [v for v, in SEQUENCES[name]["recurrence"](upto, DEFAULT_BUDGET)[1]]
        match = oeis.find_offset_shift(values, oeis.load_fixture(seq_id))
        checks.append(CheckResult(
            f"oeis:{name}-vs-{seq_id}", match.matched >= 20,
            ">=20 matched terms", f"shift {match.offset_shift}, matched {match.matched}"))
    return checks


VERIFY_SUITES = {
    "theorems": _verify_theorems,
    "lemmas": _verify_lemmas,
    "elimination": _verify_elimination,
    "closed-forms": _verify_closed_forms,
    "oeis": _verify_oeis,
}


def cmd_verify(args, report):
    suites = VERIFY_SUITES if args.suite == "all" else {args.suite: VERIFY_SUITES[args.suite]}
    for name, suite in suites.items():
        t0 = time.perf_counter()
        report.checks += suite()
        report.timings[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# render


def cmd_render(args, report):
    from .render import svg_for_tiling
    svg = svg_for_tiling(args.board, args.index, not args.dominoes_only)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {args.out}: {exc.strerror}")
    report.checks.append(CheckResult("svg-written", True, actual=args.out))


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input: one stderr line and exit 2, no usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def _size(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _board(text):
    """ROWSxCOLS as a Board."""
    from .boards import Board
    try:
        rows, cols = (int(x) for x in text.lower().split("x"))
        return Board(rows, cols)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, 1 or 2 rows, got {text!r}")


def build_parser():
    parser = _Parser(
        prog="tilewalks",
        description="Exact walk counts over square/domino tilings of 1xn and 2xn boards",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_seq = sub.add_parser("seq", help="emit a sequence table by one or all routes")
    p_seq.add_argument("name", help=f"one of: {', '.join(SEQUENCES)}")
    p_seq.add_argument("--upto", type=_size, default=10)
    routes = dict.fromkeys(route for table in SEQUENCES.values() for route in table)
    p_seq.add_argument("--route", choices=[*routes, "all"], default="recurrence")
    p_seq.add_argument("--format", choices=["json", "csv", "bfile", "text"],
                       default="text")
    p_seq.add_argument("--budget", type=_size, default=DEFAULT_BUDGET,
                       help="tiling-count cap for the brute route")

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=list(VERIFY_SUITES) + ["all"])

    p_ren = sub.add_parser("render", help="render one tiling and its walks as SVG")
    p_ren.add_argument("board", type=_board, help="ROWSxCOLS, e.g. 2x3")
    p_ren.add_argument("index", type=int)
    p_ren.add_argument("--out", required=True)
    p_ren.add_argument("--dominoes-only", action="store_true")
    return parser


_parser = None  # built by the first main call and reused by every later one


def main(argv=None):
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # bad options (2) or --help (0), already printed
        return exc.code
    report = RunReport(argv)
    try:
        globals()[f"cmd_{args.cmd}"](args, report)  # by name: a rebound cmd_* is the one run
        if args.cmd != "seq":  # seq prints its report only as --format json
            print(report.to_json())
        sys.stdout.flush()  # a closed pipe raises here at the latest, not at exit
    except TileWalksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # what is still buffered goes nowhere, so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # the shell's code for a writer killed by SIGPIPE
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
