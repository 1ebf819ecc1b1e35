"""Command-line front end: compute, verify, render, and benchmark."""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import closedforms, elimination, oeis, recurrences, walks
from .boards import Board, PartialKind, TileKind, _raw_tilings
from .errors import OutputNotWritable, TileWalksError, UnknownSequence
from .qsqrt5 import ALPHA, BETA
from .render import svg_for_tiling


@dataclass
class RunReport:
    command: list
    checks: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, name, passed, expected=None, actual=None, first_failure=None):
        self.checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "expected": None if expected is None else str(expected),
                "actual": None if actual is None else str(actual),
                "first_failure": first_failure,
            }
        )

    @property
    def ok(self):
        return all(c["passed"] for c in self.checks)

    def to_json(self):
        payload = {
            "command": self.command,
            "checks": self.checks,
            "ok": self.ok,
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# sequence routes
#
# Every route is route(upto, budget) -> {member: [values for n = 0..upto]}.
# A one-member result is the column `route`, whatever its member is named
# ("" where a route computes the sequence itself), and all such columns of
# a sequence must agree. A many-member result is the columns
# `route:member`, and the columns of one member must agree.


def _per_board(count):
    """A brute column counted board by board, from count(n, budget).

    The largest board goes first, so a busted budget fails before any
    enumeration.
    """
    def route(upto, budget):
        return {"": [count(n, budget) for n in range(upto, -1, -1)][::-1]}

    return route


def _line_column(rows, squares_allowed=True, **lines):
    """The brute walk totals on the grid lines `lines` names (member=line)
    for every board up to `upto`, from one search of the largest board."""
    def route(upto, budget):
        totals = walks.brute_line_totals(rows, upto, squares_allowed, budget)
        return {member: [t[line] for t in totals] for member, line in lines.items()}

    return route


@_per_board
def _brute_fib(n, budget):
    return walks.brute_tiling_count(Board(1, n - 1), budget) if n else 0


def _tiling_column(kind=None):
    """Tilings of the 2xn board, or of its truncated `kind` shape, counted on
    the stream."""
    return _per_board(
        lambda n, budget: walks.brute_tiling_count(Board(2, n), budget, kind))


def _system_column(system, *members):
    def route(upto, budget):
        tables = recurrences.eval_system(system(), upto, members)
        return {member: list(tables[member].values) for member in members}

    return route


def _spec_column(spec_factory):
    def route(upto, budget):
        return {"": list(recurrences.eval_recurrence(spec_factory(), upto).values)}

    return route


def _closed_column(term):
    def route(upto, budget):
        return {"": [term(n) for n in range(upto + 1)]}

    return route


SEQUENCES = {
    "v": {
        "brute": _line_column(1, v=1),
        "recurrence": _spec_column(recurrences.v_theorem_spec),
        "closed": _closed_column(closedforms.v_fibonacci_form),
    },
    "w": {
        "brute": _line_column(2, r2=2),
        "recurrence": _system_column(recurrences.walk_system, "r2"),
    },
    "w-domino": {
        "brute": _line_column(2, squares_allowed=False, r2=2),
        "recurrence": _system_column(recurrences.domino_only_recurrence, "w-domino"),
        "closed": _closed_column(closedforms.w_domino_fibonacci_form),
    },
    "r": {
        "brute": _tiling_column(),
        "recurrence": _system_column(recurrences.tiling_system, "r"),
    },
    "a": {
        "brute": _tiling_column(PartialKind.A),
        "recurrence": _system_column(recurrences.tiling_system, "a"),
    },
    "c": {
        "brute": _tiling_column(PartialKind.C),
        "recurrence": _system_column(recurrences.tiling_system, "c"),
    },
    "d": {
        "brute": _tiling_column(PartialKind.D),
        "recurrence": _system_column(recurrences.tiling_system, "d"),
    },
    "r1": {
        "brute": _line_column(2, r1=1),
        "recurrence": _system_column(recurrences.walk_system, "r1"),
    },
    "fib": {
        "brute": _brute_fib,
        "recurrence": _system_column(recurrences.fibonacci_spec, "fib"),
        "closed": _closed_column(closedforms.fib),
    },
    "w-by-line": {  # the walk totals ending on each grid line
        "brute": _line_column(2, r=0, r1=1, r2=2),
        "recurrence": _system_column(recurrences.walk_system, "r", "r1", "r2"),
    },
}


def _run_routes(report, name, routes, upto, budget):
    """The columns of `name` by each of `routes`, timed in the report, with
    one agreement check for each column after the first of each member."""
    columns = {}
    for route in routes:
        t0 = time.perf_counter()
        result = SEQUENCES[name][route](upto, budget)
        report.timings[f"{name}:{route}"] = time.perf_counter() - t0
        for member, values in result.items():
            columns[route if len(result) == 1 else f"{route}:{member}"] = values
    groups = {}
    for key in sorted(columns):
        groups.setdefault(key.partition(":")[2], []).append(key)
    for first, *others in groups.values():
        for other in others:
            first_bad = next(
                (i for i, (x, y) in enumerate(zip(columns[first], columns[other]))
                 if x != y),
                None,
            )
            report.add(f"agree:{name}:{first}={other}", first_bad is None,
                       first_failure=first_bad)
    return columns


def cmd_seq(args):
    report = RunReport(command=["seq", args.name] + _echo(args))
    if args.name not in SEQUENCES:
        raise UnknownSequence(f"unknown sequence {args.name!r}")
    available = SEQUENCES[args.name]
    if args.route not in (*available, "all"):
        raise UnknownSequence(
            f"sequence {args.name!r} has no {args.route!r} route "
            f"(available: {', '.join(available)})"
        )
    routes = list(available) if args.route == "all" else [args.route]
    columns = _run_routes(report, args.name, routes, args.upto, args.budget)
    _emit_table(args, columns)
    for check in report.checks:  # the report itself is not printed by seq
        if not check["passed"]:
            print(f"error: check {check['name']} failed at n={check['first_failure']}",
                  file=sys.stderr)
    return report


def _emit_table(args, columns):
    keys = sorted(columns)
    length = args.upto + 1
    if args.format == "json":
        payload = {
            "name": args.name,
            "columns": {k: [str(v) for v in columns[k]] for k in keys},
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        print(",".join(["n"] + keys))
        for n in range(length):
            print(",".join([str(n)] + [str(columns[k][n]) for k in keys]))
    elif args.format == "bfile":
        if len(keys) != 1:
            print("# b-file output uses the first route only")
        for n in range(length):
            print(f"{n} {columns[keys[0]][n]}")
    else:
        header = "n\t" + "\t".join(keys)
        print(header)
        for n in range(length):
            print("\t".join([str(n)] + [str(columns[k][n]) for k in keys]))


def _echo(args):
    echo = []
    for k in ("upto", "route", "format", "budget", "n_max", "suite"):
        if hasattr(args, k) and getattr(args, k) is not None:
            echo.append(f"--{k.replace('_', '-')}={getattr(args, k)}")
    return echo


# ---------------------------------------------------------------------------
# verify suites


def _verify_theorems(report):
    upto = 200
    specs = recurrences.v_closed_recurrences()
    tables = [list(recurrences.eval_v_route(s, upto).values) for s in specs]
    report.add("v-three-routes-agree", tables[0] == tables[1] == tables[2])
    closed = [closedforms.v_fibonacci_form(n) for n in range(upto + 1)]
    report.add("v-fibonacci-closed-form", closed == tables[0])
    step = recurrences.theorem_step_check(tables[1], upto)  # the 4th-order table
    report.add(step.name, step.passed)
    w9 = recurrences.eval_system(recurrences.w_ninth_order_spec(), 50)["w"]
    sys_r2 = recurrences.eval_system(recurrences.walk_system(), 50, ("r2",))["r2"]
    report.add("w-ninth-order-equals-system", w9.values == sys_r2.values)
    report.add("w-composed-form", recurrences.composed_form_check(w9, 50))


def _verify_lemmas(report):
    from math import comb

    for n in range(17):
        hist = {}
        for raw in _raw_tilings(Board(1, n)):
            k = sum(t.kind != TileKind.SQUARE for t in raw)
            hist[k] = hist.get(k, 0) + 1
        expected = {k: comb(n - k, k) for k in range(n // 2 + 1) if comb(n - k, k)}
        report.add(f"domino-count-histogram-n{n}", hist == expected)
    for check in recurrences.verify_intermediate_identities(30):
        report.add(f"identity:{check.name}", check.passed,
                   first_failure=check.first_failure)


def _verify_elimination(report):
    m = elimination.build_matrix_m()
    report.add("matrix-matches-printed", m.entries == elimination.PRINTED_M)
    basis = elimination.kernel(m)
    expected = elimination.ALPHA_WEIGHTS + elimination.BETA_WEIGHTS
    report.add("kernel-dimension-one", len(basis) == 1, expected=1, actual=len(basis))
    report.add("kernel-vector", basis == [expected], expected=expected,
               actual=basis[0] if basis else None)
    mv = m.mul_vector(basis[0]) if basis else None
    report.add("kernel-annihilated", mv is not None and all(x == 0 for x in mv))
    for check in elimination.verify_la_lb_combination(30):
        report.add(f"elimination:{check.name}", check.passed,
                   first_failure=check.first_failure)
    for check in elimination.charpoly_factorization_check():
        report.add(check.name, check.passed, actual=check.detail)


def _verify_closed_forms(report):
    report.add("alpha-beta-product", ALPHA * BETA == -1)
    report.add("alpha-beta-sum", ALPHA + BETA == 1)
    binet = closedforms.binet_identity_check(100)
    report.add("binet-identities", binet.passed, first_failure=binet.first_failure)
    rec = list(recurrences.eval_system(recurrences.domino_only_recurrence(), 50)["w-domino"]
               .values)
    sys_w = list(recurrences.eval_system(recurrences.domino_only_system(), 50, ("r2",))["r2"]
                 .values)
    fibo = [closedforms.w_domino_fibonacci_form(n) for n in range(51)]
    expl = [closedforms.w_domino_explicit(n) for n in range(51)]
    ceil = [closedforms.w_domino_ceiling(n) for n in range(51)]
    report.add("domino-system-vs-recurrence", sys_w == rec)
    report.add("domino-fibonacci-vs-recurrence", fibo == rec)
    report.add("domino-explicit-vs-recurrence", expl == rec)
    report.add("domino-ceiling-vs-recurrence", ceil == rec)
    splits = all(
        closedforms.w_domino_even_form(k) == rec[2 * k]
        and closedforms.w_domino_odd_form(k) == rec[2 * k + 1]
        for k in range(25)
    )
    report.add("domino-even-odd-splits", splits)


def _verify_oeis(report):
    for name, seq_id, upto in [("fib", "A000045", 45), ("v", "A001629", 40),
                               ("r", "A030186", 40), ("w-domino", "A054454", 40)]:
        [values] = SEQUENCES[name]["recurrence"](upto, walks.DEFAULT_BUDGET).values()
        bfile = oeis.load_fixture(seq_id)
        match = oeis.find_offset_shift(values, bfile)
        report.add(
            f"oeis:{name}-vs-{seq_id}",
            match.passed and match.matched >= 20,
            expected=">=20 matched terms",
            actual=f"shift {match.offset_shift}, matched {match.matched}",
        )


VERIFY_SUITES = {
    "theorems": _verify_theorems,
    "lemmas": _verify_lemmas,
    "elimination": _verify_elimination,
    "closed-forms": _verify_closed_forms,
    "oeis": _verify_oeis,
}


def cmd_verify(args):
    report = RunReport(command=["verify", args.suite])
    suites = VERIFY_SUITES if args.suite == "all" else {args.suite: VERIFY_SUITES[args.suite]}
    for name, fn in suites.items():
        t0 = time.perf_counter()
        fn(report)
        report.timings[name] = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# render and bench


def cmd_render(args):
    spec, board = args.board
    svg = svg_for_tiling(board, args.index, squares_allowed=not args.dominoes_only)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {args.out}: {exc.strerror}")
    report = RunReport(command=["render", spec, str(args.index)])
    report.add("svg-written", True, actual=args.out)
    return report


def cmd_bench(args):
    report = RunReport(command=["bench"] + _echo(args))
    for name in ("v", "w-domino"):
        _run_routes(report, name, list(SEQUENCES[name]), args.n_max, args.budget)
    return report


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input: one stderr line and exit 2, no usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def _size(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _board(text):
    """ROWSxCOLS as (text, Board), so that the report echoes the text."""
    try:
        rows, cols = (int(x) for x in text.lower().split("x"))
        return text, Board(rows, cols)
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
    p_seq.add_argument("--budget", type=_size, default=walks.DEFAULT_BUDGET,
                       help="tiling-count cap for the brute route")
    p_seq.set_defaults(fn=cmd_seq)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=list(VERIFY_SUITES) + ["all"])
    p_ver.set_defaults(fn=cmd_verify)

    p_ren = sub.add_parser("render", help="render one tiling and its walks as SVG")
    p_ren.add_argument("board", type=_board, help="ROWSxCOLS, e.g. 2x3")
    p_ren.add_argument("index", type=int)
    p_ren.add_argument("--out", required=True)
    p_ren.add_argument("--dominoes-only", action="store_true")
    p_ren.set_defaults(fn=cmd_render)

    p_ben = sub.add_parser("bench", help="time brute vs recurrence vs closed routes")
    p_ben.add_argument("--n-max", type=_size, default=10)
    p_ben.add_argument("--budget", type=_size, default=walks.DEFAULT_BUDGET)
    p_ben.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except TileWalksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd != "seq":
        print(report.to_json())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
