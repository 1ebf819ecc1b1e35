import argparse
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import tilewalks
from tilewalks import boards, cli, closedforms, recurrences, walks
from tilewalks.cli import SEQUENCES, _system_column, build_parser, main
from tilewalks.errors import CheckResult
from tilewalks.oeis import parse_bfile


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seq_v_all_routes(capsys):
    code, out = run(capsys, "seq", "v", "--upto", "3", "--route", "all",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,brute,closed,recurrence"
    assert lines[1:] == ["0,1,1,1", "1,2,2,2", "2,5,5,5", "3,10,10,10"]


def test_seq_w_recurrence(capsys):
    code, out = run(capsys, "seq", "w", "--upto", "8", "--route", "recurrence",
                    "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "8,136663"


def test_seq_w_domino_all(capsys):
    code, out = run(capsys, "seq", "w-domino", "--upto", "5", "--route", "all",
                    "--format", "csv")
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "2", "6", "12", "26", "50"]


def test_seq_json_roundtrip(capsys):
    code, out = run(capsys, "seq", "r", "--upto", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"]["recurrence"] == ["1", "2", "7", "22", "71", "228", "733"]
    assert json.loads(json.dumps(payload)) == payload


def test_seq_bfile_output_reparses(capsys):
    code, out = run(capsys, "seq", "fib", "--upto", "20", "--format", "bfile")
    assert code == 0
    bfile = parse_bfile("A000045", out)
    assert bfile.entries[:4] == ((0, 0), (1, 1), (2, 1), (3, 2))


def test_seq_unknown_name(capsys):
    code, _ = run(capsys, "seq", "nope")
    assert code == 2


def test_seq_unsupported_route(capsys):
    code, _ = run(capsys, "seq", "w", "--route", "closed")
    assert code == 2


def test_seq_budget_exceeded(capsys):
    code, _ = run(capsys, "seq", "w", "--upto", "8", "--route", "brute",
                  "--budget", "10")
    assert code == 2
    code, _ = run(capsys, "seq", "r", "--upto", "5", "--route", "brute",
                  "--budget", "10")
    assert code == 2


def test_truncated_shape_budget_counts_the_shape(capsys):
    # a(8) = 1064, while the full 2x8 board has r(8) = 7573 tilings
    code, _ = run(capsys, "seq", "a", "--upto", "8", "--route", "brute", "--budget", "2000")
    assert code == 0
    assert main("seq a --upto 8 --route brute --budget 1000".split()) == 2
    assert "shape A of the 2x8 board has 1064 tilings" in capsys.readouterr().err


def test_a_shape_that_fits_no_board_prints_zeros_under_any_budget(capsys):
    code, out = run(capsys, "seq", "a", "--upto", "1", "--route", "brute", "--budget", "0",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,brute", "0,0", "1,0"]


@pytest.mark.parametrize("command", [
    "seq w --upto 13 --route brute --budget 1000000",
    "seq w --upto 13 --route all --budget 1000000",
    "seq w-by-line --upto 13 --route brute --budget 1000000",
    "seq v --upto 40 --route all --budget 10000",
    "seq r --upto 13 --route brute --budget 1000000",
    "seq a --upto 8 --route brute --budget 1000",
    "seq c --upto 8 --route brute --budget 1000",
    "seq d --upto 10 --route brute --budget 1000",
    "seq fib --upto 40 --route brute --budget 10",
])
def test_busted_budget_fails_before_any_enumeration(capsys, monkeypatch, command):
    calls = []

    def no_enumeration(*args):
        calls.append(args)
        raise AssertionError("brute walk sum called before the budget check")

    monkeypatch.setattr(walks, "_line_totals", no_enumeration)
    code = main(command.split())
    assert "budget" in capsys.readouterr().err
    assert code == 2
    assert calls == []


def test_seq_names_the_failing_check(capsys, monkeypatch):
    closed = SEQUENCES["v"]["closed"]

    def corrupted(upto, budget):
        members, rows = closed(upto, budget)
        return members, ((x + (n == 2),) for n, (x,) in enumerate(rows))

    monkeypatch.setitem(SEQUENCES["v"], "closed", corrupted)
    code = main(["seq", "v", "--upto", "3", "--route", "all", "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[3] == "2,5,6,5"
    assert err == "error: check agree:v:brute=closed failed at n=2\n"
    code, out = run(capsys, "seq", "v", "--upto", "3", "--route", "all", "--format", "json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [(c["name"], c["first_failure"]) for c in failed] == [("agree:v:brute=closed", 2)]


@pytest.mark.parametrize("fault, at", [("differs", 7), ("ends early", 12)])
def test_the_streamed_check_names_where_a_route_goes_wrong(capsys, monkeypatch, fault, at):
    # the rows print while every route makes one; the other pair is still
    # compared to the end
    closed = SEQUENCES["v"]["closed"]

    def faulty(upto, budget):
        members, rows = closed(upto, budget)
        if fault == "ends early":
            return members, islice(rows, upto)
        return members, ((x + (n == 7),) for n, (x,) in enumerate(rows))

    monkeypatch.setitem(SEQUENCES["v"], "closed", faulty)
    code = main(["seq", "v", "--upto", "12", "--route", "all", "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 1
    assert len(out.splitlines()) == 1 + (12 if fault == "ends early" else 13)
    assert err == f"error: check agree:v:brute=closed failed at n={at}\n"
    code, out = run(capsys, "seq", "v", "--upto", "12", "--route", "all", "--format", "json")
    assert [(c["name"], c["passed"], c["first_failure"]) for c in json.loads(out)["checks"]] == [
        ("agree:v:brute=closed", False, at), ("agree:v:brute=recurrence", True, None)]


def test_a_refused_system_prints_nothing(capsys, monkeypatch):
    # an unknown member and a same-step cycle are refused before the header
    monkeypatch.setitem(SEQUENCES["w"], "recurrence", _system_column("walk_system", "nope"))
    with pytest.raises(ValueError, match="no member 'nope'"):
        main(["seq", "w", "--upto", "5"])
    assert capsys.readouterr().out == ""
    cycle = recurrences.CoupledSystemSpec("cycle", {"x": {"y": (1,)}, "y": {"x": (1,)}},
                                          {"x": (1,), "y": (1,)})
    monkeypatch.setattr(recurrences, "cycle_spec", lambda: cycle, raising=False)
    monkeypatch.setitem(SEQUENCES["w"], "recurrence", _system_column("cycle_spec", "x"))
    assert main(["seq", "w", "--upto", "5", "--route", "all"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at the same step" in err


V_UPTO_8 = ["1", "2", "5", "10", "20", "38", "71", "130", "235"]


@pytest.mark.parametrize("upto", [0, 8])
def test_seq_json_is_the_run_report(capsys, upto):
    argv = ["seq", "v", "--upto", str(upto), "--route", "all", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["command"] == argv
    assert [c["name"] for c in payload["checks"]] == [
        "agree:v:brute=closed", "agree:v:brute=recurrence"]
    assert all(c["passed"] is True for c in payload["checks"])
    assert sorted(payload["timings"]) == ["v:brute", "v:closed", "v:recurrence"]
    assert payload["name"] == "v"
    assert payload["columns"] == dict.fromkeys(
        ["brute", "closed", "recurrence"], V_UPTO_8[:upto + 1])


def test_seq_w_by_line(capsys):
    code, out = run(capsys, "seq", "w-by-line", "--upto", "2", "--route", "all",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,brute:r,brute:r1,brute:r2,recurrence:r,recurrence:r1,recurrence:r2"
    assert lines[3] == "2,7,14,28,7,14,28"


# The system column of every sequence: its spec and the members it prints.
SYSTEM_COLUMNS = {
    "v": (recurrences.v_theorem_spec, ("v",)),
    "w": (recurrences.walk_system, ("r2",)),
    "w-domino": (recurrences.domino_only_recurrence, ("w-domino",)),
    "r": (recurrences.tiling_system, ("r",)),
    "a": (recurrences.tiling_system, ("a",)),
    "c": (recurrences.tiling_system, ("c",)),
    "d": (recurrences.tiling_system, ("d",)),
    "r1": (recurrences.walk_system, ("r1",)),
    "fib": (recurrences.fibonacci_spec, ("fib",)),
    "w-by-line": (recurrences.walk_system, ("r", "r1", "r2")),
}


def _is_system_column(route):
    """A system column is one exact base-10 run: its values are Decimals."""
    return route is not None and all(isinstance(v, decimal.Decimal)
                                     for row in route(3, walks.DEFAULT_BUDGET)[1] for v in row)


def test_every_system_column_is_covered():
    assert set(SYSTEM_COLUMNS) == {name for name, routes in SEQUENCES.items()
                                   if _is_system_column(routes.get("recurrence"))}


def test_seq_runs_each_system_column_once(capsys, monkeypatch):
    # the printed table and the agreement checks read one run of the steps
    runs, tables = [], []
    columns, eval_system = recurrences._columns, recurrences.eval_system
    monkeypatch.setattr(recurrences, "_columns", lambda spec, *args:
                        runs.append(spec.name) or columns(spec, *args))
    monkeypatch.setattr(recurrences, "eval_system",
                        lambda *args: tables.append(args) or eval_system(*args))
    code, out = run(capsys, "seq", "w-by-line", "--upto", "50", "--route", "recurrence")
    assert code == 0
    assert len(out.splitlines()) == 52
    assert runs == ["walk"]
    assert tables == []


def _int_columns(name, upto):
    """str() of the int tables of eval_system, keyed as seq prints them."""
    system, members = SYSTEM_COLUMNS[name]
    tables = recurrences.eval_system(system(), upto, members)
    return {"recurrence" if len(members) == 1 else f"recurrence:{m}":
            [str(v) for v in tables[m].values] for m in members}


def _table_lines(columns, fmt):
    """The csv, text or bfile lines of `columns`, built a row at a time."""
    keys = sorted(columns)
    if fmt == "bfile":
        lines = ["# b-file output uses the first route only"] if len(keys) > 1 else []
        return lines + [f"{n} {v}" for n, v in enumerate(columns[keys[0]])]
    sep = "," if fmt == "csv" else "\t"
    lines = [sep.join(["n"] + keys)]
    return lines + [sep.join((str(n), *row)) for n, row in enumerate(zip(*map(columns.get, keys)))]


@pytest.mark.parametrize("fmt", ["csv", "text", "bfile", "json"])
@pytest.mark.parametrize("name", SYSTEM_COLUMNS)
def test_system_columns_print_the_int_tables(capsys, name, fmt):
    # seq prints a system column from a base-10 run; it must read exactly
    # as str() of the int table, w(600) having 300 digits
    columns = _int_columns(name, 600)
    code, out = run(capsys, "seq", name, "--upto", "600", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["columns"] == columns
        return
    assert out == "".join(line + "\n" for line in _table_lines(columns, fmt))


class _CountingStdout(io.StringIO):
    """A stdout that counts the calls to its write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "text", "bfile"])
def test_seq_writes_a_long_table_in_blocks(monkeypatch, fmt):
    # w to 2000 is about 1 MB of text in 2,001 rows; a print per line made
    # 4,004 writes, blocks of about 64 KiB make 16
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["seq", "w", "--upto", "2000", "--route", "recurrence", "--format", fmt]) == 0
    text = out.getvalue()
    assert text == "".join(line + "\n" for line in _table_lines(_int_columns("w", 2000), fmt))
    assert out.writes <= len(text.encode()) / 2**16 + 3


@pytest.fixture
def int_max_str_digits_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit the interpreter accepts
    yield
    sys.set_int_max_str_digits(before)


def test_seq_stops_where_str_of_the_int_fails(capsys, int_max_str_digits_640):
    # The rows before the first value that str(int) refuses print, then the
    # interpreter's own ValueError ends the run. Lifting the limit for output
    # (ROADMAP item 6) changes this test on purpose.
    values = recurrences.eval_system(recurrences.walk_system(), 1300, ("r2",))["r2"].values
    rows = ["n,recurrence"]
    for n, value in enumerate(values):
        try:
            rows.append(f"{n},{value}")
        except ValueError as exc:
            refused, message = n, str(exc)
            break
    assert 1000 < refused < 1300
    with pytest.raises(ValueError) as raised:
        main(["seq", "w", "--upto", "1300", "--route", "recurrence", "--format", "csv"])
    assert str(raised.value) == message
    assert "Exceeds the limit (640 digits)" in message
    assert capsys.readouterr().out == "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("fmt", ["text", "bfile"])
def test_seq_writes_every_row_before_the_one_str_refuses(capsys, int_max_str_digits_640, fmt):
    # the refused row ends about 400 KB of text, several blocks: the pending
    # block reaches stdout, in full, before the interpreter's own ValueError
    texts = []
    for value in recurrences.eval_system(recurrences.walk_system(), 1300, ("r2",))["r2"].values:
        try:
            texts.append(str(value))
        except ValueError as exc:
            message = str(exc)
            break
    assert 1000 < len(texts) < 1300
    with pytest.raises(ValueError) as raised:
        main(["seq", "w", "--upto", "1300", "--route", "recurrence", "--format", fmt])
    assert str(raised.value) == message
    out = capsys.readouterr().out
    assert len(out) > 4 * 2**16
    assert out == "".join(line + "\n" for line in _table_lines({"recurrence": texts}, fmt))


def test_seq_restores_the_decimal_context_where_str_of_the_int_fails(
        capsys, int_max_str_digits_640):
    # the ValueError's traceback holds the open stream, whose exact context
    # is set only while it makes a row
    before = decimal.getcontext()
    with pytest.raises(ValueError, match="Exceeds the limit"):
        main(["seq", "w", "--upto", "1300", "--route", "recurrence", "--format", "csv"])
    assert decimal.getcontext() is before and before.prec == 28


def test_seq_restores_the_decimal_context_after_a_closed_pipe(monkeypatch):
    before = decimal.getcontext()
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["seq", "w", "--upto", "1300"]) == 141
    assert decimal.getcontext() is before


@pytest.mark.parametrize("name", [name for name, routes in SEQUENCES.items()
                                  if "recurrence" in routes])
def test_seq_keeps_one_row_at_a_time(monkeypatch, name):
    # traced peak of the w table to 4000 (values to about 2,000 digits):
    # 2.1 MiB when the whole column was held, about 0.07 MiB with a write
    # per row, about 0.25 MiB with blocks of 64 KiB; the v table, about
    # 0.9 MiB held
    argv = ["seq", name, "--upto", "4000", "--route", "recurrence", "--format", "csv"]
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        assert main(argv[:3] + ["10"] + argv[4:]) == 0  # the loop compiles outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_busted_budget_names_a_long_count_by_its_power_of_ten(capsys, int_max_str_digits_640):
    # r(1300) has 660 digits, more than str(int) takes under this limit
    total = boards.count_tilings(boards.Board(2, 1300))
    code = main("seq w --upto 1300 --route brute --budget 10".split())
    err = capsys.readouterr().err
    k = int(err.partition("more than 10^")[2].split()[0])
    assert 10**k < total <= 10**(k + 1)
    assert err == f"error: 2x1300 board has more than 10^{k} tilings, budget 10\n"
    assert code == 2


def test_refusing_a_long_board_answers_at_once(capsys):
    code = main("seq w --upto 20000 --route brute --budget 10".split())
    assert capsys.readouterr().err == (
        "error: 2x20000 board has more than 10^10141 tilings, budget 10\n")
    assert code == 2


@pytest.mark.parametrize("suite", ["theorems", "lemmas", "elimination",
                                   "closed-forms", "oeis"])
def test_verify_suites_pass(capsys, suite):
    code, out = run(capsys, "verify", suite)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert all(c["passed"] for c in payload["checks"])


def test_verify_all_check_names_are_unique(capsys):
    code, out = run(capsys, "verify", "all")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0
    assert len(set(names)) == len(names) >= 58


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(capsys, "render", "2x3", "0", "--out", str(out1))[0] == 0
    assert run(capsys, "render", "2x3", "0", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"<svg" in out1.read_bytes()


# sha256 of `render ARGS`: the 2x8 rows taken before the walk budget was
# added, the others before the red edges were drawn from the column masks.
# 1x6 tiling 1 has one horizontal domino; 2x6 dominoes-only tiling 3 has
# both horizontal and vertical ones.
RENDER_SHA256 = {
    "2x8 0": "7548f943b23b151f53879297b2bb2861915e0f1c871c86f20ea31fb206a02b71",
    "2x8 1234": "61a7d3e118f452f3e083a6b768359b0ae98011ca0552f39a694dc2aaed2cf4df",
    "2x8 7572": "647be51f893cdf56d032d72586c2d2948ec13513e16643cf0e769e65750e6ff7",
    "1x6 1": "bc185004243947293f75baa15ecc30009e73fc97ed51c7895afe030ce5ab495e",
    "2x6 3 --dominoes-only": "91b66a6512b23c7c3bb50e60444935820270a7ff8282888c1c446a9ee9ea8a25",
}


@pytest.mark.parametrize("args", RENDER_SHA256, ids=lambda args: "-".join(args.replace("--", "").split()))
def test_render_bytes_are_pinned(tmp_path, capsys, args):
    out = tmp_path / "x.svg"
    assert run(capsys, "render", *args.split(), "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENDER_SHA256[args]


def test_render_refuses_more_walks_than_its_budget(tmp_path, capsys, monkeypatch):
    # tiling 0 of 2x8 is all squares: C(10, 2) = 45 walks
    out = tmp_path / "x.svg"
    monkeypatch.setattr(walks, "DEFAULT_BUDGET", 45)
    assert run(capsys, "render", "2x8", "0", "--out", str(out))[0] == 0
    out.unlink()
    monkeypatch.setattr(walks, "DEFAULT_BUDGET", 44)
    monkeypatch.setattr(walks, "enumerate_walks", lambda tiling: pytest.fail("enumerated"))
    assert main(["render", "2x8", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: tiling 0 of the 2x8 board has 45 walks, budget 44\n"
    assert not out.exists()


def test_render_index_out_of_range(tmp_path, capsys):
    code, _ = run(capsys, "render", "2x3", "22", "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_render_unranks_an_index_past_sys_maxsize(tmp_path, capsys):
    out = tmp_path / "x.svg"
    assert run(capsys, "render", "2x40", "99999999999999999999", "--out", str(out))[0] == 0
    svg = out.read_text()
    assert "<title>2x40 board, tiling 99999999999999999999</title>" in svg
    assert svg.endswith("</svg>\n")


def test_render_degenerate_board(tmp_path, capsys):
    out = tmp_path / "empty.svg"
    code, _ = run(capsys, "render", "2x0", "0", "--out", str(out))
    assert code == 0
    assert out.exists()


BAD_INPUT = [
    ("render 3x2 0", "expected ROWSxCOLS"),
    ("render 2x 0", "expected ROWSxCOLS"),
    ("render 1x3 0 --dominoes-only", "1x3 has no dominoes-only tilings"),
    # past the count, checked before any enumeration
    ("render 2x30 99999999999999999999", "outside 0..1084493574452272"),
    ("render 2x20 999999999999", "outside 0..9211624462"),
    ("render 2x8 -1", "tiling index -1 outside 0..7572"),
    # C(5002, 2) walks on the all-squares tiling, over the default budget
    ("render 2x5000 0", "tiling 0 of the 2x5000 board has 12507501 walks, budget 10000000"),
    ("seq w --upto -3", "--upto: expected an integer >= 0"),
    ("bench", "invalid choice: 'bench'"),
    ("seq w --budget -5", "--budget: expected an integer >= 0"),
    ("seq nope", "unknown sequence"),
    ("seq w-by-line --route closed", "(available: brute, recurrence)"),
    ("render 2x3 0 --out {tmp}/missing/x.svg", "cannot write"),
    ("render 2x3 0 --out {tmp}", "cannot write"),
]


@pytest.mark.parametrize("command, message", BAD_INPUT, ids=[c for c, _ in BAD_INPUT])
def test_bad_input_exits_2_with_one_line(tmp_path, command, message):
    argv = command.format(tmp=tmp_path).split()
    if argv[0] == "render" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "x.svg")]
    src = str(Path(tilewalks.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "tilewalks.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # w to 3000 is about 2 MB of text, far more than a pipe buffers, so the
    # run is still writing when the reader goes, as under `| head -1`
    src = str(Path(tilewalks.__file__).resolve().parents[1])
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tilewalks.cli", "seq", "w", "--upto", "3000"],
            stdout=subprocess.PIPE, stderr=err, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"n\trecurrence\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        stderr = err.read()
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def test_cli_import_loads_no_network_client():
    code = "import sys, tilewalks.cli; print('requests' in sys.modules)"
    src = str(Path(tilewalks.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_compiles_no_fan():
    code = ("import tilewalks.cli; tilewalks.cli.build_parser(); import tilewalks.walks; "
            "print(tilewalks.walks._column_fan.cache_info().currsize)")
    src = str(Path(tilewalks.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "0"


# What a command may not load: a module it does not run costs every fresh
# process its import.
NOT_LOADED_BY_SEQ = ["tilewalks.closedforms", "tilewalks.qsqrt5", "tilewalks.elimination",
                     "tilewalks.oeis", "tilewalks.render", "tilewalks.boards", "tilewalks.walks",
                     "tilewalks.polynomials", "fractions", "dataclasses", "inspect"]
NOT_LOADED_BY_PARSER = NOT_LOADED_BY_SEQ + ["tilewalks.recurrences", "json", "decimal"]


def _fresh(*args):
    """A fresh interpreter run with `args`, importing the package from its source."""
    src = str(Path(tilewalks.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("code, not_loaded, loaded", [
    ("cli.build_parser()", NOT_LOADED_BY_PARSER, ["tilewalks.errors"]),
    ("cli.main(['seq', 'w', '--upto', '10'])", NOT_LOADED_BY_SEQ, ["tilewalks.recurrences"]),
    ("import os; cli.main(['render', '2x6', '3', '--dominoes-only', '--out', os.devnull])",
     ["tilewalks.recurrences", "tilewalks.polynomials", "decimal"],
     ["tilewalks.render", "tilewalks.walks", "tilewalks.boards"]),
    ("cli.main(['seq', 'v', '--upto', '10', '--route', 'closed'])",
     ["tilewalks.recurrences", "tilewalks.polynomials"],
     ["tilewalks.closedforms", "tilewalks.qsqrt5"]),
], ids=["build_parser", "seq", "render", "seq-closed"])
def test_a_command_imports_only_what_it_runs(code, not_loaded, loaded):
    names = not_loaded + loaded
    proc = _fresh("-c", f"import sys, tilewalks.cli as cli; {code}; "
                        f"print([m for m in {names!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


@pytest.mark.parametrize("argv", [["seq", "v", "--route", "all"], ["verify", "all"],
                                  ["render", "2x8", "17", "--out", "{svg}"]],
                         ids=["seq", "verify", "render"])
def test_each_subcommand_runs_in_a_fresh_interpreter(tmp_path, capsys, argv):
    # in one test process an earlier test has imported every module, which
    # would hide an import that a command is missing
    fresh, here = tmp_path / "fresh.svg", tmp_path / "here.svg"
    proc = _fresh("-m", "tilewalks.cli", *(a.format(svg=fresh) for a in argv))
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out = run(capsys, *(a.format(svg=here) for a in argv))
    assert code == 0
    if argv[0] == "seq":
        assert proc.stdout == out
    if argv[0] == "render":
        assert fresh.read_bytes() == here.read_bytes()


def test_seq_json_lets_each_row_go_once_its_strings_exist(monkeypatch):
    # traced peak with stdout to a buffer: 14.92 MiB while the drained
    # route's rows were held next to their strings, 12.76 MiB before the
    # route was drained, about 12.2 MiB with each row let go of once read
    argv = ["seq", "w", "--upto", "4000", "--route", "recurrence", "--format", "json"]
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv[:3] + ["10"] + argv[4:]) == 0  # the loop compiles outside the trace
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.8 * 2**20


def _off_by_one(form, at):
    """The pair form `form`, form(n, f0, f1), one too large at n = at."""
    return lambda n, *pair: form(n, *pair) + (n == at)


# verify maps the pair forms over closedforms._fib_pairs, as the closed routes do
@pytest.mark.parametrize("suite, form, at, check", [
    ("closed-forms", "_explicit_form", 7, "domino-explicit-vs-recurrence"),
    ("closed-forms", "_ceiling_form", 50, "domino-ceiling-vs-recurrence"),
    ("theorems", "_v_form", 100, "v-fibonacci-closed-form"),
])
def test_verify_reports_the_first_failing_n(capsys, monkeypatch, suite, form, at, check):
    monkeypatch.setattr(closedforms, form, _off_by_one(getattr(closedforms, form), at))
    assert main(["verify", suite]) == 1
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert [(c["name"], c["first_failure"]) for c in failed] == [(check, at)]


def _lemmas_checks(capsys):
    code = main(["verify", "lemmas"])
    return code, json.loads(capsys.readouterr().out)["checks"]


def test_verify_lemmas_enumerates_no_tiling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify lemmas enumerated tilings")

    monkeypatch.setattr(boards, "_unranker", refuse)
    monkeypatch.setattr(boards, "enumerate_tilings", refuse)
    code, checks = _lemmas_checks(capsys)
    assert code == 0 and all(c["passed"] for c in checks)
    names = [c["name"] for c in checks]
    assert len(set(names)) == len(names) == 27
    assert names[:17] == [f"domino-count-histogram-n{n}" for n in range(17)]


def test_verify_lemmas_fails_without_horizontal_dominoes(capsys, monkeypatch):
    fills = boards._column_fills

    def no_hdomino(*args):
        return tuple(f for f in fills(*args)
                     if all(kind != boards.TileKind.HDOMINO for kind, _ in f[0]))

    monkeypatch.setattr(boards, "_column_fills", no_hdomino)
    code, checks = _lemmas_checks(capsys)
    failed = [c for c in checks if not c["passed"]]
    assert code == 1
    # 1x2 has one tiling with a domino, so its list of counts ends one entry early
    assert (failed[0]["name"], failed[0]["first_failure"]) == ("domino-count-histogram-n2", 1)
    assert {c["name"] for c in failed} == {f"domino-count-histogram-n{n}" for n in range(2, 17)}


# Per subcommand: argv that exits 0, argv that exits 1 once the closed form
# of v is off by one at n = 2 (None where no check of the command can
# fail), and argv with bad input, which exits 2.
EXIT_CODES = {
    "seq": ("seq v --upto 3 --route all", "seq v --upto 3 --route all",
            "seq nope"),
    "verify": ("verify theorems", "verify theorems", "verify nope"),
    "render": ("render 2x3 0 --out {svg}", None, "render 2x3 22 --out {svg}"),
}


def test_exit_codes_cover_every_subcommand():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(EXIT_CODES)


@pytest.mark.parametrize("cmd", EXIT_CODES)
def test_exit_code_contract(tmp_path, capsys, monkeypatch, cmd):
    passing, failing, bad = EXIT_CODES[cmd]

    def exit_code(command):
        return main(command.format(svg=tmp_path / "x.svg").split())

    assert exit_code(passing) == 0
    assert exit_code(bad) == 2
    if failing is not None:
        # the closed route of seq v and the closed column of verify theorems read it
        monkeypatch.setattr(closedforms, "_v_form", _off_by_one(closedforms._v_form, 2))
        assert exit_code(failing) == 1


# main builds the parser on its first call and reuses it, so nothing that a
# call parses, refuses or prints may carry over into the next call.
GOOD_CALL = "seq w --upto 8 --route all --format csv"


def test_calls_of_main_build_one_parser_tree(capsys, monkeypatch):
    imported = _fresh("-c", "import tilewalks.cli as cli; print(cli._parser)")
    assert imported.stdout == "None\n"  # importing cli builds nothing
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    build_parser()
    tree = len(built)  # the parser and one for each subcommand
    assert tree == 1 + len(EXIT_CODES)
    built.clear()
    monkeypatch.setattr(cli, "_parser", None)  # as in a fresh process
    for command in [GOOD_CALL, "seq w --bogus", "--help", "verify lemmas", GOOD_CALL] * 3:
        main(command.split())
    capsys.readouterr()
    assert len(built) == tree


@pytest.mark.parametrize("before, code", [
    ("seq w --bogus", 2),
    ("--help", 0),
    ("seq w --upto 3 --route brute --budget 0", 2),  # refused: 22 tilings of 2x3
], ids=["bad-option", "help", "refused"])
def test_a_call_after_a_failed_one_prints_what_it_prints_alone(capsys, before, code):
    alone = _fresh("-m", "tilewalks.cli", *GOOD_CALL.split())
    assert main(before.split()) == code
    capsys.readouterr()
    after = main(GOOD_CALL.split())
    assert (capsys.readouterr(), after) == ((alone.stdout, alone.stderr), alone.returncode)
    assert alone.returncode == 0 and len(alone.stdout.splitlines()) == 10


def test_main_runs_the_command_bound_at_call_time(capsys, monkeypatch):
    # the benchmark's tracer rebinds cmd_* after earlier calls have built the parser
    assert main(["seq", "fib", "--upto", "0"]) == 0
    capsys.readouterr()

    def stub(args, report):
        report.checks.append(CheckResult(f"stub:{args.suite}", True))

    monkeypatch.setattr(cli, "cmd_verify", stub)
    assert main(["verify", "lemmas"]) == 0
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == ["stub:lemmas"]
