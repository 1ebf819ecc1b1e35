"""The names and parameters that the benchmark looks up in the package.

`perfbench/tracer.py` wraps these by name and reads these parameters in its
work counters, `perfbench/workloads.py` calls the closed forms by name, and
the set-up time of `perfbench/run.py` calls `cli.build_parser`, so a rename
would otherwise show only in a benchmark run.
"""

import importlib
import inspect

import pytest

FUNCTIONS = [
    ("recurrences", "eval_system"),
    ("recurrences", "eval_recurrence"),
    ("walks", "brute_v"),
    ("walks", "brute_w_by_line"),
    ("boards", "enumerate_tilings"),
    ("boards", "enumerate_partial_tilings"),
    ("render", "svg_for_tiling"),
    ("boards", "count_tilings"),
    ("closedforms", "w_domino_ceiling"),
    ("closedforms", "w_domino_explicit"),
    # cli.main runs cmd_<command> by name, so the wrapped one is the one run
    ("cli", "cmd_seq"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_render"),
    ("cli", "build_parser"),
]
CLASSES = [
    ("boards", "Board"),
    ("elimination", "RatMatrix"),
    ("qsqrt5", "QSqrt5"),
    ("polynomials", "IntPoly"),
]
PARAMETERS = [
    ("walks", "brute_v", "n"),
    ("walks", "brute_w_by_line", "n"),
    ("walks", "brute_w_by_line", "squares_allowed"),
    ("render", "svg_for_tiling", "board"),
    ("render", "svg_for_tiling", "squares_allowed"),
    ("closedforms", "w_domino_ceiling", "n"),
    ("closedforms", "w_domino_explicit", "n"),
]


def _lookup(module, name):
    return getattr(importlib.import_module(f"tilewalks.{module}"), name)


@pytest.mark.parametrize("module,name", FUNCTIONS)
def test_traced_function_exists(module, name):
    fn = _lookup(module, name)
    # the tracer wraps public callables defined in their module, not generators
    assert callable(fn) and not inspect.isgeneratorfunction(fn)
    assert fn.__module__ == f"tilewalks.{module}"


@pytest.mark.parametrize("module,name", CLASSES)
def test_traced_class_exists(module, name):
    assert inspect.isclass(_lookup(module, name))


@pytest.mark.parametrize("module,name,parameter", PARAMETERS)
def test_hook_parameter_exists(module, name, parameter):
    assert parameter in inspect.signature(_lookup(module, name)).parameters


def test_sequence_routes_are_a_table_of_callables():
    routes = _lookup("cli", "SEQUENCES")
    assert routes
    assert all(callable(fn) for table in routes.values() for fn in table.values())


def test_hooked_results_have_the_shapes_the_hooks_read():
    # the hooks count len(result.values) of eval_recurrence, the .values of
    # every table in the dict that eval_system returns, and len(result) of
    # the tiling lists
    rec = importlib.import_module("tilewalks.recurrences")
    boards = importlib.import_module("tilewalks.boards")
    assert rec.eval_recurrence(rec.v_theorem_spec(), 4).values == (1, 2, 5, 10, 20)
    for spec, member, first in ((rec.tiling_system(), "r", (1, 2, 7, 22)),
                                (rec.fibonacci_spec(), "fib", (0, 1, 1, 2))):
        tables = rec.eval_system(spec, 3)
        assert isinstance(tables, dict)
        assert all(isinstance(t.values, tuple) and len(t.values) == 4 for t in tables.values())
        assert tables[member].values == first
    board = boards.Board(2, 3)
    assert len(boards.enumerate_tilings(board)) == 22
    assert len(boards.enumerate_partial_tilings(board, boards.PartialKind.C)) == 10


SYSTEM_FACTORIES = [
    "fibonacci_spec", "tiling_system", "walk_system", "domino_only_system",
    "v_fourth_order_spec", "v_inhomogeneous_system", "w_ninth_order_spec",
    "domino_only_recurrence",
]


@pytest.mark.parametrize("factory", SYSTEM_FACTORIES)
def test_eval_system_returns_every_member_by_default(factory):
    # the eval_system hook reads every returned table, so a call without
    # `members` must still return one table per equation
    rec = importlib.import_module("tilewalks.recurrences")
    spec = getattr(rec, factory)()
    assert list(rec.eval_system(spec, 5)) == list(spec.equations)


@pytest.mark.parametrize("factory", SYSTEM_FACTORIES)
def test_eval_system_tables_hold_ints(factory):
    # the eval_system hook reads abs(v).bit_length() of every value, which a
    # Decimal (of the base-10 run that seq prints from) does not have
    rec = importlib.import_module("tilewalks.recurrences")
    for table in rec.eval_system(getattr(rec, factory)(), 40).values():
        assert all(type(v) is int for v in table.values)


def test_eval_recurrence_table_holds_ints():
    # the eval_recurrence hook reads abs(v).bit_length() of every value, as
    # the eval_system hook does
    rec = importlib.import_module("tilewalks.recurrences")
    assert all(type(v) is int for v in rec.eval_recurrence(rec.v_theorem_spec(), 40).values)


def test_eval_recurrence_does_not_call_eval_system(monkeypatch):
    # both calls are hooked, so a table made through eval_system would count
    # its terms twice in a traced run
    rec = importlib.import_module("tilewalks.recurrences")

    def refuse(*args):
        raise AssertionError("eval_recurrence called eval_system")

    monkeypatch.setattr(rec, "eval_system", refuse)
    assert rec.eval_recurrence(rec.v_theorem_spec(), 6).values == (1, 2, 5, 10, 20, 38, 71)
