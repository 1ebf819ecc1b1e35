"""The names and parameters that the benchmark tracer looks up in the package.

`perfbench/tracer.py` wraps these by name and reads these parameters in its
work counters, so a rename would otherwise show only in a traced benchmark
run.
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
