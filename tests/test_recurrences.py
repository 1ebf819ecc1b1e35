import ast
import decimal
import hashlib
import inspect
import re
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from tilewalks.closedforms import v_fibonacci_form, w_domino_fibonacci_form
from tilewalks.elimination import composed_form_check

from tilewalks.errors import NonIntegralStep, UnstratifiableSystem, _check
from tilewalks import recurrences
from tilewalks.recurrences import (
    IDENTITIES,
    CoupledSystemSpec,
    agreement_check,
    decimal_columns,
    domino_only_recurrence,
    domino_only_system,
    eval_recurrence,
    eval_system,
    fibonacci_spec,
    relation_check,
    theorem_step_check,
    tiling_system,
    v_fourth_order_spec,
    v_inhomogeneous_system,
    v_theorem_spec,
    verify_intermediate_identities,
    w_ninth_order_spec,
    walk_system,
)
from tilewalks.walks import brute_line_totals, brute_v


def test_fibonacci_table():
    assert eval_system(fibonacci_spec(), 10)["fib"].values == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_theorem_spec_first_values():
    assert eval_recurrence(v_theorem_spec(), 4).values == (1, 2, 5, 10, 20)


def test_non_integral_step_raises():
    # n*x(n) = x(n-1) is not integral from x=(1,1) at n=2
    bad = CoupledSystemSpec("bad", {"x": {"x": (0, 1)}}, {"x": (1, 1)}, leads={"x": (0, 1)})
    for run in (eval_system, eval_recurrence):
        with pytest.raises(NonIntegralStep, match="'x' is not an integer at n = 2"):
            run(bad, 5)
    rows = decimal_columns(bad, 5, ("x",))
    assert [next(rows), next(rows)] == [(1,), (1,)]
    with pytest.raises(NonIntegralStep, match="'x' is not an integer at n = 2"):
        next(rows)


def test_a_zero_lead_raises_non_integral_step():
    # (n - 3)*x(n) = x(n-1) from x=(1,1): x(2) = -1, and the lead is 0 at n=3
    zero = CoupledSystemSpec("z", {"x": {"x": (0, 1)}}, {"x": (1, 1)}, leads={"x": (-3, 1)})
    with pytest.raises(NonIntegralStep, match="'x' has a zero lead at n = 3"):
        eval_system(zero, 5)
    rows = decimal_columns(zero, 5, ("x",))
    assert [next(rows) for _ in range(3)] == [(1,), (1,), (-1,)]
    with pytest.raises(NonIntegralStep, match="'x' has a zero lead at n = 3"):
        next(rows)


def test_recurrences_match_fibonacci_forms_at_large_n():
    n = 10**4
    assert eval_recurrence(v_theorem_spec(), n)[n] == v_fibonacci_form(n)
    assert eval_system(domino_only_recurrence(), n)["w-domino"][n] == w_domino_fibonacci_form(n)


# every system spec that the module builds from no arguments
SYSTEM_SPECS = [
    fn for name, fn in vars(recurrences).items()
    if inspect.isfunction(fn) and fn.__module__ == recurrences.__name__
    and not name.startswith("_") and not inspect.signature(fn).parameters
    and isinstance(fn(), CoupledSystemSpec)
]


def test_theorem_divisibility():
    # the theorem's step applied to the 4th-order table, which no division builds
    v = eval_system(v_fourth_order_spec(), 200)["v"].values
    for n in range(2, 201):
        assert divmod((n + 1) * v[n - 1] + (n + 2) * v[n - 2], n) == (v[n], 0)
    assert theorem_step_check(v, 200).passed


def test_theorem_step_negative_control():
    v = list(eval_system(v_fourth_order_spec(), 200)["v"].values)
    v[50] += 1
    check = theorem_step_check(v, 200)
    assert not check.passed
    assert check.first_failure == 50


def test_theorem_row_with_a_polynomial_bumped_fails():
    # negative control for polynomial coefficients: the theorem's row moved
    # to one side, n v(n) - (n+1) v(n-1) - (n+2) v(n-2), holds on the
    # 4th-order table, and fails at its first n once one polynomial changes
    v = eval_system(v_fourth_order_spec(), 200)["v"]
    row = ((0, 1), (-1, -1), (-2, -1))
    assert relation_check("theorem", 2, 200, 0, {"v": row}, {"v": v}).passed
    for bumped in (((1, 1), *row[1:]), (*row[:2], (-3, -1))):
        check = relation_check("bumped", 2, 200, 0, {"v": bumped}, {"v": v})
        assert (check.passed, check.first_failure) == (False, 2), bumped


def test_tiling_system_reproduces_table():
    t = eval_system(tiling_system(), 6)
    assert t["r"].values == (1, 2, 7, 22, 71, 228, 733)
    assert t["a"].values == (0, 0, 1, 3, 10, 32, 103)
    assert t["c"].values == (0, 1, 3, 10, 32, 103, 331)
    assert t["d"].values == (0, 0, 1, 2, 7, 22, 71)


def test_walk_system_reproduces_table():
    t = eval_system(walk_system(), 2)
    expected = {
        "r2": (1, 5, 28),
        "r1": (1, 3, 14),
        "a2": (0, 0, 2),
        "a1": (0, 0, 2),
        "c2": (0, 2, 11),
        "c1": (0, 1, 5),
        "d2": (0, 0, 2),
        "d1": (0, 0, 1),
    }
    for name, values in expected.items():
        assert t[name].values == values, name


def test_domino_only_system_values():
    t = eval_system(domino_only_system(), 5)
    assert t["r2"].values == (1, 2, 6, 12, 26, 50)


def test_unstratifiable_system_detected():
    spec = CoupledSystemSpec(
        "cyclic",
        {"x": {"y": (1,)}, "y": {"x": (1,)}},
        {"x": (1,), "y": (1,)},
    )
    with pytest.raises(UnstratifiableSystem):
        eval_system(spec, 3)


def test_shift_past_index_zero_detected():
    # x(n) = x(n-3) from two initial values would read x[-1] at n = 2
    spec = CoupledSystemSpec("wrapped", {"x": {"x": (0, 0, 0, 1)}}, {"x": (1, 2)})
    with pytest.raises(ValueError, match="before index 0"):
        eval_system(spec, 5)
    spec = CoupledSystemSpec("reaches-0", {"x": {"x": (0, 0, 1)}}, {"x": (1, 2)})
    assert eval_system(spec, 5)["x"].values == (1, 2, 1, 2, 1, 2)


def test_every_system_spec_is_covered():
    assert {fn.__name__ for fn in SYSTEM_SPECS} >= {
        "fibonacci_spec", "tiling_system", "walk_system", "domino_only_system",
        "v_fourth_order_spec", "v_inhomogeneous_system", "w_ninth_order_spec",
        "domino_only_recurrence"}


@pytest.mark.parametrize("factory", SYSTEM_SPECS, ids=lambda fn: fn.__name__)
def test_member_subsets_match_the_full_run(factory):
    # Every member is computed whatever `members` is, and each keeps only
    # its last depth + 1 values, so a read past the depth raises: the empty
    # subset returns no table but still makes every read, and the singletons
    # and their complements compare every returned table with the full run.
    spec = factory()
    full = eval_system(spec, 300)
    names = list(spec.equations)
    subsets = [(), *((s,) for s in names), *(tuple(t for t in names if t != s) for s in names)]
    for members in subsets:
        assert eval_system(spec, 300, members) == {s: full[s] for s in members}, members


@pytest.mark.parametrize("factory", SYSTEM_SPECS, ids=lambda fn: fn.__name__)
def test_base10_run_equals_the_int_tables(factory):
    # the subsets of test_member_subsets_match_the_full_run, each run once
    spec = factory()
    full = eval_system(spec, 300)
    names = list(spec.equations)
    subsets = [(), *((s,) for s in names), *(tuple(t for t in names if t != s) for s in names)]
    for members in subsets:
        rows = list(decimal_columns(spec, 300, members))
        assert len(rows) == 301 and all(len(row) == len(members) for row in rows)
        for s, column in zip(members, zip(*rows)):
            assert all(isinstance(v, decimal.Decimal) for v in column)
            assert [int(v) for v in column] == list(full[s].values)
            # an exact integer prints as its digits: no exponent, no trailing ".0"
            assert [str(v) for v in column] == [str(v) for v in full[s].values]


def _plain_columns(spec, upto):
    """Every member's whole list to index `upto` straight from the rows,
    lead(n) member(n) = sum of c(n) * table[t][n - k]: the reference for the
    compiled steps, with no history window and no generated source."""
    def at(c, n):  # an int, or a polynomial in n as its ascending coefficients
        return sum(a * n**j for j, a in enumerate(c)) if isinstance(c, tuple) else c

    tables = {s: list(spec.initial[s][:upto + 1]) for s in spec.equations}
    for n in range(len(spec.initial[next(iter(spec.equations))]), upto + 1):
        for s, row in spec.equations.items():
            total = sum(at(c, n) * tables[t][n - k] for t, coeffs in row.items()
                        for k, c in enumerate(coeffs) if c)
            value, rem = divmod(total, at(spec.leads.get(s, 1), n))
            if rem:
                raise NonIntegralStep(f"{s} at n = {n}")
            tables[s].append(value)
    return tables


def _bumped(coeffs, k):
    """Copies of `coeffs` with its k-th coefficient changed by 1: an int
    once, a polynomial in each of its coefficients."""
    c = coeffs[k]
    if not isinstance(c, tuple):
        return [coeffs[:k] + (c + 1,) + coeffs[k + 1:]]
    return [coeffs[:k] + (c[:j] + (c[j] + 1,) + c[j + 1:],) + coeffs[k + 1:]
            for j in range(len(c))]


def _mutants(spec):
    """The copies of `spec` with one coefficient of a row or of a lead
    changed by 1, each beside where it was changed."""
    order = list(spec.equations)
    for s, row in spec.equations.items():
        for t, coeffs in row.items():
            for k in range(len(coeffs)):
                if k == 0 and order.index(t) >= order.index(s):
                    continue  # a same-step reference to itself or a later member
                for bumped in _bumped(coeffs, k):
                    yield (s, t, k, bumped), spec._replace(
                        equations={**spec.equations, s: {**row, t: bumped}})
    for s, lead in spec.leads.items():
        for [bumped] in _bumped((lead,), 0):
            yield (s, "lead", bumped), spec._replace(leads={**spec.leads, s: bumped})


@pytest.mark.parametrize("factory", SYSTEM_SPECS, ids=lambda fn: fn.__name__)
def test_compiled_steps_match_the_plain_evaluator(factory):
    spec = factory()
    reference = _plain_columns(spec, 300)
    assert {s: list(t.values) for s, t in eval_system(spec, 300).items()} == reference
    columns = zip(spec.equations, zip(*decimal_columns(spec, 300, None)))
    assert {s: [str(v) for v in column] for s, column in columns
            } == {s: [str(v) for v in column] for s, column in reference.items()}
    # negative control: a copy with any one coefficient changed by 1, of a
    # row or of a lead, stops at a step that is not an integer or disagrees
    # by n = 30
    for where, mutant in _mutants(spec):
        try:
            tables = eval_system(mutant, 30)
        except NonIntegralStep:
            continue
        assert {m: list(table.values) for m, table in tables.items()
                } != {m: table[:31] for m, table in reference.items()}, where


def test_the_theorem_mutants_bump_its_polynomials_and_its_lead():
    # the v theorem's reference above is its table, which is also the
    # 4th-order recurrence's (test_three_v_routes_agree)
    assert [where for where, _ in _mutants(v_theorem_spec())] == [
        ("v", "v", 1, (0, (2, 1), (2, 1))), ("v", "v", 1, (0, (1, 2), (2, 1))),
        ("v", "v", 2, (0, (1, 1), (3, 1))), ("v", "v", 2, (0, (1, 1), (2, 2))),
        ("v", "lead", (1, 1)), ("v", "lead", (0, 2))]


# sha256 of the loop source each constant-coefficient spec compiles, every
# member kept: a pin on the compiled source, so that any change to it is
# deliberate and re-pins it here
CONSTANT_SOURCES = {
    "domino_only_recurrence": "947c8619f0c298ab",
    "domino_only_system": "e5cbf772202f7f92",
    "fibonacci_spec": "77adc84384b19b29",
    "tiling_system": "2b1179d85b7addd6",
    "v_fourth_order_spec": "005a1d13076a1dd3",
    "v_inhomogeneous_system": "ce86e9fcc61596e6",
    "w_ninth_order_spec": "fec0226ae0a6a9d6",
    "walk_system": "b0a1549ede3efff7",
}


def _loop_source(monkeypatch, spec, members=None):
    """The loop source that `eval_system(spec, 12, members)` compiles."""
    sources = []
    compile_loop = recurrences._compile_loop
    monkeypatch.setattr(recurrences, "_compile_loop",
                        lambda source: sources.append(source) or compile_loop(source))
    eval_system(spec, 12, members)
    [source] = sources
    return source


@pytest.mark.parametrize("factory", CONSTANT_SOURCES)
def test_constant_coefficient_sources_are_unchanged(monkeypatch, factory):
    source = _loop_source(monkeypatch, getattr(recurrences, factory)())
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == CONSTANT_SOURCES[factory]


def test_walk_step_source_assigns_each_member_once(monkeypatch):
    spec = walk_system()
    source = _loop_source(monkeypatch, spec, ("r2",))
    assert "1 *" not in source
    [loop] = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
    # per step, each member and each shared sum (the locals past the
    # members) is assigned once, and its history is rotated by at most one
    # more assignment
    targets = [[name.id for name in ast.walk(node.targets[0]) if isinstance(name, ast.Name)]
               for node in loop.body if isinstance(node, ast.Assign)]
    values = sorted(int(names[0][1:-2]) for names in targets if names[0].endswith("_0"))
    assert len(values) > len(spec.equations) and values == list(range(len(values)))
    locals_ = [names[0].split("_")[0] for names in targets]
    assert all(locals_.count(m) <= 2 for m in locals_)


def _binary_operations(source, *kinds):
    return sum(isinstance(node, ast.BinOp) and isinstance(node.op, kinds)
               for node in ast.walk(ast.parse(source)))


def test_shared_sums_and_grouped_coefficients_cut_the_step_arithmetic(monkeypatch):
    # 27 additions per walk_system step and 5 multiplications per
    # domino_only_recurrence step when every row summed its own terms
    walk = _loop_source(monkeypatch, walk_system())
    assert _binary_operations(walk, ast.Add, ast.Sub) <= 20
    domino = _loop_source(monkeypatch, domino_only_recurrence())
    assert _binary_operations(domino, ast.Mult) <= 2
    assert " = s0_6 + 2 * (s0_1 + s0_2 - s0_4 + s0_5) - 4 * s0_3\n" in domino


@pytest.mark.parametrize("term", [0, 1])
def test_a_shared_sum_that_drops_a_term_fails(monkeypatch, term):
    # negative control: each shared sum of walk_system in turn reads only
    # one of its two terms, and the tables differ from the plain evaluator's
    spec, compile_loop = walk_system(), recurrences._compile_loop
    reference = _plain_columns(spec, 40)
    source = _loop_source(monkeypatch, spec)
    shared = [int(i) for i in re.findall(r"\n +s(\d+)_0 = ", source)
              if int(i) >= len(spec.equations)]
    assert shared
    for i in shared:
        def dropping(source):
            dropped = re.sub(rf"(s{i}_0 = )(\w+) \+ (\w+)", rf"\g<1>\g<{2 + term}>", source)
            assert dropped != source
            return compile_loop(dropped)

        monkeypatch.setattr(recurrences, "_compile_loop", dropping)
        tables = eval_system(spec, 40)
        assert {s: list(t.values) for s, t in tables.items()} != reference, i


def test_a_plan_is_built_once_per_spec_structure():
    recurrences._plan.cache_clear()
    for upto in (0, 1, 12, 300):  # a new spec object each time, one structure
        eval_system(walk_system(), upto)
    eval_system(walk_system(), 12, ("r2",))  # another set of kept members
    assert recurrences._plan.cache_info().misses == 2
    # and each copy with one coefficient or lead changed has its own
    for spec in (domino_only_system(), v_theorem_spec()):
        recurrences._plan.cache_clear()
        mutants = [mutant for _, mutant in _mutants(spec)]
        for mutant in mutants:
            try:
                eval_system(mutant, 30)
            except NonIntegralStep:
                pass
        assert recurrences._plan.cache_info().misses == len(mutants) > 4


@st.composite
def constant_systems(draw):
    """A stratified system of 1 to 4 members, each row reading every member
    at shifts 1 to 3 and each earlier member at shift 0, with coefficients
    -3..3, from 3 initial values each."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coefficient = st.integers(-3, 3)
    equations = {s: {t: (draw(coefficient) if j < i else 0,
                         *draw(st.lists(coefficient, min_size=3, max_size=3)))
                     for j, t in enumerate(names)} for i, s in enumerate(names)}
    initial = {s: tuple(draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)))
               for s in names}
    return CoupledSystemSpec("random", equations, initial)


@settings(max_examples=60, deadline=None)
@given(constant_systems())
def test_random_constant_systems_match_the_plain_evaluator(spec):
    reference = _plain_columns(spec, 40)
    assert {s: list(t.values) for s, t in eval_system(spec, 40).items()} == reference
    columns = zip(spec.equations, zip(*decimal_columns(spec, 40, None)))
    assert {s: [int(v) for v in column] for s, column in columns} == reference


def _caller_context():
    ctx = decimal.getcontext()
    return ctx, (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps), dict(ctx.flags))


def test_base10_run_leaves_the_callers_context_alone(monkeypatch):
    ctx, before = _caller_context()
    # values of about 1,250 digits, past the caller's 28, once the rows end
    *_, (last,) = decimal_columns(walk_system(), 2500, ("r2",))
    assert len(str(last)) > 1000
    assert _caller_context() == (ctx, before)
    # and between rows: the exact context is set only while a row is made,
    # so streams read side by side, or left open, keep the caller's
    rows = decimal_columns(walk_system(), 2500, ("r2",))
    assert [len(str(v)) for v, in islice(rows, 3)] == [1, 1, 2]
    assert _caller_context() == (ctx, before)
    for (r2,), (fib,) in zip(rows, decimal_columns(fibonacci_spec(), 10, ("fib",))):
        assert _caller_context() == (ctx, before)
    assert (r2, fib) == (84397519, 55)  # r2(13) and fib(10): rows is left open
    with decimal.localcontext():  # the caller's own arithmetic rounds, as it may
        assert str(decimal.Decimal(1) / 3) == "0." + "3" * 28
    # and when the run raises mid-way, here at fib's first value past 28 digits
    short = recurrences.EXACT.copy()
    short.prec = 28
    monkeypatch.setattr(recurrences, "EXACT", short)
    with pytest.raises(decimal.Inexact):
        list(decimal_columns(fibonacci_spec(), 600, ("fib",)))
    assert _caller_context() == (ctx, before)
    assert +decimal.Decimal(10**40 + 1) == decimal.Decimal("1.000000000000000000000000000E+40")


def test_base10_run_in_a_28_digit_context_stops_at_the_first_rounding(monkeypatch):
    # negative control: the same runs in a copy of the exact context cut to
    # the default 28 digits
    short = recurrences.EXACT.copy()
    short.prec = 28
    monkeypatch.setattr(recurrences, "EXACT", short)
    # a fib step's sum is its value, so the run holds every value of at most
    # 28 digits and stops, inexact, at the first longer one
    fib = eval_system(fibonacci_spec(), 600)["fib"].values
    last = max(n for n, v in enumerate(fib) if len(str(v)) <= 28)
    assert [v for v, in decimal_columns(fibonacci_spec(), last, ("fib",))] == list(fib[:last + 1])
    with pytest.raises(decimal.Inexact):
        list(decimal_columns(fibonacci_spec(), last + 1, ("fib",)))
    # w's partial sums pass 28 digits first, and one of them rounds away a
    # trailing zero: exact, but it would print with an exponent
    with pytest.raises(decimal.Rounded):
        list(decimal_columns(w_ninth_order_spec(), 600, ("w",)))


def test_unknown_member_detected():
    with pytest.raises(ValueError, match="no member 'w'"):
        eval_system(walk_system(), 5, ("r2", "w"))


def test_members_with_different_numbers_of_initial_values_detected():
    spec = CoupledSystemSpec("ragged", {"x": {"x": (0, 1)}, "y": {"x": (0, 1)}},
                             {"x": (1, 2), "y": (1,)})
    with pytest.raises(ValueError, match="'ragged': its members have different numbers"):
        eval_system(spec, 5)


def test_a_system_step_compiles_once():
    spec = CoupledSystemSpec("once", {"x": {"x": (0, 3, 0, 5)}}, {"x": (1, 2, 4)})
    recurrences._compile_loop.cache_clear()
    # below the first computed index the initial values are the table
    assert eval_system(spec, 1)["x"].values == (1, 2)
    assert recurrences._compile_loop.cache_info().misses == 0
    assert eval_system(spec, 5) == eval_system(spec, 5)
    assert eval_system(spec, 5)["x"].values == (1, 2, 4, 17, 61, 203)
    assert recurrences._compile_loop.cache_info().misses == 1


def test_one_member_peak_memory_is_a_fraction_of_all():
    def peak(members):
        tracemalloc.start()
        try:
            eval_system(walk_system(), 1000, members)  # measured ratio 6.9
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(("r2",)) < peak(None) / 4


def _v_tables(upto):
    """v by the theorem, the 4th-order recurrence and the inhomogeneous system."""
    return [eval_recurrence(v_theorem_spec(), upto).values,
            eval_system(v_fourth_order_spec(), upto)["v"].values,
            eval_system(v_inhomogeneous_system(), upto, ("v",))["v"].values]


def test_three_v_routes_agree():
    tables = _v_tables(200)
    assert tables[0] == tables[1] == tables[2]
    assert tables[0][:4] == (1, 2, 5, 10)


def test_v_routes_match_oracle():
    oracle = tuple(brute_v(n) for n in range(21))
    for table in _v_tables(20):
        assert table == oracle


def test_agreement_check_reports_the_first_difference():
    assert agreement_check("same", (1, 2, 3), [1, 2, 3], (1, 2, 3)).passed
    assert agreement_check("empty", (), []).passed
    assert agreement_check("differs", (1, 2, 3, 4), (1, 2, 0, 0)).first_failure == 2
    assert agreement_check("third", (1, 2, 3), (1, 2, 3), (1, 0, 3)).first_failure == 1
    # a table that ends early differs where it ends, whichever argument it is
    assert agreement_check("short", (1, 2), (1, 2, 3)).first_failure == 2
    assert agreement_check("short", (1, 2, 3), (1, 2)).first_failure == 2


# The per-n range checks that agreement_check and relation_check replaced,
# kept as the model of what the column checks return or raise.
def _model_agreement_check(name, *tables):
    def agree(n):
        return all(n < len(t) and t[n] == tables[0][n] for t in tables)

    return _check(name, 0, max(len(t) for t in tables) - 1, agree)


def _model_relation_check(name, first, upto, lead, ops, tables):
    terms = [(j, k, a, tables[s]) for s, coeffs in ops.items() for k, c in enumerate(coeffs)
             for j, a in enumerate(c if isinstance(c, tuple) else (c,)) if a]
    reach = max((k for _, k, _, _ in terms), default=0)
    if first + lead < reach:
        raise ValueError(f"{name}: a shift of {reach} at n = {first + lead} reads before index 0")
    return _check(name, first, upto, lambda n: sum(
        a * (n + lead)**j * seq[n + lead - k] for j, k, a, seq in terms) == 0)


def _outcome(check, *args):
    """The check's result, or the type and text of what it raised."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _mutated(draw, table):
    """`table` as it is, with one entry changed (the last as often as any
    other), with its last entry dropped, or with one entry more."""
    kind = draw(st.sampled_from(["same", "perturb", "short", "long"] if table else ["same", "long"]))
    table = list(table)
    if kind == "perturb":
        i = draw(st.one_of(st.just(len(table) - 1), st.integers(0, len(table) - 1)))
        table[i] += draw(st.sampled_from([-1, 1, 7]))
    elif kind == "short":
        table.pop()
    elif kind == "long":
        table.append(draw(st.integers(-5, 5)))
    return table


@st.composite
def agreement_cases(draw):
    base = draw(st.lists(st.integers(-5, 5), max_size=12))
    tables = [base] * draw(st.integers(1, 3))
    i = draw(st.integers(0, len(tables) - 1))
    tables[i] = draw(_mutated(base))
    return [tuple(t) if j % 2 else t for j, t in enumerate(tables)]


@st.composite
def relation_cases(draw):
    """A row sum_s P_s(x) s = 0, x's P starting with 1, on an x table that
    satisfies it for n = first..upto from random y values and random x
    values before it, unless its shifts read before index 0; then one or
    both of the tables mutated."""
    first, lead = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    upto = draw(st.integers(first - 1, first + 12))
    coefficient = st.one_of(st.integers(-3, 3), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    ops = {"x": (1, *draw(st.lists(coefficient, max_size=3))),
           "y": tuple(draw(st.lists(coefficient, max_size=4)))}
    lo, hi = first + lead, upto + lead + 1
    values = st.lists(st.integers(-50, 50), min_size=max(lo, hi), max_size=max(lo, hi))
    tables = {"x": draw(values), "y": draw(values)}
    if all(k <= lo for c in ops.values() for k in range(len(c))):
        for m in range(lo, hi):  # x(m) = -(the rest of the row at m)
            tables["x"][m] = -sum(a * m**j * tables[s][m - k] for s, coeffs in ops.items()
                                  for k, c in enumerate(coeffs) if (s, k) != ("x", 0)
                                  for j, a in enumerate(c if isinstance(c, tuple) else (c,)))
    for s in draw(st.sampled_from(["x", "y", "xy"])):  # a change in one, or in both
        tables[s] = draw(_mutated(tables[s]))
    tables["x"] = recurrences.SequenceTable(tables["x"])
    return "row", first, upto, lead, ops, tables


def _agreement_as_modelled(tables):
    return _outcome(agreement_check, "t", *tables) == _outcome(_model_agreement_check, "t", *tables)


def _relation_as_modelled(case):
    return _outcome(relation_check, *case) == _outcome(_model_relation_check, *case)


# Tables that differ at their last entry only, tried before any random case.
@example([(1, 2, 3), [1, 2, 4]])
@settings(max_examples=200, deadline=None)
@given(agreement_cases())
def test_agreement_check_matches_the_per_n_model(tables):
    assert _agreement_as_modelled(tables)


@example(("row", 1, 3, 0, {"x": (1, -1)}, {"x": (1, 1, 1, 2)}))  # fails at the last n only
@settings(max_examples=200, deadline=None)
@given(relation_cases())
def test_relation_check_matches_the_per_n_model(case):
    assert _relation_as_modelled(case)


def _lengths_only(monkeypatch):  # the fast path of agreement_check compares lengths only
    monkeypatch.setattr(recurrences, "eq", lambda a, b: True)


def _last_skipped(monkeypatch):  # both fast paths leave the last entry out
    monkeypatch.setattr(recurrences, "map", lambda f, *its: map(f, *(list(i)[:-1] for i in its)),
                        raising=False)


@pytest.mark.parametrize("mutant, test", [
    (_lengths_only, test_agreement_check_matches_the_per_n_model),
    (_last_skipped, test_agreement_check_matches_the_per_n_model),
    (_last_skipped, test_relation_check_matches_the_per_n_model),
], ids=["agreement-lengths-only", "agreement-last-skipped", "relation-last-skipped"])
def test_a_fast_path_that_misses_an_entry_fails_the_model(monkeypatch, mutant, test):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        test()


def test_ninth_order_initial_values():
    w = eval_system(w_ninth_order_spec(), 8)["w"]
    assert w.values == (1, 5, 28, 130, 569, 2352, 9363, 36183, 136663)


def test_ninth_order_matches_system():
    w = eval_system(w_ninth_order_spec(), 50)["w"]
    r2 = eval_system(walk_system(), 50)["r2"]
    assert w.values == r2.values


def test_w_matches_oracle_small():
    r2 = eval_system(walk_system(), 8)["r2"]
    brute = brute_line_totals(2, 8)
    for n in range(9):
        assert brute[n][2] == r2[n]


def test_composed_form():
    w = eval_system(w_ninth_order_spec(), 20)["w"]
    assert composed_form_check(w, 20).passed
    assert composed_form_check(w, 8).passed  # no admissible index yet, vacuous
    assert composed_form_check(w, 20).name == "w-composed-form"


def test_composed_form_negative_control():
    w = list(eval_system(w_ninth_order_spec(), 20)["w"].values)
    w[5] += 1
    check = composed_form_check(w, 20)
    assert not check.passed
    assert check.first_failure == 9  # the first n whose window reads w[5]


def test_domino_only_recurrence_extends():
    t = eval_system(domino_only_recurrence(), 6)["w-domino"]
    assert t.values == (1, 2, 6, 12, 26, 50, 97)


def test_domino_only_matches_oracle():
    t = eval_system(domino_only_recurrence(), 12)["w-domino"]
    brute = brute_line_totals(2, 12, squares_allowed=False)
    for n in range(13):
        assert brute[n][2] == t[n]


def test_intermediate_identities_all_pass():
    checks = verify_intermediate_identities(20)
    for check in checks:
        assert check.passed, f"{check.name} failed at {check.first_failure}"
    assert [c.name for c in checks] == [f"identity:{row[0]}" for row in IDENTITIES]


@pytest.mark.parametrize("row", IDENTITIES, ids=[row[0] for row in IDENTITIES])
def test_identity_perturbed_table_fails(row):
    # a change to any sequence the row names shows first where the lowest
    # shift of that sequence's operator reaches it
    name, first, lead, ops = row
    tables = eval_system(walk_system(), 31)
    for seq, coeffs in ops.items():
        bad = dict(tables)
        values = list(bad[seq].values)
        values[15] += 1
        bad[seq] = values
        check = relation_check(name, first, 30, lead, ops, bad)
        lowest = next(k for k, c in enumerate(coeffs) if c)
        assert not check.passed, seq
        assert check.first_failure == 15 - lead + lowest, seq


def test_lemma_examples_from_table():
    t = eval_system(tiling_system(), 6)
    c, r = t["c"], t["r"]
    assert c[3] - c[2] == 10 - 3 == r[2]
    assert c[3] == 3 * c[2] + c[1] - c[0] == 10
