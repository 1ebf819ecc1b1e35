"""Acceptance suite: every top-level claim, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and asserts the exact equality it states.
"""

from math import comb

from tilewalks.boards import Board, enumerate_tilings
from tilewalks.closedforms import (
    v_fibonacci_form,
    w_domino_ceiling,
    w_domino_even_form,
    w_domino_explicit,
    w_domino_fibonacci_form,
    w_domino_odd_form,
)
from tilewalks.elimination import (
    build_matrix_m,
    charpoly_factorization_check,
    composed_form_check,
    kernel,
    verify_la_lb_combination,
)
from tilewalks.oeis import find_offset_shift, load_fixture
from tilewalks.recurrences import (
    domino_only_recurrence,
    domino_only_system,
    eval_recurrence,
    eval_system,
    fibonacci_spec,
    tiling_system,
    v_fourth_order_spec,
    v_inhomogeneous_system,
    v_theorem_spec,
    w_ninth_order_spec,
    walk_system,
)
from tilewalks.walks import brute_line_totals, brute_v


def _report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_01_table1_reproduction():
    t = eval_system(tiling_system(), 6)
    ok = (
        t["r"].values == (1, 2, 7, 22, 71, 228, 733)
        and t["a"].values == (0, 0, 1, 3, 10, 32, 103)
        and t["c"].values == (0, 1, 3, 10, 32, 103, 331)
        and t["d"].values == (0, 0, 1, 2, 7, 22, 71)
    )
    _report(1, ok)


def test_criterion_02_table2_reproduction():
    t = eval_system(walk_system(), 2)
    expected = {
        "r2": (1, 5, 28), "r1": (1, 3, 14),
        "a2": (0, 0, 2), "a1": (0, 0, 2),
        "c2": (0, 2, 11), "c1": (0, 1, 5),
        "d2": (0, 0, 2), "d1": (0, 0, 1),
        "r": (1, 2, 7),
    }
    ok = all(t[name].values == vals for name, vals in expected.items())
    _report(2, ok)


def test_criterion_03_oracle_equivalence_2xn():
    system = eval_system(walk_system(), 13)["r2"]
    ninth = eval_system(w_ninth_order_spec(), 13)["w"]
    brute = tuple(t[2] for t in brute_line_totals(2, 13))
    ok = brute == system.values == ninth.values
    _report(3, ok)


def test_criterion_04_oracle_equivalence_1xn():
    oracle = [brute_v(n) for n in range(21)]
    routes = [
        list(eval_recurrence(v_theorem_spec(), 20).values),
        list(eval_system(v_fourth_order_spec(), 20)["v"].values),
        list(eval_system(v_inhomogeneous_system(), 20, ("v",))["v"].values),
    ]
    closed = [v_fibonacci_form(n) for n in range(21)]
    ok = all(route == oracle for route in routes) and closed == oracle
    _report(4, ok)


def test_criterion_05_theorem2_initial_values():
    t = eval_system(walk_system(), 8)["r2"]
    ok = t.values == (1, 5, 28, 130, 569, 2352, 9363, 36183, 136663)
    _report(5, ok)


def test_criterion_06_composed_form_and_negative_control():
    w = eval_system(w_ninth_order_spec(), 50)["w"]
    ok = composed_form_check(w, 50).passed
    perturbed = list(w.values)
    perturbed[25] += 1
    ok = ok and not composed_form_check(perturbed, 50).passed
    _report(6, ok)


def test_criterion_07_domino_only_four_routes():
    system = eval_system(domino_only_system(), 50)["r2"]
    rec = eval_system(domino_only_recurrence(), 50)["w-domino"]
    ok = all(
        system[n] == rec[n] == w_domino_fibonacci_form(n) == w_domino_explicit(n)
        for n in range(51)
    )
    ok = ok and all(
        w_domino_even_form(k) == rec[2 * k] and w_domino_odd_form(k) == rec[2 * k + 1]
        for k in range(25)
    )
    brute = brute_line_totals(2, 20, squares_allowed=False)
    ok = ok and all(brute[n][2] == rec[n] for n in range(21))
    _report(7, ok)


def test_criterion_08_ceiling_formula():
    ok = all(
        w_domino_ceiling(n) == w_domino_fibonacci_form(n) for n in range(51)
    )
    _report(8, ok)


def test_criterion_09_elimination_kernel_and_relation():
    basis = kernel(build_matrix_m())
    ok = basis == [(1, -5, 7, -3, -4, 2, 1, -3, 5, -2, -1)]
    ok = ok and all(c.passed for c in verify_la_lb_combination(30))
    _report(9, ok)


def test_criterion_10_characteristic_polynomials():
    ok = all(c.passed for c in charpoly_factorization_check())
    _report(10, ok)


def test_criterion_11_lemmas():
    ok = True
    for n in range(17):
        hist = {}
        for t in enumerate_tilings(Board(1, n)):
            k = len(t.dominoes())
            hist[k] = hist.get(k, 0) + 1
        ok = ok and all(hist.get(k, 0) == comb(n - k, k) for k in range(n // 2 + 1))
    t = eval_system(tiling_system(), 31)
    c, r = t["c"], t["r"]
    ok = ok and all(r[n] == c[n + 1] - c[n] for n in range(30))
    ok = ok and all(
        c[n] == 3 * c[n - 1] + c[n - 2] - c[n - 3] for n in range(3, 31)
    )
    _report(11, ok)


def test_criterion_12_corollary1_coefficient_solve():
    from fractions import Fraction as F

    v = [brute_v(n) for n in range(9)]

    def solve(rows, rhs):
        # Gauss-Jordan; returns solution or None if inconsistent
        m = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
        cols = len(rows[0])
        piv = 0
        for col in range(cols):
            pr = next((i for i in range(piv, len(m)) if m[i][col] != 0), None)
            if pr is None:
                continue
            m[piv], m[pr] = m[pr], m[piv]
            m[piv] = [x / m[piv][col] for x in m[piv]]
            for i in range(len(m)):
                if i != piv and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
            piv += 1
        for row in m[piv:]:
            if row[-1] != 0:
                return None
        return [m[i][-1] for i in range(cols)]

    four = solve(
        [[v[n - 1], v[n - 2], v[n - 3], v[n - 4]] for n in range(4, 9)],
        [v[n] for n in range(4, 9)],
    )
    three = solve(
        [[v[n - 1], v[n - 2], v[n - 3]] for n in range(3, 7)],
        [v[n] for n in range(3, 7)],
    )
    ok = four == [2, 1, -2, -1] and three is None
    _report(12, ok)


def test_criterion_13_oeis_fixture_matches():
    cases = [
        (list(eval_recurrence(v_theorem_spec(), 40).values), "A001629", 2),
        (list(eval_system(tiling_system(), 40)["r"].values), "A030186", 0),
        (list(eval_system(domino_only_recurrence(), 40)["w-domino"].values), "A054454", 0),
        (list(eval_system(fibonacci_spec(), 44)["fib"].values), "A000045", 0),
    ]
    ok = True
    for values, seq_id, expected_shift in cases:
        match = find_offset_shift(values, load_fixture(seq_id))
        ok = ok and match.matched >= 20
        ok = ok and match.offset_shift == expected_shift
    _report(13, ok)
