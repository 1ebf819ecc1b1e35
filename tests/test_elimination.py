from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tilewalks.elimination import (
    PRINTED_M,
    TEN_TERM_RELATION,
    RatMatrix,
    build_matrix_m,
    charpoly,
    charpoly_factorization_check,
    kernel,
    verify_la_lb_combination,
)
from tilewalks.polynomials import IntPoly, factored_str
from tilewalks.recurrences import (eval_system, fibonacci_spec, relation_check, w_ninth_order_spec,
                                   walk_system)

KERNEL_VECTOR = (1, -5, 7, -3, -4, 2, 1, -3, 5, -2, -1)


def test_matrix_matches_printed():
    m = build_matrix_m()
    assert m.rows == 12 and m.cols == 11
    assert tuple(tuple(int(x) for x in row) for row in m.entries) == PRINTED_M
    assert m.entries[0][0] == 1 and m.entries[0][6] == -1
    assert m.entries[11][10] == -2


def test_kernel_of_m():
    basis = kernel(build_matrix_m())
    assert basis == [KERNEL_VECTOR]
    assert all(x == 0 for x in build_matrix_m().mul_vector(basis[0]))


def test_kernel_trivial_cases():
    identity = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel(identity) == []
    zero = RatMatrix.from_rows([[0, 0], [0, 0]])
    assert kernel(zero) == [(1, 0), (0, 1)]


def test_matrix_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[1, Fraction(1, 2)]])


def test_kernel_is_deterministic():
    assert kernel(build_matrix_m()) == kernel(build_matrix_m())


def test_la_lb_combination():
    for check in verify_la_lb_combination(20):
        assert check.passed, f"{check.name} failed at {check.first_failure}"


def test_ten_term_relation_is_the_ninth_order_spec():
    row = w_ninth_order_spec().equations["w"]["w"]  # coefficients by shift, x^0 first
    assert row[0] == 0
    assert TEN_TERM_RELATION == (1, *(-c for c in row[1:]))


def test_la_lb_perturbed_table_fails():
    tables = dict(eval_system(walk_system(), 31))
    bad = list(tables["r2"].values)
    bad[15] += 1
    tables["r2"] = bad
    results = verify_la_lb_combination(30, tables=tables)
    failed = [c for c in results if not c.passed]
    assert failed
    assert all(c.first_failure is not None for c in failed)


@pytest.mark.parametrize("seq", ["r2", "c2"])
def test_relations_a_b_perturbed_table_fail(seq):
    # each relation names both r2 and c2, so a change to either shows
    tables = dict(eval_system(walk_system(), 31))
    bad = list(tables[seq].values)
    bad[15] += 1
    tables[seq] = bad
    results = {c.name: c for c in verify_la_lb_combination(30, tables=tables)}
    for name in ("elimination:relation-A", "elimination:relation-B"):
        assert not results[name].passed
        assert results[name].first_failure <= 15


def test_charpoly_factorizations():
    checks = {c.name: c for c in charpoly_factorization_check()}
    for check in checks.values():
        assert check.passed, f"{check.name}: {check.expected} != {check.actual}"
    v4 = checks["charpoly-v-4th"]  # the factored form against the polynomial
    assert (v4.expected, v4.actual) == ("(x^2-x-1)^2", "x^4-2x^3-x^2+2x+1")


def test_derivation_carries_both_sides():
    [derives] = [c for c in verify_la_lb_combination(20)
                 if c.name == "elimination:derives-w-9th"]
    assert derives.expected == derives.actual == TEN_TERM_RELATION


def test_charpoly_expansion_degree6():
    expanded = IntPoly([-1, 1]) * IntPoly([1, 1]) * IntPoly([-1, -1, 1]) ** 2
    assert expanded == IntPoly([-1, -2, 2, 4, -2, -2, 1])


def test_poly_as_shift_operator():
    # x^k reads seq[n - k]: F(n) - F(n-1) - F(n-2) is 0, and 2x reads 2 seq[n - 1]
    seq = [0, 1, 1, 2, 3, 5, 8]
    assert relation_check("fib", 2, 6, 0, {"s": (1, -1, -1)}, {"s": seq}).passed
    doubled = [None] + [2 * v for v in seq[:-1]]
    assert relation_check("2x", 1, 6, 0, {"s": (0, 2), "d": (-1,)},
                          {"s": seq, "d": doubled}).passed
    assert relation_check("2x", 1, 6, 0, {"s": (2,), "d": (-1,)},
                          {"s": seq, "d": doubled}).first_failure == 1


def test_poly_shift_below_its_degree_fails():
    with pytest.raises(ValueError, match="before index 0"):  # would read seq[-1]
        relation_check("1-x", 0, 1, 0, {"s": (1, -1)}, {"s": [5, 7]})
    # at n = 1 it reads 7 - 5 = 2
    assert relation_check("1-x", 1, 1, 0, {"s": (1, -1), "two": (-2,)},
                          {"s": [5, 7], "two": [1, 1]}).passed


def test_poly_is_not_iterable():
    p = IntPoly([1, 2])
    with pytest.raises(TypeError):
        list(p)
    with pytest.raises(TypeError):
        IntPoly(p)
    assert IntPoly(p.coeffs) == p
    assert (p + IntPoly([0, 0, 3])).coeffs == (1, 2, 3)
    assert (p - IntPoly([1, 2])).coeffs == ()


def test_poly_printing():
    cubic = IntPoly([1, -1, -3, 1])
    assert str(cubic) == "1-x-3x^2+x^3"
    assert cubic.descending() == "x^3-3x^2-x+1"
    assert str(IntPoly([])) == IntPoly([]).descending() == "0"
    assert factored_str([(IntPoly([1, 1]), 1), (cubic, 2)]) == "(x+1)(x^3-3x^2-x+1)^2"


def test_charpoly_of_recurrence():
    # the row fib(n) = fib(n-1) + fib(n-2)  ->  x^2 - x - 1
    assert charpoly(fibonacci_spec()) == IntPoly([-1, -1, 1])
    assert charpoly(fibonacci_spec()).descending() == "x^2-x-1"


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPoly)


@given(small_polys, small_polys.filter(bool))
def test_poly_mul_div_roundtrip(p, q):
    prod = p * q
    quot, rem = prod.divmod(q)
    assert quot == p
    assert not rem
