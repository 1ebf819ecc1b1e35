import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import ceil

import pytest

from tilewalks import cli, closedforms
from tilewalks.closedforms import (
    EXPLICIT_A,
    EXPLICIT_B,
    EXPLICIT_C,
    EXPLICIT_D,
    EXPLICIT_E,
    EXPLICIT_F,
    binet_identity_check,
    fib,
    v_fibonacci_form,
    w_domino_ceiling,
    w_domino_even_form,
    w_domino_explicit,
    w_domino_fibonacci_form,
    w_domino_odd_form,
)
from tilewalks.errors import NonIntegralStep, RadicalResidue
from tilewalks.qsqrt5 import QSqrt5
from tilewalks.recurrences import domino_only_recurrence, eval_system
from tilewalks.walks import brute_line_totals, brute_v


def test_v_fibonacci_form_examples():
    assert v_fibonacci_form(0) == 1
    assert v_fibonacci_form(3) == 10


def test_v_fibonacci_form_matches_oracle():
    for n in range(21):
        assert v_fibonacci_form(n) == brute_v(n)


def test_divisibility_by_five_holds_far_out():
    for n in range(501):
        assert (2 * (n + 2) * fib(n + 1) + (n + 1) * fib(n + 2)) % 5 == 0


def test_w_domino_fibonacci_form_initial():
    assert [w_domino_fibonacci_form(n) for n in range(6)] == [1, 2, 6, 12, 26, 50]


def test_split_forms_agree_with_general():
    for k in range(26):
        assert w_domino_even_form(k) == w_domino_fibonacci_form(2 * k)
        assert w_domino_odd_form(k) == w_domino_fibonacci_form(2 * k + 1)


def test_explicit_coeffs_values():
    assert EXPLICIT_A == Fraction(1, 2) and EXPLICIT_B == Fraction(1, 2)
    assert EXPLICIT_C == QSqrt5(0, Fraction(3, 25))
    assert EXPLICIT_D == QSqrt5(Fraction(2, 5), Fraction(1, 5))
    assert EXPLICIT_E == -EXPLICIT_C
    assert EXPLICIT_F == QSqrt5(Fraction(2, 5), Fraction(-1, 5))


@pytest.mark.parametrize("name", [f"EXPLICIT_{k}" for k in "ABCDEF"])
@pytest.mark.parametrize("shift", [QSqrt5(Fraction(1, 25)), QSqrt5(0, Fraction(1, 25))],
                         ids=["1/25", "sqrt5/25"])
def test_each_explicit_constant_matters(monkeypatch, name, shift):
    # negative control: a shifted constant must raise or miss the recurrence
    monkeypatch.setattr(closedforms, name, getattr(closedforms, name) + shift)
    rec = eval_system(domino_only_recurrence(), 50)["w-domino"].values
    try:
        terms = tuple(w_domino_explicit(n) for n in range(51))
    except (NonIntegralStep, RadicalResidue):
        return
    assert terms != rec


def test_explicit_form_examples():
    assert w_domino_explicit(0) == 1
    assert w_domino_explicit(5) == 50


def test_four_routes_agree():
    rec = eval_system(domino_only_recurrence(), 50)["w-domino"].values
    for n in range(51):
        assert w_domino_fibonacci_form(n) == rec[n]
        assert w_domino_explicit(n) == rec[n]
        assert w_domino_ceiling(n) == rec[n]


def test_routes_match_oracle():
    brute = brute_line_totals(2, 12, squares_allowed=False)
    for n in range(13):
        assert w_domino_fibonacci_form(n) == brute[n][2]


def test_ceiling_examples():
    assert w_domino_ceiling(0) == 1
    assert w_domino_ceiling(4) == 26


def test_ceiling_terminates_for_large_n():
    for n in [159, 200, 2000, 10**4, *range(0, 10**4, 97)]:
        assert w_domino_ceiling(n) == w_domino_fibonacci_form(n), n


def test_binet_identities():
    report = binet_identity_check(100)
    assert report.passed


def test_binet_identities_check_the_powers_built_from_fibonacci_numbers(monkeypatch):
    # negative control: alpha^7 and beta^7 built swapped, each still a unit
    # of the ring with the right trace, fail the comparison with the steps
    powers = closedforms._powers
    monkeypatch.setattr(closedforms, "_powers",
                        lambda n: powers(n)[::-1] if n == 7 else powers(n))
    assert binet_identity_check(6).passed
    assert not binet_identity_check(100).passed


def test_fib_fast_doubling_matches_iteration():
    a, b = 0, 1
    for n in range(2001):
        assert fib(n) == a, n
        assert closedforms._fib_pair(n) == (a, b), n
        a, b = b, a + b
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_cassini_identity_at_large_n():
    for n in range(10**5, 10**5 + 4):
        assert fib(n - 1) * fib(n + 1) - fib(n) ** 2 == (-1) ** n


def test_binet_sample_values():
    # F(10) = 55 and 2F(11) - F(10) = 123 (a Lucas number)
    assert fib(10) == 55
    assert 2 * fib(11) - fib(10) == 123


# _fib_pairs: one fast doubling per block of closedforms._BLOCK terms, and
# every term of the block from its base by the addition law.
FIB_PAIR = closedforms._fib_pair
PAIR_STARTS = (0, 1, 63, 64, 65)
PAIR_SPANS = [(s, e) for s in PAIR_STARTS for e in (s, s + 1, 64, 65, 127, 128, 129, 300)]


def pairs_agree(start, stop):
    return list(closedforms._fib_pairs(start, stop)) == [FIB_PAIR(n) for n in range(start, stop)]


def closed_rows(name, route, upto=2000):
    """The exit code and the value rows of `seq name --route route` as csv."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["seq", name, "--upto", str(upto), "--route", route, "--format", "csv"])
    return code, out.getvalue().splitlines()[1:]


def closed_agrees(name):
    return closed_rows(name, "closed") == closed_rows(name, "recurrence")


@pytest.mark.parametrize("start,stop", PAIR_SPANS)
def test_fib_pairs_equal_fresh_fast_doublings(start, stop):
    assert pairs_agree(start, stop)


@pytest.mark.parametrize("name", ["fib", "v", "w-domino"])
def test_closed_routes_equal_the_recurrence_to_2000(name):
    code, rows = closed_rows(name, "closed")
    assert code == 0 and len(rows) == 2001
    assert (code, rows) == closed_rows(name, "recurrence")


def shifted_base(monkeypatch):
    closedforms._small_pairs()  # the small table from the true pairs
    monkeypatch.setattr(closedforms, "_fib_pair", lambda m: FIB_PAIR(m + 1))


def shifted_table(monkeypatch):
    table = tuple(map(FIB_PAIR, range(1, closedforms._BLOCK + 2)))
    monkeypatch.setattr(closedforms, "_small_pairs", lambda: table)


@pytest.mark.parametrize("mutate", [shifted_base, shifted_table])
def test_an_off_by_one_block_fails_both_checks(monkeypatch, mutate):
    # negative control: a block base F(m+1) in place of F(m), or a small table
    # read one term on, must show in the pairs and in every closed column
    mutate(monkeypatch)
    assert not all(pairs_agree(s, e) for s, e in PAIR_SPANS)
    assert not any(map(closed_agrees, ["fib", "v", "w-domino"]))


def test_a_closed_column_makes_one_fast_doubling_per_block(monkeypatch):
    calls = []
    monkeypatch.setattr(closedforms, "_fib_pair", lambda n: calls.append(n) or FIB_PAIR(n))
    closedforms._small_pairs.cache_clear()
    code, rows = closed_rows("v", "closed")
    assert code == 0 and len(rows) == 2001
    assert len(calls) <= ceil(2001 / 64) + 65  # 2001 with one fast doubling per term
