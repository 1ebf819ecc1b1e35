import operator
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from tilewalks.errors import RadicalResidue
from tilewalks.qsqrt5 import ALPHA, BETA, SQRT5, QSqrt5

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
elements = st.builds(QSqrt5, rationals, rationals)
nonzero = elements.filter(lambda x: x != 0)


def test_golden_ratio_relations():
    assert ALPHA * BETA == -1
    assert ALPHA + BETA == 1
    assert SQRT5 * SQRT5 == 5


@given(elements, elements, elements)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero)
def test_multiplicative_inverse(x):
    assert x * (QSqrt5(1) / x) == 1


def _at_most(t, b):
    """t <= b*sqrt(5), decided on squares alone, independently of QSqrt5."""
    if b >= 0:
        return t <= 0 or t * t <= 5 * b * b
    return t < 0 and t * t >= 5 * b * b


def _assert_brackets(a, b):
    """floor and ceil of a + b*sqrt(5) bracket it, by `_at_most` alone."""
    x = QSqrt5(a, b)
    f, c = x.floor(), x.ceil()
    assert _at_most(f - a, b) and not _at_most(f + 1 - a, b)  # f <= x < f + 1
    assert _at_most(a - c, -b) and not _at_most(a - c + 1, -b)  # c - 1 < x <= c


@given(rationals, rationals)
def test_floor_ceil_bracketing(a, b):
    _assert_brackets(a, b)


huge = st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**6))


@given(huge, huge)
def test_floor_ceil_bracketing_large_magnitude(a, b):
    _assert_brackets(a, b)


def test_floor_examples():
    assert SQRT5.floor() == 2
    assert SQRT5.ceil() == 3
    assert QSqrt5(0, Fraction(3, 25)).ceil() == 1
    assert QSqrt5(3).floor() == 3
    assert QSqrt5(-3, 0).ceil() == -3


def test_power_matches_repeated_multiplication():
    acc = QSqrt5(1)
    for k in range(8):
        assert ALPHA**k == acc
        acc = acc * ALPHA
    assert ALPHA**-1 == QSqrt5(1) / ALPHA


def test_rational_value_guard():
    with pytest.raises(RadicalResidue):
        SQRT5.rational_value()
    assert QSqrt5(Fraction(7, 2)).rational_value() == Fraction(7, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ALPHA / QSqrt5(0)


class _Pair:
    """a + b*sqrt(5) as two Fractions, the reference the integer triple is
    checked against. floor is decided by `_at_most` alone."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Pair(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _Pair(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        n = o.norm()
        return self * _Pair(o.a / n, -o.b / n)

    def __pow__(self, k):
        acc = _Pair(1, 0)
        for _ in range(abs(k)):
            acc = acc * self
        return acc if k >= 0 else _Pair(1, 0) / acc

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    def floor(self):
        m = int(self.a + self.b * Fraction(isqrt(5 * 10**20), 10**10)) - 2
        while _at_most(m + 1 - self.a, self.b):  # m + 1 <= value
            m += 1
        return m

    def ceil(self):
        return -(_Pair(0, 0) - self).floor()


def _canonical(x):
    return x.q > 0 and gcd(x.p, x.r, x.q) == 1


pairs = st.tuples(rationals, rationals)


# int operands, 0 and negatives among them, take the fast paths of +, * and ==
ints = st.integers(-3, 3) | st.integers(-10**20, 10**20)


@given(pairs, pairs, st.integers(-6, 6), ints)
def test_matches_the_fraction_pair_reference(xy, uv, k, m):
    x, y = QSqrt5(*xy), QSqrt5(*uv)
    rx, ry, rm = _Pair(*xy), _Pair(*uv), _Pair(m, 0)
    results = [(op(x, y), op(rx, ry))
               for op in (operator.add, operator.sub, operator.mul)]
    results += [(m + x, rm + rx), (x + m, rx + rm), (m * x, rm * rx), (x * m, rx * rm)]
    assert (x == m) == (m == x) == (rx.a == m and rx.b == 0)
    assert QSqrt5(m) == m != QSqrt5(m) + SQRT5 and QSqrt5(Fraction(2 * m + 1, 2)) != m
    if y != 0:
        results.append((x / y, rx / ry))
    if x != 0 or k >= 0:
        results.append((x**k, rx**k))
    for got, want in results:
        assert (got.a, got.b) == (want.a, want.b)
        assert _canonical(got)
    assert (x.floor(), x.ceil()) == (rx.floor(), rx.ceil())


def test_zero_is_one_triple():
    for zero in (QSqrt5(0), QSqrt5(Fraction(0, 7), 0), ALPHA - ALPHA, SQRT5 * 0,
                 -QSqrt5(0)):
        assert (zero.p, zero.r, zero.q) == (0, 0, 1)


@given(pairs, nonzero)
def test_equal_values_have_equal_triples(xy, y):
    x = QSqrt5(*xy)
    for same in (x * y / y, x + y - y, -(-x)):
        assert (same.p, same.r, same.q) == (x.p, x.r, x.q)
        assert hash(same) == hash(x)


def test_spellings_of_one_value_have_one_triple():
    x, y = QSqrt5(Fraction(2, 4), 3), QSqrt5(Fraction(1, 2), 3)
    assert (x.p, x.r, x.q) == (y.p, y.r, y.q) == (1, 6, 2)
    assert hash(x) == hash(y)
    assert ALPHA * ALPHA == ALPHA + 1 and hash(ALPHA * ALPHA) == hash(ALPHA + 1)
    assert QSqrt5(-2, -4) / -2 == QSqrt5(1, 2)
    assert {QSqrt5(3), QSqrt5(Fraction(7, 2))} == {3, Fraction(7, 2)}
    for one in (QSqrt5(True, False), QSqrt5(1), ALPHA ** 0):  # a bool reads as the int it equals
        assert (one.p, one.r, one.q) == (1, 0, 1)
        assert type(one.p) is type(one.r) is int


big = st.integers(-10**30, 10**30)


@given(big, big)
def test_int_and_fraction_arguments_give_one_triple(a, b):
    spellings = [QSqrt5(a, b), QSqrt5(Fraction(a), Fraction(b)), QSqrt5(a, Fraction(b)),
                 QSqrt5(Fraction(a), b)]
    for x in spellings:
        assert (x.p, x.r, x.q) == (a, b, 1)
        assert type(x.p) is type(x.r) is type(x.q) is int
    assert QSqrt5(a) == QSqrt5(Fraction(a)) == a


def test_repr_round_trips_and_values_are_immutable():
    x = QSqrt5(Fraction(-3, 4), Fraction(5, 6))
    assert eval(repr(x)) == x
    assert repr(x) == "QSqrt5(a=Fraction(-3, 4), b=Fraction(5, 6))"
    for y in (x, QSqrt5(2, 3), x ** 0):  # made through Fraction, from ints, and the shared one
        with pytest.raises(AttributeError):
            y.p = 1
