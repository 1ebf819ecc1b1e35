from fractions import Fraction

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


@given(elements, elements)
def test_conjugation_is_ring_homomorphism(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(elements, elements)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements)
def test_sign_consistency(x):
    s = x.sign()
    assert s in (-1, 0, 1)
    assert (s == 0) == (x == 0)
    assert (-x).sign() == -s


@given(elements)
def test_floor_ceil_bracketing(x):
    f, c = x.floor(), x.ceil()
    assert QSqrt5(f) <= x < QSqrt5(f + 1)
    assert QSqrt5(c - 1) < x <= QSqrt5(c)


def _at_most(t, b):
    """t <= b*sqrt(5), decided on squares alone, independently of QSqrt5."""
    if b >= 0:
        return t <= 0 or t * t <= 5 * b * b
    return t < 0 and t * t >= 5 * b * b


huge = st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**6))


@given(huge, huge)
def test_floor_ceil_bracketing_large_magnitude(a, b):
    x = QSqrt5(a, b)
    f, c = x.floor(), x.ceil()
    assert _at_most(f - a, b) and not _at_most(f + 1 - a, b)  # f <= x < f + 1
    assert _at_most(a - c, -b) and not _at_most(a - c + 1, -b)  # c - 1 < x <= c
    assert x.sign() == (0 if a == b == 0 else 1 if _at_most(-a, b) else -1)


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
