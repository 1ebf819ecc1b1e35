"""Fibonacci and Q(sqrt5) closed forms for the tiling-walking sequences."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegralStep
from .qsqrt5 import ALPHA, BETA, SQRT5, QSqrt5
from .recurrences import _check


def fib(n):
    """F(n), n >= 0, by fast doubling: (a, b) = (F(k), F(k+1)) for k the bits of n
    read so far, using F(2k) = F(k)(2F(k+1) - F(k)), F(2k+1) = F(k)^2 + F(k+1)^2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def _exact_div(num, d, what):
    q, rem = divmod(num, d)
    if rem:
        raise NonIntegralStep(f"{what}: {num} not divisible by {d}")
    return q


def v_fibonacci_form(n):
    """5 v(n) = 2(n+2) F(n+1) + (n+1) F(n+2), solved for v(n)."""
    return _exact_div(2 * (n + 2) * fib(n + 1) + (n + 1) * fib(n + 2), 5, "v closed form")


def w_domino_fibonacci_form(n):
    """Dominoes-only walk total as a rational combination of Fibonacci numbers."""
    num = 5 * ((1 + (-1) ** n) // 2) + 3 * (1 + n) * fib(n) + 4 * n * fib(n + 1)
    return _exact_div(num, 5, "domino-only closed form")


def w_domino_even_form(n):
    """5 w(2n) = 5 + (3 + 6n) F(2n) + 8n F(2n+1)."""
    return _exact_div(5 + (3 + 6 * n) * fib(2 * n) + 8 * n * fib(2 * n + 1), 5,
                      "even split form")


def w_domino_odd_form(n):
    """5 w(2n+1) = (6 + 6n) F(2n+1) + (4 + 8n) F(2n+2)."""
    return _exact_div((6 + 6 * n) * fib(2 * n + 1) + (4 + 8 * n) * fib(2 * n + 2), 5,
                      "odd split form")


@dataclass(frozen=True)
class ExplicitFormCoeffs:
    """Constants of the explicit dominoes-only formula
    w(n) = A + B(-1)^n + (C + D n) alpha^n + (E + F n) beta^n."""

    A: QSqrt5
    B: QSqrt5
    C: QSqrt5
    D: QSqrt5
    E: QSqrt5
    F: QSqrt5


def explicit_form_coeffs():
    return ExplicitFormCoeffs(
        A=QSqrt5(Fraction(1, 2)),
        B=QSqrt5(Fraction(1, 2)),
        C=QSqrt5(0, Fraction(3, 25)),
        D=QSqrt5(Fraction(2, 5), Fraction(1, 5)),
        E=QSqrt5(0, Fraction(-3, 25)),
        F=QSqrt5(Fraction(2, 5), Fraction(-1, 5)),
    )


def _dominant_term(n):
    k = explicit_form_coeffs()
    return (k.C + k.D * n) * ALPHA**n


def w_domino_explicit(n):
    """Evaluate the explicit form entirely in Q(sqrt5).

    The sqrt(5) component must cancel exactly and the rational part must be
    an integer; anything else raises.
    """
    k = explicit_form_coeffs()
    sign = 1 if n % 2 == 0 else -1
    val = k.A + k.B * sign + _dominant_term(n) + (k.E + k.F * n) * BETA**n
    rat = val.rational_value()
    if rat.denominator != 1:
        raise NonIntegralStep(f"explicit form gave non-integer {rat} at n={n}")
    return int(rat)


def w_domino_ceiling(n):
    """ceil((3 sqrt5/25 + (2 + sqrt5)/5 * n) alpha^n), decided exactly."""
    return _dominant_term(n).ceil()


def binet_identity_check(upto):
    """(alpha^n - beta^n)/sqrt5 = F(n) and alpha^n + beta^n = 2F(n+1) - F(n)."""

    def holds(n):
        an, bn = ALPHA**n, BETA**n
        return ((an - bn) / SQRT5 == QSqrt5(fib(n))
                and an + bn == QSqrt5(2 * fib(n + 1) - fib(n)))

    return _check("binet-identities", 0, upto, holds)


def asymptotic_ratio(n, digits=40):
    """w(n) divided by the dominant part of the explicit form.

    This is the one approximate quantity in the module: the exact Q(sqrt5)
    ratio is truncated to `digits` decimal digits, which dwarfs the 10^-6
    tolerance the ratio is tested against.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = w_domino_fibonacci_form(n)
    dom = _dominant_term(n) + ((1 + (-1) ** n) // 2)
    scale = 10**digits
    return Fraction((w / dom * scale).floor(), scale)
