"""Fibonacci and Q(sqrt5) closed forms for the tiling-walking sequences.

`seq` and `verify` map the pair forms form(n, F(n), F(n+1)) over `_fib_pairs`:
`_fib_form`, `_w_domino_form`, `_split_form`, `_explicit_form`, `_ceiling_form`
and `_v_form`, of (F(n+1), F(n+2)). Each public per-n form reads one `_fib_pair`."""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .errors import NonIntegralStep, _check
from .qsqrt5 import ALPHA, BETA, SQRT5, QSqrt5, _new

_BLOCK = 64  # terms per `_fib_pair` call in `_fib_pairs`


def _fib_pair(n):
    """(F(n), F(n+1)), n >= 0, by fast doubling: (a, b) = (F(k), F(k+1)) for k the
    bits of n read so far, using F(2k) = F(k)(2F(k+1) - F(k)), F(2k+1) = F(k)^2 + F(k+1)^2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


@lru_cache(maxsize=None)
def _small_pairs():  # (F(k), F(k+1)) for k = 0.._BLOCK, built on first use
    return tuple(map(_fib_pair, range(_BLOCK + 1)))


def _fib_pairs(start, stop):
    """(F(n), F(n+1)), start <= n < stop: F(m+k) = F(m)F(k+1) + F(m-1)F(k) from one
    `_fib_pair(m)` per _BLOCK-aligned base m, two big-by-small products per term."""
    for m in range(start - start % _BLOCK, stop, _BLOCK):
        a, b = _fib_pair(m)
        c, ks = b - a, _small_pairs()[max(start - m, 0):min(stop - m, _BLOCK) + 1]
        fs = [a * f1 + c * f0 for f0, f1 in ks]  # F(m+k), one more than the pairs
        yield from zip(fs, fs[1:])


def _powers(f0, f1):
    """(alpha^n, beta^n) = ((L(n) + F(n) sqrt5)/2, (L(n) - F(n) sqrt5)/2) from the
    pair (F(n), F(n+1)), n >= 0, with the Lucas number L(n) = 2F(n+1) - F(n)."""
    lucas = 2 * f1 - f0
    return _new(lucas, f0, 2), _new(lucas, -f0, 2)


def _fib_form(n, f0, f1):
    return f0


def fib(n):
    """F(n), n >= 0."""
    return _fib_form(n, *_fib_pair(n))


def _exact_div(num, d, what):
    q, rem = divmod(num, d)
    if rem:
        raise NonIntegralStep(f"{what}: {num} not divisible by {d}")
    return q


def _v_form(n, f1, f2):
    """5 v(n) = 2(n+2) F(n+1) + (n+1) F(n+2), solved for v(n)."""
    return _exact_div(2 * (n + 2) * f1 + (n + 1) * f2, 5, "v closed form")


def v_fibonacci_form(n):
    return _v_form(n, *_fib_pair(n + 1))


def _w_domino_form(n, f0, f1):
    """Dominoes-only walk total as a rational combination of Fibonacci numbers."""
    num = 5 * ((1 + (-1) ** n) // 2) + 3 * (1 + n) * f0 + 4 * n * f1
    return _exact_div(num, 5, "domino-only closed form")


def w_domino_fibonacci_form(n):
    return _w_domino_form(n, *_fib_pair(n))


def _split_form(n, f0, f1):
    """w(n) by the even split, 5 w(2k) = 5 + (3 + 6k) F(2k) + 8k F(2k+1), or the
    odd one, 5 w(2k+1) = (6 + 6k) F(2k+1) + (4 + 8k) F(2k+2), for k = n // 2."""
    k = n // 2
    if n % 2:
        return _exact_div((6 + 6 * k) * f0 + (4 + 8 * k) * f1, 5, "odd split form")
    return _exact_div(5 + (3 + 6 * k) * f0 + 8 * k * f1, 5, "even split form")


def w_domino_even_form(n):
    return _split_form(2 * n, *_fib_pair(2 * n))


def w_domino_odd_form(n):
    return _split_form(2 * n + 1, *_fib_pair(2 * n + 1))


# Constants of the explicit dominoes-only formula
# w(n) = A + B(-1)^n + (C + D n) alpha^n + (E + F n) beta^n.
EXPLICIT_A = QSqrt5(Fraction(1, 2))
EXPLICIT_B = QSqrt5(Fraction(1, 2))
EXPLICIT_C = QSqrt5(0, Fraction(3, 25))
EXPLICIT_D = QSqrt5(Fraction(2, 5), Fraction(1, 5))
EXPLICIT_E = QSqrt5(0, Fraction(-3, 25))
EXPLICIT_F = QSqrt5(Fraction(2, 5), Fraction(-1, 5))


def _explicit_form(n, f0, f1):
    """The explicit form evaluated entirely in Q(sqrt5): the sqrt(5) component must
    cancel exactly and the rational part must be an integer; anything else raises."""
    sign = 1 if n % 2 == 0 else -1
    alpha_n, beta_n = _powers(f0, f1)
    val = (EXPLICIT_A + EXPLICIT_B * sign + (EXPLICIT_C + EXPLICIT_D * n) * alpha_n
           + (EXPLICIT_E + EXPLICIT_F * n) * beta_n)
    rat = val.rational_value()
    if rat.denominator != 1:
        raise NonIntegralStep(f"explicit form gave non-integer {rat} at n={n}")
    return int(rat)


def w_domino_explicit(n):
    return _explicit_form(n, *_fib_pair(n))


def _ceiling_form(n, f0, f1):
    """ceil((3 sqrt5/25 + (2 + sqrt5)/5 * n) alpha^n), decided exactly."""
    return ((EXPLICIT_C + EXPLICIT_D * n) * _powers(f0, f1)[0]).ceil()


def w_domino_ceiling(n):
    return _ceiling_form(n, *_fib_pair(n))


def binet_identity_check(upto):
    """(alpha^n - beta^n)/sqrt5 = F(n) and alpha^n + beta^n = 2F(n+1) - F(n).

    The powers are stepped from n to n+1; each pair must equal the one
    `_powers` builds from a fresh `_fib_pair(n)`, and the last pair also ALPHA**upto
    and BETA**upto, so that `QSqrt5.__pow__` is checked once.
    """
    steps = zip(accumulate(repeat(ALPHA), mul, initial=QSqrt5(1)),
                accumulate(repeat(BETA), mul, initial=QSqrt5(1)), _fib_pairs(0, upto + 1))

    def holds(n):  # called for n = 0..upto in order
        an, bn, (f0, f1) = next(steps)
        return ((an - bn) / SQRT5 == f0
                and an + bn == 2 * f1 - f0
                and (an, bn) == _powers(*_fib_pair(n))
                and (n < upto or (an, bn) == (ALPHA**n, BETA**n)))

    return _check("binet-identities", 0, upto, holds)
