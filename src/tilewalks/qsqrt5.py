"""Exact arithmetic in the field Q(sqrt 5).

Values are a + b*sqrt(5) with rational a, b. Everything here is exact: floor
is one integer square root, and sign, ceil and the comparisons derive from it.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import RadicalResidue


@dataclass(frozen=True)
class QSqrt5:
    a: Fraction
    b: Fraction

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __eq__(self, other):
        if isinstance(other, (QSqrt5, int, Fraction)):
            other = _coerce(other)
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = _coerce(other)
        return QSqrt5(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QSqrt5(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return QSqrt5(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        return QSqrt5(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return self * QSqrt5(other.a / n, -other.b / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return QSqrt5(1) / self ** (-k)
        result = QSqrt5(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self):
        return QSqrt5(self.a, -self.b)

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    def is_rational(self):
        return self.b == 0

    def rational_value(self):
        if not self.is_rational():
            raise RadicalResidue(f"nonzero sqrt(5) component: {self}")
        return self.a

    def sign(self):
        """Exact sign of a + b*sqrt(5), read off its floor."""
        if self.a == 0 and self.b == 0:
            return 0
        return 1 if self.floor() >= 0 else -1

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def floor(self):
        """Largest integer m <= value = (p + r*sqrt5)/q over integers, q > 0. s is
        floor(r*sqrt5) exactly, as 5 r^2 is never a perfect square for r != 0."""
        q = lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (q // self.a.denominator)
        r = self.b.numerator * (q // self.b.denominator)
        s = isqrt(5 * r * r) if r >= 0 else -isqrt(5 * r * r) - 1
        return (p + s) // q

    def ceil(self):
        return -(-self).floor()

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt(5)"


def _coerce(x):
    if isinstance(x, QSqrt5):
        return x
    return QSqrt5(x)


SQRT5 = QSqrt5(0, 1)
ALPHA = QSqrt5(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt5)/2
BETA = QSqrt5(Fraction(1, 2), Fraction(-1, 2))  # (1 - sqrt5)/2
