"""Exact arithmetic in the field Q(sqrt 5).

A value is the canonical triple (p, r, q) of (p + r*sqrt5)/q: q > 0, gcd(p, r, q) = 1.
`Fraction` appears only in the constructor and in what a, b and rational_value
return. floor is one integer square root, and ceil derives from it.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import RadicalResidue


class QSqrt5:
    __slots__ = ("p", "r", "q")

    def __new__(cls, a, b=0):
        """a + b*sqrt(5) for rationals a, b."""
        if type(a) is int and type(b) is int:  # not a bool: that goes through Fraction
            return _new(a, b, 1)
        a, b = Fraction(a), Fraction(b)
        q = lcm(a.denominator, b.denominator)
        return _new(a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q)

    def __setattr__(self, name, value):
        raise AttributeError(f"QSqrt5 is immutable: cannot set {name}")

    a = property(lambda self: Fraction(self.p, self.q), doc="The rational part.")
    b = property(lambda self: Fraction(self.r, self.q), doc="The coefficient of sqrt(5).")

    def __eq__(self, other):
        if type(other) is int:  # not a bool, as in __new__
            return self.r == 0 and self.q == 1 and self.p == other
        if isinstance(other, (QSqrt5, int, Fraction)):
            other = _coerce(other)
            return self.p == other.p and self.r == other.r and self.q == other.q
        return NotImplemented

    def __hash__(self):  # a rational value hashes as the int or Fraction it equals
        return hash(self.a) if self.r == 0 else hash((self.p, self.r, self.q))

    def __add__(self, other):
        if type(other) is int:  # gcd(p + kq, r, q) = gcd(p, r, q) = 1
            return _new(self.p + other * self.q, self.r, self.q, 1)
        o = _coerce(other)
        return _new(self.p * o.q + o.p * self.q, self.r * o.q + o.r * self.q, self.q * o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return _new(self.p * o.q - o.p * self.q, self.r * o.q - o.r * self.q, self.q * o.q)

    def __neg__(self):
        return _new(-self.p, -self.r, self.q)

    def __mul__(self, other):
        if type(other) is int:  # k/g and q/g are coprime for g = gcd(k, q); k = 0 gives (0, 0, 1)
            return _new(self.p * other, self.r * other, self.q, gcd(other, self.q))
        o = _coerce(other)
        p1, r1, p2, r2 = self.p, self.r, o.p, o.r
        return _new(p1 * p2 + 5 * r1 * r2, p1 * r2 + r1 * p2, self.q * o.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Multiply by 1/other = q2 (p2 - r2*sqrt5) / (p2^2 - 5 r2^2)."""
        o = _coerce(other)
        p1, r1, p2, r2, q2 = self.p, self.r, o.p, o.r, o.q
        n = p2 * p2 - 5 * r2 * r2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return _new((p1 * p2 - 5 * r1 * r2) * q2, (r1 * p2 - p1 * r2) * q2, self.q * n)

    def __pow__(self, k):
        if k < 0:
            return _ONE / self ** (-k)
        result, base = _ONE, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def rational_value(self):
        if self.r:
            raise RadicalResidue(f"nonzero sqrt(5) component: {self}")
        return self.a

    def floor(self):
        """Largest integer <= (p + r*sqrt5)/q. s = floor(|r|*sqrt5) is exact, and as
        5 r^2 is never a perfect square for r != 0, floor(r*sqrt5) = -s - 1 for r < 0."""
        s = isqrt(5 * self.r * self.r)
        return (self.p + (s if self.r >= 0 else -s - 1)) // self.q

    def ceil(self):
        return -(-self).floor()

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt(5)"

    def __repr__(self):
        return f"QSqrt5(a={self.a!r}, b={self.b!r})"


def _new(p, r, q, g=None, _set_p=QSqrt5.p.__set__, _set_r=QSqrt5.r.__set__,
         _set_q=QSqrt5.q.__set__):
    """The canonical triple of (p + r*sqrt5)/q, for any q != 0, or q > 0 and g = gcd(p, r, q).
    The slots are set through their descriptors, past the refusing __setattr__."""
    if g is None:
        g = gcd(p, r, q) if q > 0 else -gcd(p, r, q)
    x = object.__new__(QSqrt5)
    _set_p(x, p // g)
    _set_r(x, r // g)
    _set_q(x, q // g)
    return x


def _coerce(x):
    if isinstance(x, int):
        return _new(x, 0, 1)
    return x if isinstance(x, QSqrt5) else QSqrt5(x)


_ONE = _new(1, 0, 1)
SQRT5 = QSqrt5(0, 1)
ALPHA = QSqrt5(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt5)/2
BETA = QSqrt5(Fraction(1, 2), Fraction(-1, 2))  # (1 - sqrt5)/2
