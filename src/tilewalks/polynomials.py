"""Exact integer polynomial arithmetic, enough for characteristic polynomials."""

from dataclasses import dataclass
from itertools import zip_longest


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        return IntPoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other):
        return IntPoly([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not self or not other:
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def __pow__(self, k):
        result = IntPoly([1])
        for _ in range(k):
            result = result * self
        return result

    def divmod(self, other):
        """Polynomial division; requires each quotient step to divide exactly."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly([]), IntPoly(rem)
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            q, r = divmod(top, lead)
            if r:
                raise ValueError(f"non-exact division step: {top} / {lead}")
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        return IntPoly(quot), IntPoly(rem)

    def _signed_terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
                mag = str(abs(c)) if i == 0 or abs(c) != 1 else ""
                yield ("-" if c < 0 else "+") + mag + mono

    def __str__(self):
        """Ascending by degree: 1-3x+x^2."""
        return "".join(self._signed_terms()).removeprefix("+") or "0"

    def descending(self):
        """Highest degree first: x^2-3x+1."""
        return "".join(reversed(list(self._signed_terms()))).removeprefix("+") or "0"


def expand(factors):
    """The product of (polynomial, power) pairs."""
    out = IntPoly([1])
    for p, k in factors:
        out = out * p**k
    return out


def factored_str(factors):
    """(polynomial, power) pairs as printed: (x-1)(x^2-x-1)^2."""
    return "".join(f"({p.descending()})" + (f"^{k}" if k > 1 else "") for p, k in factors)

