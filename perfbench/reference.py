"""Reference values the benchmark checks the program's outputs against.

Every table here is computed with plain integer recurrences written out in
this file, never through the package's own evaluators. At start-up each
table is checked against the terms the test suite pins and, where the
package embeds an OEIS b-file, against that b-file's whole prefix.
"""

import sys
from contextlib import contextmanager

# name -> (coefficients of x(n-1), x(n-2), ..., initial terms)
LINEAR = {
    "fib": ((1, 1), (0, 1)),
    "v": ((2, 1, -2, -1), (1, 2, 5, 10)),
    "w": ((8, -17, -7, 41, 1, -23, 3, 4, -1),
          (1, 5, 28, 130, 569, 2352, 9363, 36183, 136663)),
    "w-domino": ((2, 2, -4, -2, 2, 1), (1, 2, 6, 12, 26, 50)),
    "r": ((3, 1, -1), (1, 2, 7)),
    "c": ((3, 1, -1), (0, 1, 3)),
}

# Terms pinned by the test suite; r1 (walks ending on the middle line of a
# 2xn board) has no reference recurrence, so only its pins and the
# cross-route agreement inside one output check it.
PINNED = {
    "fib": (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55),
    "v": (1, 2, 5, 10, 20),
    "w": (1, 5, 28, 130, 569, 2352, 9363, 36183, 136663),
    "w-domino": (1, 2, 6, 12, 26, 50, 97),
    "r": (1, 2, 7, 22, 71, 228, 733),
    "a": (0, 0, 1, 3, 10, 32, 103),
    "c": (0, 1, 3, 10, 32, 103, 331),
    "d": (0, 0, 1, 2, 7, 22, 71),
    "r1": (1, 3, 14),
}

FIXTURES = {"fib": "A000045", "v": "A001629", "r": "A030186", "w-domino": "A054454"}


def linear_table(coeffs, initial, upto):
    vals = list(initial[: upto + 1])
    for n in range(len(vals), upto + 1):
        vals.append(sum(c * vals[n - 1 - k] for k, c in enumerate(coeffs)))
    return vals


@contextmanager
def unlimited_int_str():
    """Lift the int/str digit limit for the checker alone, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class BadReference(Exception):
    """A reference table disagrees with a pinned term or a b-file."""


def _prefix_shift(values, entries, window=5, min_overlap=20):
    """Shift s with values[n] == b-file(n + s) over the whole overlap."""
    lookup = dict(entries)
    for shift in range(-window, window + 1):
        overlap = [n for n in range(len(values)) if n + shift in lookup]
        if len(overlap) >= min_overlap and all(
            values[n] == lookup[n + shift] for n in overlap
        ):
            return shift
    return None


class Reference:
    """Integer tables by sequence name, grown on demand, with string forms."""

    def __init__(self, load_fixture):
        self._tables = {}
        self._strings = {}
        self.upto = -1
        self.extend(80)
        for name, pins in PINNED.items():
            if name in self._tables and tuple(self._tables[name][: len(pins)]) != pins:
                raise BadReference(f"{name}: reference disagrees with pinned terms")
        for name, seq_id in FIXTURES.items():
            if _prefix_shift(self._tables[name], load_fixture(seq_id).entries) is None:
                raise BadReference(f"{name}: reference disagrees with {seq_id}")

    def extend(self, upto):
        if upto <= self.upto:
            return
        for name, (coeffs, initial) in LINEAR.items():
            self._tables[name] = linear_table(coeffs, initial, upto)
        c, r = self._tables["c"], self._tables["r"]
        self._tables["a"] = [0] + c[:upto]
        self._tables["d"] = [0, 0] + r[: upto - 1]
        self.upto = upto

    def value(self, name, n):
        self.extend(n)
        return self._tables[name][n]

    def expected(self, name, n):
        """The decimal string of term n, or None where only pins exist."""
        if name not in self._tables:
            pins = PINNED.get(name, ())
            return str(pins[n]) if n < len(pins) else None
        self.extend(n)
        key = (name, n)
        if key not in self._strings:
            with unlimited_int_str():
                self._strings[key] = str(self._tables[name][n])
        return self._strings[key]
