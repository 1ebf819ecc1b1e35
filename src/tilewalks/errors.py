"""Exception types, and the check result and range check shared across the package."""

from typing import NamedTuple


class CheckResult(NamedTuple):
    """One check under the name a report shows: both sides where they are
    single values, and the first n where a check over a range fails."""

    name: str
    passed: bool
    expected: object = None
    actual: object = None
    first_failure: int = None


def _check(name, lo, hi, pred):
    """`pred(n)` holds for n = lo..hi, checked in order; the first n where it does not is the
    failure. A range check passes whole columns at once and calls it only to locate one."""
    for n in range(lo, hi + 1):
        if not pred(n):
            return CheckResult(name, False, first_failure=n)
    return CheckResult(name, True)


class TileWalksError(Exception):
    """Base class for all package errors."""


class NonIntegralStep(TileWalksError):
    """An exact division that must yield an integer left a remainder."""


class UnstratifiableSystem(TileWalksError):
    """A coupled recurrence system has a same-step dependency cycle."""


class RadicalResidue(TileWalksError):
    """A quantity that must be rational kept a nonzero sqrt(5) component."""


# Cap on the tilings a brute sum enumerates, and on the walks render draws. 10**7 admits
# 2xn boards up to n = 14, whose search takes about 1 s (2-vCPU x86-64, Python 3.11).
DEFAULT_BUDGET = 10**7


class BudgetExceeded(TileWalksError):
    """A brute-force enumeration would exceed the configured tiling budget."""


class UnknownSequence(TileWalksError):
    """The CLI was asked for a sequence name it does not know."""


class UnknownFixture(TileWalksError):
    """No embedded b-file fixture exists for the requested id."""


class BFileParseError(TileWalksError):
    """Malformed b-file content."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InsufficientOverlap(TileWalksError):
    """Fewer than the required number of indices overlap in a comparison."""


class IndexOutOfRange(TileWalksError):
    """A tiling index beyond the number of tilings of the board."""


class OutputNotWritable(TileWalksError):
    """An output file could not be opened or written."""
