"""Offline OEIS b-file fixtures and prefix comparison against them."""

from importlib import resources
from typing import NamedTuple

from .errors import BFileParseError, InsufficientOverlap, UnknownFixture

FIXTURE_IDS = ("A000045", "A001629", "A030186", "A054454")
MIN_OVERLAP = 10  # fewest shared indices a comparison accepts
SHIFT_WINDOW = 5  # largest offset shift find_offset_shift tries, either way


class BFile(NamedTuple):
    sequence_id: str
    entries: tuple  # (index, value) pairs, indices strictly increasing


def parse_bfile(sequence_id, text):
    """Parse b-file text: whitespace-separated "index value" lines, '#' comments."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'index value', got {line!r}", lineno)
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {line!r}", lineno) from None
        if entries and idx <= entries[-1][0]:
            raise BFileParseError(f"non-increasing index {idx}", lineno)
        entries.append((idx, val))
    if not entries:
        raise BFileParseError("no entries", 1)
    return BFile(sequence_id, tuple(entries))


_LOADED = {}  # BFile by id: each embedded b-file is parsed once per process


def load_fixture(sequence_id):
    """Parse one of the b-files embedded in the package, or return the BFile
    of its first parse: a BFile and its entries are tuples."""
    if sequence_id not in FIXTURE_IDS:
        raise UnknownFixture(f"no fixture for {sequence_id}")
    if sequence_id not in _LOADED:
        text = (resources.files("tilewalks.fixtures") / f"b{sequence_id[1:]}.txt").read_text()
        _LOADED[sequence_id] = parse_bfile(sequence_id, text)
    return _LOADED[sequence_id]


class OffsetMatch(NamedTuple):
    offset_shift: int
    matched: int  # shared indices, all of them equal


def find_offset_shift(computed, reference):
    """The shift within +/-SHIFT_WINDOW with the most shared indices, at
    least MIN_OVERLAP, on every one of which computed[n] equals the reference
    at index n + shift. Data-driven, because OEIS offsets differ from the
    n-indexing used elsewhere in this package."""
    values, lookup = list(computed), dict(reference.entries)
    best = None
    for shift in range(-SHIFT_WINDOW, SHIFT_WINDOW + 1):
        shared = [n for n in range(len(values)) if n + shift in lookup]
        if (len(shared) >= MIN_OVERLAP and (best is None or len(shared) > best.matched)
                and all(values[n] == lookup[n + shift] for n in shared)):
            best = OffsetMatch(shift, len(shared))
    if best is None:
        raise InsufficientOverlap(
            f"{reference.sequence_id}: no full-prefix match within +/-{SHIFT_WINDOW}"
        )
    return best
