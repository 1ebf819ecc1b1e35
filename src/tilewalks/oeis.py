"""Offline OEIS b-file fixtures and prefix comparison against them."""

from dataclasses import dataclass
from importlib import resources

from .errors import BFileParseError, InsufficientOverlap, UnknownFixture

FIXTURE_IDS = ("A000045", "A001629", "A030186", "A054454")


@dataclass(frozen=True)
class BFile:
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


def serialize_bfile(bfile):
    return "".join(f"{i} {v}\n" for i, v in bfile.entries)


def load_fixture(sequence_id):
    """Parse one of the b-files embedded in the package."""
    if sequence_id not in FIXTURE_IDS:
        raise UnknownFixture(f"no fixture for {sequence_id}")
    text = (resources.files("tilewalks.fixtures") / f"b{sequence_id[1:]}.txt").read_text()
    return parse_bfile(sequence_id, text)


@dataclass(frozen=True)
class PrefixReport:
    sequence_id: str
    offset_shift: int
    matched: int
    first_mismatch: int = None  # computed-side index

    @property
    def passed(self):
        return self.first_mismatch is None


def compare_prefix(computed, reference, offset_shift, min_overlap=10):
    """Compare computed[n] with reference index n + offset_shift.

    Reports the full-match length or the first mismatching computed index.
    """
    values = list(computed.values if hasattr(computed, "values") else computed)
    lookup = dict(reference.entries)
    overlap = [n for n in range(len(values)) if n + offset_shift in lookup]
    if len(overlap) < min_overlap:
        raise InsufficientOverlap(
            f"{reference.sequence_id}: only {len(overlap)} overlapping indices"
        )
    matched = 0
    for n in overlap:
        if values[n] != lookup[n + offset_shift]:
            return PrefixReport(reference.sequence_id, offset_shift, matched, n)
        matched += 1
    return PrefixReport(reference.sequence_id, offset_shift, matched)


def find_offset_shift(computed, reference, window=5, min_overlap=10):
    """Best shift within +/-window; data-driven because OEIS offsets differ
    from the n-indexing used elsewhere in this package."""
    best = None
    for shift in range(-window, window + 1):
        try:
            report = compare_prefix(computed, reference, shift, min_overlap)
        except InsufficientOverlap:
            continue
        if report.passed and (best is None or report.matched > best.matched):
            best = report
    if best is None:
        raise InsufficientOverlap(
            f"{reference.sequence_id}: no full-prefix match within +/-{window}"
        )
    return best
