import pytest

from tilewalks.errors import BFileParseError, InsufficientOverlap, UnknownFixture
from tilewalks.oeis import (
    FIXTURE_IDS,
    find_offset_shift,
    load_fixture,
    parse_bfile,
)
from tilewalks.recurrences import (
    eval_recurrence,
    eval_system,
    fibonacci_spec,
    tiling_system,
    v_theorem_spec,
    domino_only_recurrence,
)


def test_fixture_first_terms():
    assert [v for _, v in load_fixture("A030186").entries[:5]] == [1, 2, 7, 22, 71]
    assert [v for _, v in load_fixture("A054454").entries[:6]] == [1, 2, 6, 12, 26, 50]
    assert [v for _, v in load_fixture("A000045").entries[:6]] == [0, 1, 1, 2, 3, 5]


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        load_fixture("A999999")


def test_each_fixture_is_parsed_once():
    for seq_id in FIXTURE_IDS:
        assert load_fixture(seq_id) is load_fixture(seq_id)
    for _ in range(2):  # an unknown id is refused on every call, not remembered
        with pytest.raises(UnknownFixture):
            load_fixture("A999999")


def test_fixture_roundtrip():
    for seq_id in ("A000045", "A001629", "A030186", "A054454"):
        bfile = load_fixture(seq_id)
        text = "".join(f"{i} {v}\n" for i, v in bfile.entries)
        assert parse_bfile(seq_id, text).entries == bfile.entries
        assert len(bfile.entries) >= 40


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("A000001", "0 1\n1 2\nbroken line here\n")
    assert exc.value.line_number == 3
    with pytest.raises(BFileParseError):
        parse_bfile("A000001", "0 1\n0 2\n")  # non-increasing index
    with pytest.raises(BFileParseError):
        parse_bfile("A000001", "# only comments\n")


def test_compare_prefix_match():
    r = list(eval_system(tiling_system(), 40)["r"].values)
    assert find_offset_shift(r, load_fixture("A030186")) == (0, 41)


def test_compare_prefix_mismatch():
    v = list(eval_recurrence(v_theorem_spec(), 40).values)
    with pytest.raises(InsufficientOverlap):
        find_offset_shift(v, load_fixture("A030186"))


def test_one_perturbed_term_breaks_the_match():
    r = list(eval_system(tiling_system(), 40)["r"].values)
    r[17] += 1
    with pytest.raises(InsufficientOverlap):
        find_offset_shift(r, load_fixture("A030186"))


def test_compare_prefix_insufficient_overlap():
    with pytest.raises(InsufficientOverlap):
        find_offset_shift([1, 2, 3], load_fixture("A030186"))


def test_find_offset_shift_for_v():
    v = list(eval_recurrence(v_theorem_spec(), 40).values)
    report = find_offset_shift(v, load_fixture("A001629"))
    assert report.offset_shift == 2
    assert report.matched >= 20


def test_fibonacci_alignment():
    f = list(eval_system(fibonacci_spec(), 44)["fib"].values)
    report = find_offset_shift(f, load_fixture("A000045"))
    assert report.offset_shift == 0 and report.matched >= 40


def test_domino_walk_alignment():
    w = list(eval_system(domino_only_recurrence(), 40)["w-domino"].values)
    report = find_offset_shift(w, load_fixture("A054454"))
    assert report.offset_shift == 0 and report.matched >= 20


def test_equal_shift_invariance():
    r = list(eval_system(tiling_system(), 40)["r"].values)
    ref = load_fixture("A030186")
    shifted_ref = type(ref)(ref.sequence_id,
                            tuple((i + 3, v) for i, v in ref.entries))
    base = find_offset_shift(r, ref)
    moved = find_offset_shift(r, shifted_ref)
    assert (moved.offset_shift, moved.matched) == (base.offset_shift + 3, base.matched)
