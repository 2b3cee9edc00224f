import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwords import (
    ChainFileError,
    ChainRecord,
    parse_chain_file,
    serialize_chain_file,
)


class TestParse:
    def test_basic(self):
        cf = parse_chain_file("# demo\nsq: 0123 @ 2 3\n0011\n")
        assert len(cf) == 2
        assert cf[0] == ChainRecord("0123", name="sq", start=(2, 3))
        assert cf[1] == ChainRecord("0011")

    def test_blank_lines_and_comments(self):
        cf = parse_chain_file("\n  # note\n\n0123  # trailing comment\n\n")
        assert [r.word for r in cf] == ["0123"]

    def test_whitespace_inside_word(self):
        cf = parse_chain_file("0 123\t0 11\n")
        assert cf[0].word == "0123011"

    def test_crlf(self):
        cf = parse_chain_file("a: 0123\r\n0011\r\n")
        assert [r.name for r in cf] == ["a", None]

    def test_bytes_input(self):
        cf = parse_chain_file(b"sq: 0123\n")
        assert cf[0].name == "sq"

    def test_negative_start(self):
        cf = parse_chain_file("w: 00 @ -3 -4\n")
        assert cf[0].start == (-3, -4)

    def test_empty_word_record(self):
        cf = parse_chain_file("nil:\n")
        assert cf[0] == ChainRecord("", name="nil")

    def test_empty_file(self):
        assert parse_chain_file("") == ()
        assert parse_chain_file("# only a comment\n") == ()


class TestErrors:
    def test_invalid_letter_location(self):
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("012x")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 4
        assert "line 1, column 4" in str(excinfo.value)

    def test_location_counts_lines(self):
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("0123\nok: 01\nbad: 09\n")
        assert excinfo.value.line == 3
        assert excinfo.value.column == 7

    def test_location_after_unicode_spaces(self):
        # tabs, a no-break space and U+2000 are skipped inside a word but
        # still count as columns
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("w:\t01\u00a02\u20003x3\n")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 10
        assert "invalid character 'x'" in str(excinfo.value)
        cf = parse_chain_file("w:\t01\u00a02\u20003 3\n")
        assert cf[0].word == "01233"

    def test_duplicate_label(self):
        with pytest.raises(ChainFileError, match="duplicate"):
            parse_chain_file("a: 0123\na: 0011\n")

    def test_bad_start_point(self):
        with pytest.raises(ChainFileError, match="two integers"):
            parse_chain_file("w: 0123 @ 1\n")
        with pytest.raises(ChainFileError, match="two integers"):
            parse_chain_file("w: 0123 @ 1 b\n")

    def test_is_value_error(self):
        # callers that only care about failure can catch ValueError
        with pytest.raises(ValueError):
            parse_chain_file("012x")


class TestSerialize:
    def test_roundtrip(self):
        cf = parse_chain_file("# demo\nsq: 0123 @ 2 3\n0011\nnil:\n")
        text = serialize_chain_file(cf)
        assert parse_chain_file(text) == cf

    def test_canonical_form(self):
        cf = parse_chain_file("sq:   0 1 2 3   @  2  3\n")
        assert serialize_chain_file(cf) == "sq: 0123 @ 2 3\n"


LABELS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True)


@st.composite
def chain_files(draw):
    """Chain files of records that are not entirely empty, labels unique."""
    shapes = draw(st.lists(st.tuples(
        st.text("0123", max_size=30),
        st.booleans(),
        st.none() | st.tuples(st.integers(), st.integers()),
    ), max_size=8))
    labels = draw(st.lists(LABELS, min_size=len(shapes), max_size=len(shapes), unique=True))
    records = [
        ChainRecord(word, label if named else None, start)
        for (word, named, start), label in zip(shapes, labels)
        if word or named or start is not None
    ]
    return tuple(records)


@settings(max_examples=200)
@given(chain_files())
def test_parse_inverts_serialize(chain_file):
    assert parse_chain_file(serialize_chain_file(chain_file)) == chain_file
