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

    @pytest.mark.parametrize("text", ["\ufeffa: 0123\n0011\n", "\ufeff0123\n0011\n"])
    def test_leading_byte_order_mark_is_ignored(self, text):
        expected = parse_chain_file(text[1:])
        assert parse_chain_file(text) == expected
        assert parse_chain_file(text.encode()) == expected
        assert parse_chain_file(text.encode("utf-8-sig")[3:]) == expected

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

    def test_location_at_the_end_of_a_long_record(self):
        # the last of 2^16 letters, with a space after every fourth
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("0\nlong: " + "0123 " * ((1 << 14) - 1) + "321x\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 6 + 5 * ((1 << 14) - 1) + 4
        assert "invalid character 'x'" in str(excinfo.value)

    def test_byte_order_mark_after_the_start_is_invalid(self):
        for data in ("0\ufeff123\n", "\ufeff\ufeff0123\n", "0123\n\ufeff01\n"):
            for text in (data, data.encode("utf-8-sig")):
                with pytest.raises(ChainFileError) as excinfo:
                    parse_chain_file(text)
                assert "invalid character '\\ufeff'" in str(excinfo.value), data
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("w: 01\ufeff23\n")
        assert (excinfo.value.line, excinfo.value.column) == (1, 6)
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file(b"0123\n\xef\xbb\xbfa: 01\n")
        assert str(excinfo.value) == "line 2: bad label '\\ufeffa'"

    def test_duplicate_label(self):
        with pytest.raises(ChainFileError, match="duplicate") as excinfo:
            parse_chain_file("a: 0123\na: 0011\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, None)

    def test_bad_start_point(self):
        with pytest.raises(ChainFileError, match="two integers") as excinfo:
            parse_chain_file("w: 0123 @ 1\n")
        assert (excinfo.value.line, excinfo.value.column) == (1, None)
        with pytest.raises(ChainFileError, match="two integers"):
            parse_chain_file("w: 0123 @ 1 b\n")

    @pytest.mark.parametrize("label", ["1a", "a b", ""])
    def test_bad_label(self, label):
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file(f"ok: 0123\n{label}: 01\n")
        assert excinfo.value.line == 2 and excinfo.value.column is None
        assert str(excinfo.value) == f"line 2: bad label {label!r}"

    def test_label_comes_before_any_at(self):
        # a colon past the first @ belongs to the start point, not a label
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("0123 @ 1:2\n")
        assert str(excinfo.value) == "line 1: start point needs two integers"
        # an @ before the colon ends the word there, so `a` is its letter
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("a@b: 01\n")
        assert (excinfo.value.line, excinfo.value.column) == (1, 1)
        assert "invalid character 'a'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "data",
        [None, 5, ["0123"], memoryview(b"0123")],
        ids=["None", "int", "list", "memoryview"],
    )
    def test_data_of_another_type(self, data):
        name = type(data).__name__
        message = f"data must be str, bytes or bytearray, not {name}$"
        with pytest.raises(TypeError, match=f"^{message}"):
            parse_chain_file(data)

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
