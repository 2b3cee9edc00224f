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

    def test_location_after_stripped_and_inner_whitespace(self):
        # the word is stripped at both ends and joined only to find the
        # bad letter, whose column still counts every character before it
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("0\r\nw: \u2000 01 \t2\u00a0x3 \r\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, 12)
        assert "invalid character 'x'" in str(excinfo.value)

    def test_lone_surrogate_is_an_invalid_character(self):
        # str input may hold one; the letter check's UTF-8 bytes keep it
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("w: 0\ud80012\n")
        assert str(excinfo.value) == "line 1, column 5: invalid character '\\ud800'"

    def test_invalid_utf8_location(self):
        data = b"a: 0123\nb: 01\xff23\n"
        for text in (data, bytearray(data), b"\xef\xbb\xbf" + data):
            with pytest.raises(ChainFileError) as excinfo:
                parse_chain_file(text)
            assert (excinfo.value.line, excinfo.value.column) == (2, 6)
            assert str(excinfo.value) == "line 2, column 6: invalid UTF-8 byte 0xff"
        # columns count characters, and a leading byte-order mark none
        with pytest.raises(ChainFileError) as excinfo:
            parse_chain_file("\ufeffw: \u00e9\u20ac".encode() + b"\xe2\x82")
        assert str(excinfo.value) == "line 1, column 6: invalid UTF-8 byte 0xe2"

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


@st.composite
def spaced_records(draw):
    """(text, records): lines of letters among spaces, tabs, U+00A0 and
    U+2000, some labelled, each ended by LF or CRLF, and the records that
    `"".join(body.split())` makes of them."""
    text, records = [], []
    for k in range(draw(st.integers(0, 6))):
        body = draw(st.text("0123 \t\u00a0\u2000", max_size=40))
        label = draw(st.sampled_from([None, f"w{k}"]))
        text.append(body if label is None else f"{label}:{body}")
        text.append(draw(st.sampled_from(["\n", "\r\n"])))
        if label is not None or body.strip():
            records.append(ChainRecord("".join(body.split()), label))
    return "".join(text), tuple(records)


@given(spaced_records())
def test_whitespace_in_a_word_is_dropped(spaced):
    text, records = spaced
    assert parse_chain_file(text) == records
    assert parse_chain_file(text.encode()) == records


CHAIN_FILE_BYTES = st.one_of(
    st.binary(max_size=60),
    st.text(max_size=30).map(str.encode),
    st.lists(st.sampled_from([
        b"0", b"1", b"2", b"3", b"9", b"a", b" ", b"\t", b"\n", b"\r", b":",
        b"@", b"#", b"-", b"\xff", b"\xc3", b"\xa9", b"\xe2\x80\x80",
        b"\xef\xbb\xbf",
    ]), max_size=30).map(b"".join),
)


@given(CHAIN_FILE_BYTES)
def test_any_bytes_parse_or_raise_chain_file_error(data):
    try:
        parse_chain_file(data)
    except ChainFileError:
        pass
