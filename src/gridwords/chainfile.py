"""Plain-text chain files: one record per line, `[name:] word [@ x y]`.

`#` starts a comment; whitespace inside the word is ignored; labels must
be unique.  UTF-8, LF or CRLF.
"""

import re
from dataclasses import dataclass

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")


@dataclass(frozen=True)
class ChainRecord:
    word: str
    name: str = None
    start: tuple = None


class ChainFileError(ValueError):
    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


def parse_chain_file(data):
    """Parse chain-file text (bytes or str) into a tuple of ChainRecords."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    records = []
    labels = set()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        cut = line.find("#")
        if cut != -1:
            line = line[:cut]
        if not line.strip():
            continue
        body_start = 0
        name = None
        colon = line.find(":")
        if colon != -1:
            name = line[:colon].strip()
            if not _NAME.fullmatch(name):
                raise ChainFileError(f"bad label {name!r}", lineno)
            if name in labels:
                raise ChainFileError(f"duplicate label {name!r}", lineno)
            labels.add(name)
            body_start = colon + 1
        at = line.find("@", body_start)
        word_end = len(line) if at == -1 else at
        body = line[body_start:word_end]
        word = "".join(body.split())
        bad = word.strip("0123")
        if bad:
            column = body_start + body.index(bad[0]) + 1
            raise ChainFileError(f"invalid character {bad[0]!r}", lineno, column)
        start = None
        if at != -1:
            fields = line[at + 1 :].split()
            try:
                sx, sy = (int(f) for f in fields)
                start = (sx, sy)
            except ValueError:
                raise ChainFileError("start point needs two integers", lineno) from None
        records.append(ChainRecord(word, name, start))
    return tuple(records)


def serialize_chain_file(records):
    """Chain-file text for an iterable of ChainRecords; the inverse of
    parse_chain_file for records that are not entirely empty."""
    lines = []
    for rec in records:
        parts = []
        if rec.name is not None:
            parts.append(f"{rec.name}:")
        if rec.word:
            parts.append(rec.word)
        if rec.start is not None:
            parts.append(f"@ {rec.start[0]} {rec.start[1]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""
