"""Golden CLI transcript: every record command in both formats, byte for byte.

The corpus below is fixed; its transcript is stored in `golden_cli.txt`
next to this file.  A refactor that keeps the CLI's output must leave the
transcript unchanged.  After an intended output change, regenerate it with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import os
import random
import sys

from gridwords import cli, gen_random_polyomino, hat

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.txt")

COMMANDS = ("analyze", "intersect", "convex", "tile")
FORMATS = ("text", "machine")

# The README's chain-file example, read from stdin as `-`.
README_FILE = "# two shapes\nsq:  0123     @ 2 3\nell: 00121233\n"


def _random_words(seed, count, max_len):
    rng = random.Random(seed)
    return ["".join(rng.choice("0123") for _ in range(rng.randint(1, max_len)))
            for _ in range(count)]


def corpus():
    """Inputs, one CLI argument each: words, or `-` for README_FILE."""
    words = ["", "02", "0123", "002", "00121233", "010121232303", "-"]
    # square, rectangle; open; closed but not simple
    words += ["00112233", "0011122333", "0011223", "0022", "01230123"]
    for cells, seed in ((1, 0), (2, 1), (5, 2), (8, 5), (12, 3), (20, 4),
                        (30, 7), (45, 11)):
        w = gen_random_polyomino(cells, seed)
        words += [w, hat(w)]
    words += _random_words(2024, 12, 14)
    return words


def run(command, fmt, word):
    """One CLI call, as the transcript records it."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(README_FILE.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--format", fmt, word])
    finally:
        sys.stdin = stdin
    shown = word if word else "''"
    lines = [f"$ gridwords {command} --format {fmt} {shown}"]
    lines += out.getvalue().splitlines()
    lines += ["stderr: " + line for line in err.getvalue().splitlines()]
    lines.append(f"exit {code}")
    return lines


def transcript():
    lines = []
    for word in corpus():
        for command in COMMANDS:
            for fmt in FORMATS:
                lines += run(command, fmt, word)
    return "\n".join(lines) + "\n"


def test_cli_transcript_matches_golden():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    got = transcript()
    if got != expected:
        for k, (a, b) in enumerate(zip(got.splitlines(), expected.splitlines())):
            assert a == b, f"golden_cli.txt line {k + 1} differs"
    assert got == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(transcript())
