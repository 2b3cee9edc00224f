"""The README's examples run as shown: every `>>>` line of its python
blocks through doctest, and every `$ gridwords ...` line that shows output
through `cli.main`, compared line by line."""

import doctest
import os
import re
import shlex

import pytest

from gridwords import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(lang):
    """(line number, text) of each fenced block of the given language; the
    text stops before the closing fence, so doctest never reads it as output."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(1))
        for m in re.finditer(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)
    ]


def _cli_examples():
    """(argv, expected lines) for each `$ gridwords` line followed by output."""
    examples = []
    for _, block in _blocks("text"):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("$ gridwords "):
                continue
            expected = []
            for out in lines[k + 1:]:
                if not out or out.startswith("$ "):
                    break
                expected.append(out)
            if expected:  # the render line writes a file and shows nothing
                examples.append((shlex.split(line)[2:], expected))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_python_examples():
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs = {}
    blocks = _blocks("python")
    assert blocks
    for lineno, block in blocks:
        runner.run(parser.get_doctest(block, globs, "README.md", README, lineno),
                   clear_globs=False)
    assert runner.summarize(verbose=False).failed == 0


def test_every_shown_command_is_collected():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "analyze", "intersect", "convex", "tile", "lyndon", "christoffel", "gen",
    ]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example(capsys, argv, expected):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == expected
