"""Size limits of the word-building commands, tile and render, and the
chain-file escape."""

import json

from gridwords import cli, render


def run(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


class TestGenLimits:
    def test_count_zero(self, capsys):
        rc, out, err = run(capsys, "gen", "--count", 0)
        assert (rc, out) == (2, "")
        assert err == "error: --count must be at least 1, got 0\n"

    def test_count_negative(self, capsys):
        rc, out, err = run(capsys, "gen", "--count", -1)
        assert (rc, out) == (2, "")
        assert err == "error: --count must be at least 1, got -1\n"

    def test_cells_over_limit(self, capsys):
        cells = cli._MAX_LETTERS // 2
        rc, out, err = run(capsys, "gen", "--cells", cells)
        assert (rc, out) == (2, "")
        assert err == (
            f"error: --cells {cells} --count 1 may build {2 * cells + 2} letters; "
            f"the limit is {cli._MAX_LETTERS}\n"
        )

    def test_count_times_cells_over_limit(self, capsys):
        count = cli._MAX_LETTERS // 4 + 1
        rc, out, err = run(capsys, "gen", "--cells", 1, "--count", count)
        assert (rc, out) == (2, "")
        assert f"may build {4 * count} letters" in err

    def test_largest_cells_within_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_LETTERS", 22)
        assert run(capsys, "gen", "--cells", 10)[0] == 0
        assert run(capsys, "gen", "--cells", 11)[0] == 2
        rc, out, _ = run(capsys, "gen", "--cells", 4, "--count", 2, "--format", "machine")
        assert rc == 0 and len(json.loads(out)["words"]) == 2


class TestChristoffelLimits:
    def test_over_limit(self, capsys):
        a = cli._MAX_LETTERS
        rc, out, err = run(capsys, "christoffel", a, 1)
        assert (rc, out) == (2, "")
        assert err == (
            f"error: christoffel {a} 1 would build {a + 1} letters; "
            f"the limit is {cli._MAX_LETTERS}\n"
        )

    def test_huge_counts_fail_fast(self, capsys):
        limit = cli._MAX_LETTERS
        rc, _, err = run(capsys, "christoffel", 10**30, 10**30 + 1)
        assert rc == 2 and f"the limit is {limit}" in err

    def test_at_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_LETTERS", 8)
        assert run(capsys, "christoffel", 5, 3) == (0, "00100101\n", "")
        assert run(capsys, "christoffel", 5, 4)[0] == 2


class TestTileLimits:
    def test_over_limit(self, capsys, monkeypatch):
        # two square factorizations of 6 block letters each
        monkeypatch.setattr(cli, "_MAX_LETTERS", 8)
        rc, out, err = run(capsys, "tile", "010121232303")
        assert (rc, out) == (2, "")
        assert err == (
            "error: tile of a 12-letter word would print 12 block letters; "
            "the limit is 8\n"
        )

    def test_at_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_LETTERS", 12)
        rc, out, err = run(capsys, "tile", "010121232303")
        assert (rc, err) == (0, "")
        assert out.count("cuts=") == 2

    def test_square_over_limit_prints_nothing(self, capsys):
        # 1,199 factorizations of 1,200 block letters each; the first
        # record's report is not printed either
        square = "0" * 600 + "1" * 600 + "2" * 600 + "3" * 600
        for fmt in ("text", "machine"):
            rc, out, err = run(capsys, "tile", "--format", fmt, "0123", square)
            assert (rc, out) == (2, ""), fmt
            assert err == (
                "error: tile of a 2400-letter word would print 1438800 block letters; "
                f"the limit is {cli._MAX_LETTERS}\n"
            )


class TestRenderLimits:
    def test_over_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(render, "MAX_DOTS", 8)
        rc, out, err = run(capsys, "render", "0011")
        assert (rc, out) == (2, "")
        assert err == "error: render of a 3x3 box would draw 9 grid dots; the limit is 8\n"

    def test_at_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(render, "MAX_DOTS", 9)
        rc, out, err = run(capsys, "render", "0011")
        assert (rc, err) == (0, "")
        assert out.count("<circle") == 9 + 1  # the grid dots and the start marker

    def test_long_word_in_a_small_box_is_accepted(self, capsys, monkeypatch):
        # the box holds 4 dots; the word's 4000 letters are within the limit
        monkeypatch.setattr(render, "MAX_DOTS", 4000)
        assert run(capsys, "render", "0123" * 1000)[0] == 0

    def test_word_over_letter_limit(self, capsys, monkeypatch):
        # refused before the path is traced, though its box holds 4 dots
        def no_trace(*args):
            raise AssertionError("traced a word over the limit")

        monkeypatch.setattr(render, "MAX_DOTS", 8)
        monkeypatch.setattr(cli, "trace", no_trace)
        rc, out, err = run(capsys, "render", "012301230")
        assert (rc, out) == (2, "")
        assert err == "error: render of a 9-letter word; the limit is 8 letters\n"

    def test_word_at_letter_limit_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(render, "MAX_DOTS", 8)
        rc, out, err = run(capsys, "render", "01230123")
        assert (rc, err) == (0, "")
        assert out.count("<circle") == 4 + 1  # the grid dots and the start marker


class TestChainFileEscape:
    def test_letter_named_file_through_dot_slash(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "0123").write_text("ell: 00121233\n")
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run(capsys, "analyze", "./0123")
        assert rc == 0
        assert out == "name=ell word=00121233 closed=true simple=true T=1 S=5 R=1\n"
        # the bare name stays a literal word
        rc, out, _ = run(capsys, "analyze", "0123")
        assert out == "word=0123 closed=true simple=true T=1 S=4 R=0\n"
