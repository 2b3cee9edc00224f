import io
import json
import xml.etree.ElementTree as ET

import pytest

from gridwords import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestAnalyze:
    def test_boundary_word(self, capsys):
        rc, out, err = run(capsys, "analyze", "0123")
        assert rc == 0 and err == ""
        assert out == "word=0123 closed=true simple=true T=1 S=4 R=0\n"

    def test_l_tromino(self, capsys):
        rc, out, _ = run(capsys, "analyze", "00121233")
        assert out == "word=00121233 closed=true simple=true T=1 S=5 R=1\n"

    def test_open_word_has_no_corner_counts(self, capsys):
        rc, out, _ = run(capsys, "analyze", "0011")
        assert rc == 0
        assert out == "word=0011 closed=false simple=true T=1/4\n"

    def test_clockwise(self, capsys):
        rc, out, _ = run(capsys, "analyze", "0321")
        assert out == "word=0321 closed=true simple=true T=-1 S=4 R=0\n"

    def test_check_exit_codes(self, capsys):
        assert run(capsys, "analyze", "--check", "0123")[0] == 0
        assert run(capsys, "analyze", "--check", "0011")[0] == 1
        assert run(capsys, "analyze", "--check", "002002")[0] == 1
        for word in ("02", "13", "20", "31"):  # each retraces its one edge
            assert run(capsys, "analyze", "--check", word)[0] == 1

    def test_machine_format(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--format", "machine", "0123", "1")
        reports = json.loads(out)
        assert reports == [
            {
                "word": "0123",
                "closed": True,
                "simple": True,
                "T": "1",
                "S": 4,
                "R": 0,
            },
            {"word": "1", "closed": False, "simple": True, "T": "0"},
        ]

    def test_multiple_words(self, capsys):
        rc, out, _ = run(capsys, "analyze", "0123", "0011")
        assert len(out.splitlines()) == 2

    def test_empty_word_literal(self, capsys):
        rc, out, _ = run(capsys, "analyze", "")
        assert rc == 0
        assert out.startswith("word= closed=true")


class TestInputHandling:
    def test_bad_input_is_exit_2(self, capsys):
        rc, out, err = run(capsys, "analyze", "012x")
        assert rc == 2 and out == ""
        assert err.startswith("error:")

    def test_stdin_records(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("# two\nsq: 0123\nell: 00121233\n")
        )
        rc, out, _ = run(capsys, "analyze", "-")
        lines = out.splitlines()
        assert lines[0].startswith("name=sq word=0123")
        assert lines[1].startswith("name=ell word=00121233")

    def test_file_records(self, capsys, tmp_path):
        f = tmp_path / "shapes.chain"
        f.write_text("sq: 0123 @ 2 3\n")
        rc, out, _ = run(capsys, "analyze", str(f))
        assert rc == 0
        assert out.startswith("name=sq word=0123")

    def test_file_parse_error_location(self, capsys, tmp_path):
        f = tmp_path / "bad.chain"
        f.write_text("012x\n")
        rc, _, err = run(capsys, "analyze", str(f))
        assert rc == 2
        assert "line 1, column 4" in err

    def test_file_bad_label(self, capsys, tmp_path):
        f = tmp_path / "bad.chain"
        f.write_text("sq: 0123\n1a: 0123\n")
        rc, out, err = run(capsys, "analyze", str(f))
        assert rc == 2 and out == ""
        assert "line 2: bad label '1a'" in err


class TestIntersect:
    def test_hit(self, capsys):
        rc, out, _ = run(capsys, "intersect", "002")
        assert out == "word=002 intersects=true index=3 point=(1,0) simple=false\n"

    def test_miss(self, capsys):
        rc, out, _ = run(capsys, "intersect", "0011")
        assert out == "word=0011 intersects=false simple=true\n"

    def test_closed_word_is_simple(self, capsys):
        rc, out, _ = run(capsys, "intersect", "0123")
        assert "simple=true" in out
        assert "intersects=true" in out

    def test_check(self, capsys):
        assert run(capsys, "intersect", "--check", "0011")[0] == 0
        assert run(capsys, "intersect", "--check", "0123")[0] == 0
        assert run(capsys, "intersect", "--check", "002")[0] == 1
        for word in ("02", "13", "20", "31"):  # each retraces its one edge
            assert run(capsys, "intersect", "--check", word)[0] == 1


class TestConvex:
    def test_l_tromino(self, capsys):
        rc, out, _ = run(capsys, "convex", "00121233")
        assert out == (
            "word=00121233 convex=true arcs=(00,1,212,33)"
            " factors1=(1)^2 factors2=(1)^1 factors3=(1)^1,(01)^1"
            " factors4=(1)^2\n"
        )

    def test_check(self, capsys):
        assert run(capsys, "convex", "--check", "0123")[0] == 0
        assert run(capsys, "convex", "--check", "000111233223")[0] == 1

    def test_non_boundary_is_error(self, capsys):
        rc, _, err = run(capsys, "convex", "0011")
        assert rc == 2 and "error:" in err


class TestTile:
    def test_plus_pentomino(self, capsys):
        rc, out, _ = run(capsys, "tile", "010121232303")
        assert out.splitlines() == [
            "word=010121232303 class=square squares=2 factorizations=2",
            "cuts=(0,3,6,9) X=010 Y=121 Z=",
            "cuts=(1,4,7,10) X=101 Y=212 Z=",
        ]

    def test_not_exact(self, capsys):
        rc, out, _ = run(capsys, "tile", "000111232323")
        assert out.splitlines() == [
            "word=000111232323 class=not-exact squares=0 factorizations=0",
        ]

    def test_check(self, capsys):
        assert run(capsys, "tile", "--check", "0123")[0] == 0
        assert run(capsys, "tile", "--check", "000111232323")[0] == 1

    def test_machine(self, capsys):
        rc, out, _ = run(capsys, "tile", "--format", "machine", "0123")
        reports = json.loads(out)
        assert reports[0]["class"] == "square"
        assert reports[0]["factorizations"] == [
            {"cuts": [0, 1, 2, 3], "X": "0", "Y": "1", "Z": ""}
        ]


class TestWordCommands:
    def test_lyndon(self, capsys):
        rc, out, _ = run(capsys, "lyndon", "1011010100010")
        assert rc == 0
        assert out == "(1)^1 (011)^1 (01)^2 (0001)^1 (0)^1\n"

    def test_christoffel(self, capsys):
        rc, out, _ = run(capsys, "christoffel", "3", "1")
        assert rc == 0 and out == "0001\n"

    def test_christoffel_rejects(self, capsys):
        rc, _, err = run(capsys, "christoffel", "2", "4")
        assert rc == 2 and "not primitive" in err

    def test_lyndon_machine(self, capsys):
        rc, out, _ = run(capsys, "lyndon", "--format", "machine", "1011")
        assert rc == 0
        assert out == '{"word": "1011", "factors": [["1", 1], ["011", 1]]}\n'

    def test_christoffel_machine(self, capsys):
        rc, out, _ = run(capsys, "christoffel", "--format", "machine", "3", "1")
        assert rc == 0 and out == '{"a": 3, "b": 1, "word": "0001"}\n'


class TestRender:
    def test_stdout_svg(self, capsys):
        rc, out, _ = run(capsys, "render", "0123")
        assert rc == 0
        ET.fromstring(out)

    def test_svg_file(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        rc, out, _ = run(capsys, "render", "0123", "--svg", str(target))
        assert rc == 0
        ET.fromstring(target.read_text())

    def test_delta_labels(self, capsys):
        rc, out, _ = run(capsys, "render", "01012223211", "--labels", "delta")
        root = ET.fromstring(out)
        joined = "".join(
            el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
        )
        assert joined == "1311001330"

    def test_letter_labels(self, capsys):
        rc, out, _ = run(capsys, "render", "0123", "--labels", "letters")
        root = ET.fromstring(out)
        labels = [
            el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
        ]
        assert labels == ["0", "1", "2", "3"]

    def test_letter_labels_bytes_are_pinned(self, capsys):
        rc, out, err = run(capsys, "render", "0123", "--labels", "letters")
        assert rc == 0 and err == ""
        assert out == "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" width="72" height="72" viewBox="0 0 72 72">',
            '<g fill="#bbbbbb">',
            '<circle cx="24" cy="48" r="1.5"/>',
            '<circle cx="24" cy="24" r="1.5"/>',
            '<circle cx="48" cy="48" r="1.5"/>',
            '<circle cx="48" cy="24" r="1.5"/>',
            '</g>',
            '<polyline points="24,48 48,48 48,24 24,24 24,48"'
            ' fill="none" stroke="#202020" stroke-width="2"/>',
            '<circle cx="24" cy="48" r="4" fill="#c03030"/>',
            '<text x="40.0" y="44.0" font-size="12" font-family="monospace">0</text>',
            '<text x="52.0" y="32.0" font-size="12" font-family="monospace">1</text>',
            '<text x="40.0" y="20.0" font-size="12" font-family="monospace">2</text>',
            '<text x="28.0" y="32.0" font-size="12" font-family="monospace">3</text>',
            '</svg>',
            '',
        ])

    def test_requires_single_record(self, capsys):
        rc, _, err = run(capsys, "render", "0123", "0011")
        assert rc == 2 and "error:" in err


class TestGen:
    def test_deterministic(self, capsys):
        a = run(capsys, "gen", "--cells", "8", "--seed", "5")
        b = run(capsys, "gen", "--cells", "8", "--seed", "5")
        assert a == b and a[0] == 0

    def test_count(self, capsys):
        rc, out, _ = run(capsys, "gen", "--cells", "4", "--count", "3")
        assert len(out.splitlines()) == 3

    def test_machine(self, capsys):
        rc, out, _ = run(capsys, "gen", "--cells", "2", "--count", "2",
                         "--format", "machine")
        data = json.loads(out)
        assert set(data) == {"words"} and len(data["words"]) == 2

    def test_words_are_boundaries(self, capsys):
        from gridwords import is_closed, is_simple

        rc, out, _ = run(capsys, "gen", "--cells", "9", "--count", "4")
        for w in out.split():
            assert is_closed(w) and is_simple(w)


class TestOptionPlacement:
    """A subcommand accepts only the options it acts on: --check belongs to
    the four verdict commands and --format to every command but render."""

    @pytest.mark.parametrize("argv", [
        ("lyndon", "--check", "10"),
        ("christoffel", "--check", "3", "1"),
        ("gen", "--check"),
        ("render", "--check", "01"),
        ("render", "--format", "machine", "01"),
    ])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"error: unrecognized arguments: {argv[1]}" in err
