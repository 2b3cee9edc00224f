import xml.etree.ElementTree as ET

import pytest

from gridwords import delta, render_svg, trace
from gridwords.render import MARGIN, MAX_DOTS, SCALE

SVG = "{http://www.w3.org/2000/svg}"


def parsed(svg):
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG}svg"
    return root


def texts(root):
    return [el.text for el in root.iter(f"{SVG}text")]


def circles(root, color):
    return [
        el
        for el in root.iter(f"{SVG}circle")
        if color in (el.get("fill"), el.get("stroke"))
    ]


class TestRenderSvg:
    def test_plain_word_parses(self):
        parsed(render_svg(trace("0123")))

    def test_empty_path(self):
        root = parsed(render_svg(trace("")))
        assert not list(root.iter(f"{SVG}polyline"))
        # the start marker is still there
        assert len(circles(root, "#c03030")) == 1

    def test_letter_labels(self):
        word = "0011"
        root = parsed(render_svg(trace(word), labels=list(word)))
        assert texts(root) == ["0", "0", "1", "1"]

    def test_delta_labels(self):
        word = "01012223211"
        labels = [None] + list(delta(word))
        root = parsed(render_svg(trace(word), labels=labels))
        assert "".join(texts(root)) == "1311001330"

    def test_start_marker_and_grid_dots(self):
        root = parsed(render_svg(trace("0123")))
        assert len(circles(root, "#c03030")) == 1
        # grid dots cover the bounding box
        dots = root.find(f"{SVG}g[@fill='#bbbbbb']")
        assert len(list(dots)) == 4

    def test_label_escaping(self):
        root = parsed(render_svg(trace("01"), labels=["<a>", "&"]))
        assert texts(root) == ["<a>", "&"]

    def test_svg_bytes_are_pinned(self):
        # Every character that needs escaping in text content, and a few
        # that must pass through as they are, against the exact bytes.
        labels = ["<a>", "&", '"q"', "'", "&amp;", ">", None, 5, "<&>"]
        assert render_svg(trace("0011223301"), labels=labels) == "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" width="96" height="96" viewBox="0 0 96 96">',
            '<g fill="#bbbbbb">',
            '<circle cx="24" cy="72" r="1.5"/>',
            '<circle cx="24" cy="48" r="1.5"/>',
            '<circle cx="24" cy="24" r="1.5"/>',
            '<circle cx="48" cy="72" r="1.5"/>',
            '<circle cx="48" cy="48" r="1.5"/>',
            '<circle cx="48" cy="24" r="1.5"/>',
            '<circle cx="72" cy="72" r="1.5"/>',
            '<circle cx="72" cy="48" r="1.5"/>',
            '<circle cx="72" cy="24" r="1.5"/>',
            '</g>',
            '<polyline points="24,72 48,72 72,72 72,48 72,24 48,24 24,24 24,48 24,72 48,72 48,48"'
            ' fill="none" stroke="#202020" stroke-width="2"/>',
            '<circle cx="24" cy="72" r="4" fill="#c03030"/>',
            '<text x="40.0" y="68.0" font-size="12" font-family="monospace">&lt;a&gt;</text>',
            '<text x="64.0" y="68.0" font-size="12" font-family="monospace">&amp;</text>',
            '<text x="76.0" y="56.0" font-size="12" font-family="monospace">"q"</text>',
            '<text x="76.0" y="32.0" font-size="12" font-family="monospace">\'</text>',
            '<text x="64.0" y="20.0" font-size="12" font-family="monospace">&amp;amp;</text>',
            '<text x="40.0" y="20.0" font-size="12" font-family="monospace">&gt;</text>',
            '<text x="28.0" y="56.0" font-size="12" font-family="monospace">5</text>',
            '<text x="40.0" y="68.0" font-size="12" font-family="monospace">&lt;&amp;&gt;</text>',
            '</svg>',
        ])

    def test_polyline_matches_trace(self):
        t = trace("0011")
        root = parsed(render_svg(t))
        line = next(iter(root.iter(f"{SVG}polyline")))
        pts = [
            tuple(int(v) for v in pair.split(","))
            for pair in line.attrib["points"].split()
        ]
        assert len(pts) == len(t)
        # y axis is flipped so larger path y means smaller pixel y
        assert pts[0] == (MARGIN * SCALE, (2 + MARGIN) * SCALE)
        assert pts[-1] == ((2 + MARGIN) * SCALE, MARGIN * SCALE)


class TestRenderLimit:
    def test_box_over_limit_raises(self):
        # a 1025x1025 box: 1,050,625 points, just over 2^20
        with pytest.raises(ValueError) as exc:
            render_svg(trace("0" * 1024 + "1" * 1024))
        assert str(exc.value) == (
            "render of a 1025x1025 box would draw 1050625 grid dots; "
            f"the limit is {MAX_DOTS}"
        )
        assert MAX_DOTS == 1 << 20

    def test_no_vertex_raises(self):
        with pytest.raises(ValueError, match="^render needs at least one vertex$"):
            render_svg([])
