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
