"""Fill and contour round trip on every small polyomino.

`enclosed_cells` (a scanline fill) is checked against the helpers' flood
fill, and `boundary_word` against the word that was filled, for every
boundary word of perimeter at most 16 in both orientations.
"""

from gridwords import boundary_word, enclosed_cells, hat
from helpers import area_shoelace, boundary_words, fill_cells


def _words():
    for p in range(4, 17, 2):
        for w in boundary_words(p):
            yield w
            yield hat(w)


def _is_rotation(a, b):
    return len(a) == len(b) and a in b + b


def test_enclosed_cells_matches_flood_fill():
    count = 0
    for w in _words():
        assert enclosed_cells(w) == fill_cells(w), w
        count += 1
    assert count == 2 * 3688


def test_boundary_word_round_trip():
    for w in _words():
        ccw = w if area_shoelace(w) > 0 else hat(w)
        assert area_shoelace(ccw) > 0, w
        assert _is_rotation(boundary_word(enclosed_cells(w))[0], ccw), w
