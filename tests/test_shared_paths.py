"""Checks on the code shared by several verdicts: error messages, the
extremal split's corner points, and the convexity evidence the CLI prints."""

import pytest

from gridwords import (
    decide_convexity,
    detect_first_intersection,
    gen_random_polyomino,
    hat,
    is_digitally_convex,
    normalize,
    rotate,
    split_extremal,
    trace,
)


@pytest.mark.parametrize("func", [normalize, detect_first_intersection])
@pytest.mark.parametrize("word, bad", [("01é", "é"), ("0€12", "€"), ("x0", "x")])
def test_invalid_letter_names_the_character(func, word, bad):
    with pytest.raises(ValueError) as info:
        func(word)
    assert str(info.value) == f"invalid chain letter {bad!r}"


def _shapes():
    for cells in (1, 4, 9, 25, 60):
        for seed in range(6):
            w = gen_random_polyomino(cells, seed)
            yield w
            yield hat(w)


def test_split_corners_lie_on_the_traced_word():
    for w in _shapes():
        s = split_extremal(w)
        pos = trace(s.word)
        cuts = [0]
        for arc in s.arcs[:3]:
            cuts.append(cuts[-1] + len(arc))
        assert (s.w, s.s, s.e, s.n) == tuple(pos[c] for c in cuts), w


def test_decide_convexity_evidence():
    for w in _shapes():
        split, factors, convex = decide_convexity(w)
        assert split == split_extremal(w)
        assert convex == is_digitally_convex(w)
        for arc, fs, quarter in zip(split.arcs, factors, (1, 0, 3, 2)):
            assert rotate("".join(f * n for f, n in fs), -quarter)[::-1] == arc
