"""Long sweeps, left out of the default run; run them with `pytest -m slow`.

The symmetry laws of `test_symmetry_laws.py` on 1,500 seeded shapes, and
the word-route convexity verdict against the fill-and-hull oracle on
every boundary word of perimeter 16 and 18.
"""

import pytest

from gridwords import gen_random_polyomino, is_digitally_convex
from gridwords.chain import path_facts
from helpers import boundary_words, convexity_oracle
from test_symmetry_laws import images

pytestmark = pytest.mark.slow


def test_symmetry_laws_on_seeded_shapes():
    for k in range(1500):
        word = gen_random_polyomino(1 + k % 40, k)
        _, _, turning, corners = path_facts(word)
        convex = is_digitally_convex(word)
        for image, sign in images(word, 7 * k):
            c, s, t, r = path_facts(image)
            assert (c, s, r) == (True, True, corners), (word, image)
            assert t.quarter_turns == sign * turning.quarter_turns, (word, image)
            assert is_digitally_convex(image) == convex, (word, image)


@pytest.mark.parametrize("perimeter", [16, 18])
def test_convexity_routes_agree_exhaustively(perimeter):
    for w in boundary_words(perimeter):
        assert is_digitally_convex(w) == convexity_oracle(w), w
