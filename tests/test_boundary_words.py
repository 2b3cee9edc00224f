"""The enumerator behind every exhaustive sweep is complete.

`helpers.boundary_words(p)` gives one word per fixed polyomino of
perimeter p, so it must find exactly as many words as there are
self-avoiding polygons of perimeter p on the square lattice up to
translation (OEIS A002931), each once.
"""

import pytest

from helpers import boundary_words

# OEIS A002931: self-avoiding polygons of perimeter 2n up to translation
A002931 = {4: 1, 6: 2, 8: 7, 10: 28, 12: 124, 14: 588, 16: 2938, 18: 15268, 20: 81826}


@pytest.mark.parametrize(
    "perimeter",
    [*range(2, 19), pytest.param(20, marks=pytest.mark.slow)],
)
def test_one_word_per_self_avoiding_polygon(perimeter):
    words = boundary_words(perimeter)
    assert len(words) == A002931.get(perimeter, 0)
    assert len(set(words)) == len(words)
