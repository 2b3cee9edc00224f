"""Known answers at scale: Fibonacci snowflakes are double squares.

A polyomino has at most two square factorizations (Brlek, Provencal &
Fedou, DAM 2009), and every Fibonacci snowflake has exactly two (Blondin
Masse, Brlek, Garon & Labbe, TCS 412, 2011).  The snowflakes are built in
tests/helpers.py, so the answer does not come from the package; it holds
at sizes the exhaustive oracle cannot reach.
"""

import pytest

from gridwords import TileClass, bn_factorizations, classify, square_count
from helpers import fibonacci_snowflake, hat, reconstruct

SIZES = [
    (3, 12),
    (6, 36),
    (9, 140),
    (12, 580),
    (15, 2444),
    pytest.param(18, 10340, marks=pytest.mark.slow),
    pytest.param(21, 43788, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("order, length", SIZES)
def test_snowflake_is_a_double_square(order, length):
    word = fibonacci_snowflake(order)
    assert len(word) == length
    shift = length // 3
    for v in (word, hat(word), word[shift:] + word[:shift]):
        facts = bn_factorizations(v)
        assert len(facts) == 2 and all(f.is_square for f in facts)
        assert all(reconstruct(f, v) for f in facts)
        assert classify(v) is TileClass.SQUARE
        assert square_count(v) == 2
