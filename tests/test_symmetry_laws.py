"""Symmetry laws of the boundary verdicts on random polyominoes (hypothesis).

Under the 4 rotations, the 4 reflections, conjugation and hat, a boundary
word stays closed and simple with the same corner counts (S, R) and the
same convexity verdict.  Its turning number is kept by rotations and
conjugation and negated by reflections and hat, which reverse orientation.
"""

from hypothesis import given
from hypothesis import strategies as st

from gridwords import gen_random_polyomino, hat, is_digitally_convex, reflect, rotate
from gridwords.chain import path_facts

polyominoes = st.builds(
    lambda cells, seed: str(gen_random_polyomino(cells, seed)),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)


def images(word, shift):
    """Every symmetric image of word, with the sign it gives the turning number."""
    k = shift % len(word)
    yield from ((rotate(word, i), 1) for i in range(4))
    yield from ((reflect(word, axis), -1) for axis in range(4))
    yield word[k:] + word[:k], 1
    yield hat(word), -1


@given(polyominoes, st.integers(0, 10**6))
def test_path_facts_laws(word, shift):
    closed, simple, turning, corners = path_facts(word)
    assert closed and simple and corners is not None
    for image, sign in images(word, shift):
        c, s, t, r = path_facts(image)
        assert (c, s, r) == (closed, simple, corners)
        assert t.quarter_turns == sign * turning.quarter_turns


@given(polyominoes, st.integers(0, 10**6))
def test_convexity_verdict_laws(word, shift):
    convex = is_digitally_convex(word)
    for image, _ in images(word, shift):
        assert is_digitally_convex(image) == convex
