"""The palindrome-radius tiling search against the exhaustive cubic search."""

import itertools
import random

from gridwords import bn_factorizations, hat, is_simple
from helpers import bn_factorizations_oracle, boundary_words, min_rotation_brute

SIDES = (1, 2, 3, 5, 8, 13, 21, 34, 50)


def pairs(word):
    return [(f.cuts, f.blocks) for f in bn_factorizations(word)]


def rectangle(a, b):
    return "0" * a + "1" * b + "2" * a + "3" * b


def staircase(rng, letters, length):
    """Random word over two adjacent letters, so the tile stays simple often."""
    return "".join(rng.choice(letters) for _ in range(length))


def built_tiles(seed, count, hexagon):
    """Simple boundaries X Y Z hat(X) hat(Y) hat(Z), each with the cut set
    it was built with, on its least rotation."""
    rng = random.Random(seed)
    tiles = []
    while len(tiles) < count:
        x = staircase(rng, "01", rng.randint(1, 12))
        y = staircase(rng, "12", rng.randint(1, 12))
        z = staircase(rng, "23", rng.randint(1, 12)) if hexagon else ""
        word = x + y + z + hat(x) + hat(y) + hat(z)
        if not is_simple(word):
            continue
        n, h = len(word), len(word) // 2
        k = min_rotation_brute(word)
        cuts = {0, len(x), len(x + y), h, h + len(x), h + len(x + y)}
        tiles.append((word, tuple(sorted({(c - k) % n for c in cuts}))))
    return tiles


def test_every_word_up_to_length_8():
    # includes "02", which retraces its one edge: not simple, so the search
    # never runs, and the oracle's rule against two empty blocks agrees
    for n in range(0, 9, 2):
        for letters in itertools.product("0123", repeat=n):
            w = "".join(letters)
            assert pairs(w) == bn_factorizations_oracle(w), w


def test_every_boundary_word_up_to_perimeter_16():
    checked = 0
    for n in range(4, 17, 2):
        for w in boundary_words(n):
            for v in (w, hat(w)):
                assert pairs(v) == bn_factorizations_oracle(v), v
                checked += 1
    assert checked == 7376


def test_squares_up_to_side_50():
    for k in range(1, 51):
        w = rectangle(k, k)
        got = pairs(w)
        assert got == bn_factorizations_oracle(w), k
        assert len(got) == 2 * k - 1


def test_rectangles_both_orientations():
    for a in SIDES:
        for b in SIDES:
            for w in (rectangle(a, b), hat(rectangle(a, b))):
                assert pairs(w) == bn_factorizations_oracle(w), (a, b)


def test_built_square_and_hexagon_tiles():
    tiles = built_tiles(2011, 60, hexagon=False) + built_tiles(1991, 60, hexagon=True)
    for word, cuts in tiles:
        got = pairs(word)
        assert got == bn_factorizations_oracle(word), word
        assert cuts in [c for c, _ in got], word
