"""Long sweeps, left out of the default run; run them with `pytest -m slow`.

The symmetry laws of `test_symmetry_laws.py` on 1,500 seeded shapes, the
word-route convexity verdict against the fill-and-hull oracle on every
boundary word of perimeter 16 and 18, the known convex verdict on Gauss
disks of 10^5 and 10^6 letters, and the quadtree walk against the
hash-set walk on 2^20-letter paths, whose trees outgrow their first
storage many times over and whose straight runs cross tiles whole.
"""

import pytest

from gridwords import (
    detect_first_intersection,
    gen_random_polyomino,
    is_digitally_convex,
    rotate,
)
from gridwords.chain import path_facts
from gridwords.quadgraph import _SIDE
from helpers import (
    boundary_words,
    convexity_oracle,
    first_intersection_oracle,
    gauss_disk,
)
from test_convexity import disk_images
from test_quadgraph import dipping_word
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


@pytest.mark.parametrize("r", [12_500, 125_000])
def test_large_gauss_disks_are_convex(r):
    for w in disk_images(r):
        assert is_digitally_convex(w)


def _long_walk(kind, n=1 << 20):
    """An n-letter serpentine with rows 517 steps wide; the same with a
    step down into the row below 300 letters from its end; a closed simple
    comb of teeth 480 tall, of about n letters, turned k quarter turns in
    "comb<k>"; the spiral of `_spiral`; the tile-line word of
    `dipping_word`; or the boundary of the Gauss-digitized disk of radius
    125,000, 1,000,004 letters."""
    if kind == "dips":
        return dipping_word(n, 20)
    if kind == "disk":
        return gauss_disk(125_000)
    if kind.startswith("comb"):
        teeth = (n - 2) // 962
        tooth = "1" * 480 + "0" + "3" * 480 + "0"
        comb = tooth * teeth + "3" + "2" * (2 * teeth) + "1"
        return rotate(comb, int(kind[4:] or 0))
    if kind == "spiral":
        return _spiral(n)[0]
    row = "0" * 517 + "1" + "2" * 517 + "1"
    serpentine = (row * (n // len(row) + 1))[:n]
    return serpentine if kind == "serpentine" else serpentine[:-300] + "3" * 300


def _spiral(n, side=1470):
    """An n-letter inward spiral, its rings 2 apart and its first sides
    `side` letters long, whose last side runs on past its corner into the
    ring outside it; and the index of that revisit, 2 letters past the
    corner."""

    def length(k):
        return side - 2 * (max(k - 1, 0) // 2)

    sides, k, total = [], 0, 0
    while n - total - length(k) >= length(k + 1) + 18:
        sides.append(str(k % 4) * length(k))
        total += length(k)
        k += 1
    sides.append(str(k % 4) * (n - total))
    return "".join(sides), total + length(k) + 2


# Straight runs cross whole tile lines along all four letters in the turned
# combs and in the spiral.  The tile-line word crosses one line back and
# forth; the disk's runs are short, most of them single letters.
@pytest.mark.parametrize(
    "kind",
    ["serpentine", "comb", "revisit", "comb1", "comb2", "comb3", "spiral", "dips", "disk"],
)
def test_long_walks_agree_with_hash_set(kind):
    word = _long_walk(kind)
    want = first_intersection_oracle(word)
    if kind == "serpentine":
        assert want is None
    elif kind == "dips":
        assert want is None and word.count("3") % _SIDE == 0
    elif kind.startswith("comb") or kind == "disk":
        assert want == (len(word), (0, 0))  # simple: only the closing return
    elif kind == "spiral":
        assert want[0] == _spiral(len(word))[1]
        # The last run, of 3s, enters the tile of its revisit with more than
        # a line of letters left, so that line is found marked and walked
        # letter by letter.  From the walk's start, (number of 2s, number of
        # 3s), the revisited point lies inside its tile along the run.
        assert word[-1] == "3" and len(word) - want[0] >= _SIDE
        assert 0 < (want[1][1] + word.count("3")) % _SIDE < _SIDE - 1
    else:
        assert want[0] > len(word) - 300
    assert detect_first_intersection(word) == want
