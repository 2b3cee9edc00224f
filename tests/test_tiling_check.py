"""The hat-factor check that rejects most boundaries before the tiling search.

In X Y Z hat(X) hat(Y) hat(Z) the blocks have n/2 letters in all, so the
longest block is a long common cyclic factor of the word and of its hat.
`tiling._may_tile` looks for a piece of one; when none is there, the word
is not exact, and `bn_factorizations` returns [] without walking it.  The
check is sound when every word it rejects has no factorization: here
against the exhaustive search of tests/helpers.py, against the search
with the check switched off, and on families known to tile.
"""

import pytest

from gridwords import bn_factorizations, chain, gen_random_polyomino, hat, quadgraph, tiling
from helpers import bn_factorizations_oracle, boundary_words, fibonacci_snowflake, gauss_disk
from test_tiling_layout import _traced_search
from test_tiling_oracle import built_tiles, rectangle

PERIMETERS = [
    *range(4, 17, 2),
    pytest.param(18, marks=pytest.mark.slow),
    pytest.param(20, marks=pytest.mark.slow),
]


def conjugates(word):
    return [word[k:] + word[:k] for k in range(len(word))]


@pytest.mark.parametrize("perimeter", PERIMETERS)
def test_rejections_are_sound_on_every_boundary_word(perimeter):
    # The oracle reads its input from the least rotation, so one call
    # answers for every conjugate; hat(w) is another polyomino's boundary.
    # The check is made for long words, and rejects few of these: none up
    # to 12 letters, where its chunks are single letters, then 112
    # conjugates at perimeter 14, 64 at 16, none at 18 and 160 at 20.
    exact = 0
    for w in boundary_words(perimeter):
        for v in (w, hat(w)):
            tiles = bool(bn_factorizations_oracle(v))
            for c in conjugates(v):
                assert tiling._may_tile(c) or not tiles, c
            exact += tiles
    assert exact > 0


def test_rejections_are_sound_on_random_polyominoes(monkeypatch):
    # The check rejects 34 of these; short words share short factors.
    words = [gen_random_polyomino(20 + seed % 61, seed) for seed in range(300)]
    assert not all(tiling._may_tile(w) for w in words)
    found = [bn_factorizations(w) for w in words]
    monkeypatch.setattr(tiling, "_may_tile", lambda word: True)
    assert [bn_factorizations(w) for w in words] == found


def test_exact_families_pass():
    words = [rectangle(a, b) for a in (1, 2, 7, 40) for b in (1, 3, 40)]
    words += [fibonacci_snowflake(order) for order in (3, 6, 9, 12, 15)]
    words += [w for w, _ in built_tiles(7, 30, hexagon=False) + built_tiles(8, 30, hexagon=True)]
    for w in words:
        for v in (w, hat(w)):
            for k in (0, 1, len(v) // 3, len(v) // 2, len(v) - 1):
                assert tiling._may_tile(v[k:] + v[:k]), (v, k)


def test_a_rejected_word_is_never_walked(monkeypatch):
    def no_walk(word):
        raise AssertionError("is_simple called on " + word[:20])

    monkeypatch.setattr(tiling, "is_simple", no_walk)
    # a disk, a 61-cell polyomino, and a disk with a retraced edge
    for w in (gauss_disk(250), gen_random_polyomino(61, 41), gauss_disk(250) + "13"):
        assert not tiling._may_tile(w), w
        assert bn_factorizations(w) == []
    with pytest.raises(AssertionError, match="is_simple called"):
        bn_factorizations(rectangle(3, 2))


def test_letters_are_counted_once_per_scan(monkeypatch):
    # is_closed counts the letters, and so does the walk that is_simple
    # makes; the hat factor check and the search reuse that verdict.
    calls = []
    letter_counts = quadgraph.letter_counts

    def counting(word):
        calls.append(len(word))
        return letter_counts(word)

    monkeypatch.setattr(chain, "letter_counts", counting)
    monkeypatch.setattr(quadgraph, "letter_counts", counting)
    for word, expected in [(rectangle(30, 20), 2), (gauss_disk(250), 1)]:
        quadgraph._walk.cache_clear()
        calls.clear()
        bn_factorizations(word)
        assert calls == [len(word)] * expected, word[:20]


@pytest.mark.parametrize("r", [250, 1250])
def test_gauss_disks_are_rejected(r):
    disk = gauss_disk(r)
    assert len(disk) == 8 * r + 4
    for v in (disk, hat(disk), disk[r:] + disk[:r]):
        assert not tiling._may_tile(v)
        assert bn_factorizations(v) == []


def test_memory_per_letter_on_a_disk():
    # The check holds the doubled word and the doubled hat, about 5 B per
    # letter; the search it saves peaked at about 718 B per letter.
    disk = gauss_disk(1250)
    facts, peak, _ = _traced_search(disk)
    n = len(disk)
    assert facts == []
    assert peak <= 16 * n, peak / n
