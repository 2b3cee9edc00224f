import hashlib
import random
from types import SimpleNamespace

import pytest

import gridwords.generate
from gridwords import (
    canonical_rotation,
    enclosed_cells,
    gen_random_polyomino,
    is_closed,
    is_simple,
    salient_reentrant,
    turning_number,
)


class TestSmallShapes:
    def test_single_cell(self):
        assert canonical_rotation(gen_random_polyomino(1, seed=0)) == "0123"
        assert canonical_rotation(gen_random_polyomino(1, seed=99)) == "0123"

    def test_two_cells(self):
        dominoes = {canonical_rotation("001223"), canonical_rotation("011233")}
        for seed in range(10):
            assert canonical_rotation(gen_random_polyomino(2, seed=seed)) in dominoes

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_random_polyomino(0)


class TestDeterminism:
    def test_same_seed_same_word(self):
        a = gen_random_polyomino(50, seed=42)
        b = gen_random_polyomino(50, seed=42)
        assert a == b

    def test_seeds_vary(self):
        words = {gen_random_polyomino(30, seed=s) for s in range(20)}
        assert len(words) > 1


class TestInvariants:
    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 13, 40, 120])
    def test_boundary_invariants(self, cells):
        for seed in range(15):
            w = gen_random_polyomino(cells, seed=seed)
            assert is_closed(w)
            assert is_simple(w)
            assert turning_number(w, circular=True).quarter_turns == 4
            s, r = salient_reentrant(w)
            assert s - r == 4
            assert len(enclosed_cells(w)) == cells
            assert len(w) % 2 == 0
            assert len(w) <= 2 * cells + 2


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestFrozenOutput:
    """Generated words frozen by SHA-256 digest, so that any change to the
    growth order or the contour trace shows."""

    def test_sweep(self):
        words = (
            gen_random_polyomino(c, s) for c in range(1, 401) for s in (0, 1, 7, 31 * c)
        )
        assert _sha256("\n".join(words)) == (
            "99e9d982121f47a550bb3bc32e2284a6f6ef2ec48f663ba808403c12d63d4cce"
        )

    @pytest.mark.parametrize(
        "cells, digest",
        [
            (1_000, "0cca0cd7f6ba87df12e64a3ffbabb870cea8302806e81cf2d886babbb2e392f4"),
            (3_000, "5bef3e26726fed39c74e89cc2dbeac29507121cb9c70de78007b3ff32549a808"),
            (10_000, "6fe7e19e19501e2c0de42919a48b9155238d9d0a2b3131b44ef6b7751f6e1119"),
        ],
    )
    def test_large(self, cells, digest):
        assert _sha256(gen_random_polyomino(cells, seed=cells)) == digest


class _ScriptedRandom:
    """Draws the scripted indices, and fails once they run out.

    Relative to the first cell, the first six grow the U {(0,0), (1,0),
    (2,0), (0,1), (2,1), (0,2), (2,2)}.  Index 11 then names (1,2), which
    would close the U round a hole, 200 times.  Index 4 grows (1,1), the
    hole, and the cell (1,2) it pushes is appended last.  Index 7 names a
    second entry for (1,1), now grown, which is swap-popped, so (1,2)
    moves to index 7, and the last pick grows it.  The generator draws an
    index below n as getrandbits(n.bit_length()), again while it is n or
    more; every scripted index is below the frontier's length, so each
    pick is one draw."""

    SCRIPT = (0, 3, 1, 6, 8, 10) + (11,) * 200 + (4, 7, 7)

    def __init__(self, seed=None):
        self.calls = []

    def getrandbits(self, k):
        i = self.SCRIPT[len(self.calls)]
        self.calls.append(k)
        return i


class _CountingTable:
    """The addable table, recording the ring byte of every lookup."""

    def __init__(self, table):
        self.table = table
        self.rings = []

    def __getitem__(self, ring):
        self.rings.append(ring)
        return self.table[ring]


def test_scripted_picks_drop_grown_entries_and_keep_blocked_ones(monkeypatch):
    stubs = []

    def make(seed=None):
        stubs.append(_ScriptedRandom(seed))
        return stubs[-1]

    table = _CountingTable(gridwords.generate._ADDABLE)
    monkeypatch.setattr(gridwords.generate, "random", SimpleNamespace(Random=make))
    monkeypatch.setattr(gridwords.generate, "_ADDABLE", table)
    word = gen_random_polyomino(9, seed=0)
    assert len(stubs[0].calls) == len(_ScriptedRandom.SCRIPT) == 209
    # one ring test per pick but the grown entry's
    assert len(table.rings) == 208
    # (1,2) touches (2,2), (0,2), (0,1) and (2,1): not addable until (1,1)
    # grows below it
    assert table.rings[6:206] == [0b10110001] * 200
    assert table.rings[-1] == 0b11110001
    assert word == "000111222333"
    assert len(enclosed_cells(word)) == 9 and is_simple(word)


class _BoundedRandom(random.Random):
    """A seeded generator that raises after 10,000 draws, so that a growth
    that never ends fails instead of hanging."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        if self.draws > 10_000:
            raise RuntimeError("more than 10,000 draws")
        return super().getrandbits(k)


@pytest.mark.parametrize("cells", (2.5, 3.0))
def test_a_cell_count_that_is_no_integer_raises(cells, monkeypatch):
    monkeypatch.setattr(
        gridwords.generate, "random", SimpleNamespace(Random=_BoundedRandom)
    )
    with pytest.raises(TypeError):
        gen_random_polyomino(cells, seed=0)
    # the bound lets a real growth through
    assert len(enclosed_cells(gen_random_polyomino(300, seed=0))) == 300
