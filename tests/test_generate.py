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


class _StallingRandom:
    """Grows the U {(0,0), (1,0), (2,0), (0,1), (2,1), (0,2), (2,2)}, then
    keeps picking frontier index 11, first the cell (1,2) that would close
    the U into a hole.  The generator draws an index below n as
    getrandbits(n.bit_length()), again while it is n or more; every
    scripted index is below the frontier's length, so each pick is one
    draw."""

    def __init__(self, seed=None):
        self.calls = []

    def getrandbits(self, k):
        script = (0, 3, 1, 6, 8, 10)
        i = script[len(self.calls)] if len(self.calls) < len(script) else 11
        self.calls.append(k)
        return min(i, (1 << k) - 1)


def test_stall_falls_back_to_first_addable_cell(monkeypatch):
    stubs = []

    def make(seed=None):
        stubs.append(_StallingRandom(seed))
        return stubs[-1]

    monkeypatch.setattr(gridwords.generate, "random", SimpleNamespace(Random=make))
    word = gen_random_polyomino(12, seed=0)
    # six picks grow the U; each of the five later cells comes from the
    # fallback after 65 misses in a row
    assert len(stubs[0].calls) == 6 + 5 * 65
    assert word == "01110330111112332112333333"
    assert len(enclosed_cells(word)) == 12 and is_simple(word)


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
