import pytest

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
