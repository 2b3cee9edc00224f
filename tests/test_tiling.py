import gc
import itertools
import time

from gridwords import (
    TileClass,
    bn_factorizations,
    classify,
    gen_random_polyomino,
    hat,
    is_closed,
    is_simple,
    square_count,
    trace,
    turning_number,
)
from helpers import boundary_words, reconstruct

PLUS = "010121232303"


class TestFrozenFactorizations:
    def test_unit_square(self):
        facts = bn_factorizations("0123")
        assert len(facts) == 1
        assert facts[0].cuts == (0, 1, 2, 3)
        assert facts[0].blocks == ("0", "1", "")
        assert facts[0].is_square
        assert classify("0123") is TileClass.SQUARE
        assert square_count("0123") == 1

    def test_horizontal_domino(self):
        facts = bn_factorizations("001223")
        assert [(f.cuts, f.blocks) for f in facts] == [
            ((0, 1, 2, 3, 4, 5), ("0", "0", "1")),
            ((0, 2, 3, 5), ("00", "1", "")),
        ]
        assert classify("001223") is TileClass.SQUARE
        assert square_count("001223") == 1

    def test_vertical_domino(self):
        facts = bn_factorizations("011233")
        assert ((0, 1, 3, 4), ("0", "11", "")) in [
            (f.cuts, f.blocks) for f in facts
        ]
        assert square_count("011233") == 1

    def test_plus_pentomino(self):
        facts = bn_factorizations(PLUS)
        assert len(facts) == 2
        assert [(f.cuts, f.blocks) for f in facts] == [
            ((0, 3, 6, 9), ("010", "121", "")),
            ((1, 4, 7, 10), ("101", "212", "")),
        ]
        assert classify(PLUS) is TileClass.SQUARE
        assert square_count(PLUS) == 2

    def test_l_tromino_hexagon_only(self):
        facts = bn_factorizations("00121233")
        assert [(f.cuts, f.blocks) for f in facts] == [
            ((1, 2, 3, 5, 6, 7), ("0", "1", "21")),
        ]
        assert classify("00121233") is TileClass.HEXAGON
        assert square_count("00121233") == 0

    def test_p_pentomino_hexagon_only(self):
        facts = bn_factorizations("0001212233")
        assert [(f.cuts, f.blocks) for f in facts] == [
            ((1, 3, 4, 6, 8, 9), ("00", "1", "21")),
        ]
        assert classify("0001212233") is TileClass.HEXAGON

    def test_non_exact(self):
        for w in ["000111232323", "000112123233", "000121212333"]:
            assert bn_factorizations(w) == []
            assert classify(w) is TileClass.NOT_EXACT
            assert square_count(w) == 0


class TestDegenerateInputs:
    def test_empty_and_odd(self):
        assert bn_factorizations("") == []
        assert bn_factorizations("010") == []
        assert classify("") is TileClass.NOT_EXACT

    def test_open_word(self):
        assert bn_factorizations("00") == []

    def test_non_simple_closed_word(self):
        assert bn_factorizations("0202") == []
        assert bn_factorizations("00102232") == []


class TestFactorizationLaws:
    def test_reconstruct_everything_small(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                for f in bn_factorizations(w):
                    assert reconstruct(f, w), (w, f)

    def test_square_count_at_most_two(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                assert square_count(w) <= 2, w

    def test_cuts_are_antipodal(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                half = n // 2
                for f in bn_factorizations(w):
                    assert {(c + half) % n for c in f.cuts} == set(f.cuts)

    def test_conjugation_invariance(self):
        for w in [PLUS, "00121233", "001223"]:
            base = [(f.cuts, f.blocks) for f in bn_factorizations(w)]
            for k in range(1, len(w)):
                conj = w[k:] + w[:k]
                assert [(f.cuts, f.blocks) for f in bn_factorizations(conj)] == base
                assert classify(conj) is classify(w)
                assert square_count(conj) == square_count(w)

    def test_hat_invariance(self):
        for n in (4, 6, 8, 10):
            for w in boundary_words(n):
                assert classify(hat(w)) is classify(w), w
                assert square_count(hat(w)) == square_count(w), w

    def test_generated_polyominoes(self):
        for seed in range(30):
            w = str(gen_random_polyomino(12, seed=seed))
            facts = bn_factorizations(w)
            assert square_count(w) <= 2
            for f in facts:
                assert reconstruct(f, w)


class TestSquareConstruction:
    def test_all_simple_double_paths_factor_as_squares(self):
        # every simple closed word of shape X Y hat(X) hat(Y) must be found
        for nx in (1, 2, 3):
            for ny in (1, 2, 3):
                for xt in itertools.product("0123", repeat=nx):
                    x = "".join(xt)
                    for yt in itertools.product("0123", repeat=ny):
                        y = "".join(yt)
                        w = x + y + hat(x) + hat(y)
                        if not is_simple(w):
                            continue
                        if abs(turning_number(w, circular=True).quarter_turns) != 4:
                            continue
                        assert square_count(w) >= 1, w

    def test_staircase_square(self):
        # a parallelogram-like tile with stepped sides
        x, y = "010", "11"
        w = x + y + hat(x) + hat(y)
        assert is_simple(w) and is_closed(w)
        assert square_count(w) >= 1
        assert classify(w) is TileClass.SQUARE

    def test_rectangles(self):
        for a in range(1, 5):
            for b in range(1, 5):
                w = "0" * a + "1" * b + "2" * a + "3" * b
                assert classify(w) is TileClass.SQUARE
                assert square_count(w) >= 1
                for f in bn_factorizations(w):
                    assert reconstruct(f, w)


def _timed_search(word, runs=3):
    best = None
    for _ in range(runs):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            bn_factorizations(word)
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        best = dt if best is None else min(best, dt)
    return best


def test_search_scales_linearly_on_squares():
    # a k x k square has about 2k^2 valid blocks and 2k - 1 factorizations;
    # 4x the side costs 4x for linear work and 16x for quadratic
    small, large = ("0" * k + "1" * k + "2" * k + "3" * k for k in (400, 1600))
    t_small, t_large = _timed_search(small), _timed_search(large)
    assert t_large <= 10 * t_small, (t_small, t_large)
