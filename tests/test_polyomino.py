import pytest

from gridwords import (
    boundary_word,
    enclosed_cells,
    gen_random_polyomino,
    orient_ccw,
)
from helpers import area_shoelace, boundary_words, corner_counts


class TestEnclosedCells:
    def test_frozen(self):
        assert enclosed_cells("0123") == {(0, 0)}
        assert enclosed_cells("011233") == {(0, 0), (0, 1)}
        assert enclosed_cells("001223") == {(0, 0), (1, 0)}
        assert enclosed_cells("00121233") == {(0, 0), (1, 0), (0, 1)}
        assert enclosed_cells("00112233") == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_start_translates(self):
        assert enclosed_cells("0123", start=(5, 5)) == {(5, 5)}
        assert enclosed_cells("011233", start=(-2, 3)) == {(-2, 3), (-2, 4)}

    def test_rejects_open_word(self):
        with pytest.raises(ValueError, match="closed word required"):
            enclosed_cells("0011")

    def test_orientation_irrelevant(self):
        from gridwords import hat

        for w in ["0123", "00121233", "010121232303"]:
            assert enclosed_cells(hat(w)) == enclosed_cells(w)

    def test_cell_count_equals_area(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                assert len(enclosed_cells(w)) == area_shoelace(w)


class TestBoundaryWord:
    def test_frozen(self):
        assert boundary_word({(0, 0)}) == ("0123", (0, 0))
        assert boundary_word({(0, 0), (0, 1)}) == ("011233", (0, 0))
        assert boundary_word({(3, 2), (4, 2)}) == ("001223", (3, 2))
        assert boundary_word({(0, 0), (1, 0), (0, 1)}) == ("00121233", (0, 0))

    def test_start_is_lowest_leftmost(self):
        cells = {(2, 5), (2, 6), (1, 6), (3, 5)}
        word, start = boundary_word(cells)
        assert start == (2, 5)
        assert word[0] == "0"

    def test_roundtrip_exhaustive(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                cells = enclosed_cells(w)
                word, start = boundary_word(cells)
                assert word == w
                assert enclosed_cells(word, start=start) == cells

    def test_roundtrip_generated(self):
        for seed in range(40):
            w = gen_random_polyomino(25, seed=seed)
            cells = enclosed_cells(orient_ccw(w))
            word, start = boundary_word(cells)
            assert enclosed_cells(word, start=start) == cells

    def test_rejects_bad_cell_sets(self):
        with pytest.raises(ValueError, match="simply connected"):
            boundary_word({(0, 0), (2, 0)})  # disconnected
        with pytest.raises(ValueError, match="simply connected"):
            boundary_word({(0, 0), (1, 1)})  # corner contact only
        ring = {
            (x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)
        }
        with pytest.raises(ValueError, match="simply connected"):
            boundary_word(ring)  # hole inside
        with pytest.raises(ValueError):
            boundary_word(set())


class TestCornerCounts:
    def test_against_cell_oracle(self):
        from gridwords import salient_reentrant

        for n in range(4, 13, 2):
            for w in boundary_words(n):
                assert salient_reentrant(w) == corner_counts(enclosed_cells(w))
