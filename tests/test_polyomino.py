import pytest

from gridwords import (
    boundary_word,
    enclosed_cells,
    gen_random_polyomino,
    orient_ccw,
)
from helpers import (
    area_shoelace,
    boundary_words,
    corner_counts,
    fill_cells,
    is_polyomino_oracle,
)


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
        with pytest.raises(ValueError, match="simply connected"):
            boundary_word(ring - {(2, 2)})  # (1, 2) and (2, 1) meet at a corner

    @pytest.mark.parametrize(
        "empty", [[], set(), iter([]), (c for c in ())], ids=["list", "set", "iter", "gen"]
    )
    def test_rejects_empty_cell_sets(self, empty):
        with pytest.raises(ValueError, match="^empty cell set$"):
            boundary_word(empty)

    @pytest.mark.parametrize(
        "width, height",
        [(3, 4), pytest.param(4, 4, marks=pytest.mark.slow)],
    )
    def test_every_subset_of_a_box(self, width, height):
        """boundary_word raises exactly for the cell sets the oracle rejects;
        otherwise its word, started at the lowest-then-leftmost cell, runs
        counterclockwise round exactly these cells."""
        box = [(x, y) for y in range(height) for x in range(width)]
        for mask in range(1, 1 << len(box)):
            cells = {cell for k, cell in enumerate(box) if mask >> k & 1}
            if not is_polyomino_oracle(cells):
                with pytest.raises(
                    ValueError, match="^cells are not a simply connected polyomino$"
                ):
                    boundary_word(cells)
                continue
            word, (x0, y0) = boundary_word(cells)
            assert (x0, y0) == min(cells, key=lambda c: (c[1], c[0]))
            assert area_shoelace(word) > 0
            assert {(x + x0, y + y0) for x, y in fill_cells(word)} == cells


FAR = 10**12
# a hole-free pentomino whose contour turns both ways
PENTOMINO = {(0, 0), (1, 0), (1, 1), (2, 1), (1, 2)}


def _shifted(cells, dx, dy):
    return {(x + dx, y + dy) for x, y in cells}


def _containers(cells):
    """The same cells as a set, a list with duplicates, a frozenset and a
    one-shot iterator."""
    listed = sorted(cells)
    return [set(cells), listed + listed[::2], frozenset(cells), iter(listed)]


class TestFarCells:
    @pytest.mark.parametrize("dx, dy", [(FAR, -FAR), (-FAR, FAR), (0, 0)])
    def test_boundary_word_translates(self, dx, dy):
        for cells in _containers(_shifted(PENTOMINO, dx, dy)):
            assert boundary_word(cells) == ("001012123323", (dx, dy))

    @pytest.mark.parametrize("dx, dy", [(FAR, -FAR), (-FAR, FAR)])
    def test_enclosed_cells_translates(self, dx, dy):
        assert enclosed_cells("001012123323", start=(dx, dy)) == _shifted(
            PENTOMINO, dx, dy
        )
        assert enclosed_cells("00121233", start=(dx, dy)) == {
            (dx, dy), (dx + 1, dy), (dx, dy + 1)
        }

    @pytest.mark.parametrize("dx, dy", [(FAR, -FAR), (-FAR, FAR)])
    def test_rejects_bad_cell_sets(self, dx, dy):
        ring = {(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)}
        for cells in ({(0, 0), (2, 0)}, {(0, 0), (1, 1)}, {(1, 0), (0, 1)}, ring):
            for given in _containers(_shifted(cells, dx, dy)):
                with pytest.raises(
                    ValueError, match="^cells are not a simply connected polyomino$"
                ):
                    boundary_word(given)


class TestCornerCounts:
    def test_against_cell_oracle(self):
        from gridwords import salient_reentrant

        for n in range(4, 13, 2):
            for w in boundary_words(n):
                assert salient_reentrant(w) == corner_counts(enclosed_cells(w))
