import gc
import itertools
import time
import tracemalloc

import pytest

from gridwords import (
    boundary_word,
    enclosed_cells,
    gen_random_polyomino,
    hat,
    is_closed,
    is_digitally_convex,
    is_nw_convex,
    is_simple,
    split_extremal,
)
from helpers import (
    boundary_words,
    convex_hull,
    convexity_oracle,
    cross,
    extremal_points_oracle,
    fill_cells,
    gauss_disk,
    nw_convex_oracle,
)


def _fields(split):
    return (split.word, split.arcs, split.w, split.s, split.e, split.n)


class TestHull:
    def test_cross_sign(self):
        assert cross((0, 0), (1, 0), (0, 1)) > 0
        assert cross((0, 0), (0, 1), (1, 0)) < 0
        assert cross((0, 0), (1, 1), (2, 2)) == 0

    def test_staircase(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
        upper, lower = convex_hull(pts)
        assert upper == [(0, 0), (2, 2)]
        assert lower == [(2, 2), (2, 0), (0, 0)]

    def test_singleton_and_collinear(self):
        assert convex_hull([(3, 4)]) == ([(3, 4)], [(3, 4)])
        upper, lower = convex_hull([(0, 0), (1, 0), (2, 0)])
        assert upper == [(0, 0), (2, 0)]
        assert lower == [(2, 0), (0, 0)]

    def test_duplicates_ignored(self):
        a = convex_hull([(0, 0), (1, 1), (0, 0), (1, 1), (2, 0)])
        b = convex_hull([(0, 0), (1, 1), (2, 0)])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            convex_hull([])

    def test_square(self):
        upper, lower = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert upper == [(0, 0), (0, 1), (1, 1)]
        assert lower == [(1, 1), (1, 0), (0, 0)]


class TestNWConvex:
    def test_frozen(self):
        assert is_nw_convex("")
        assert is_nw_convex("0")
        assert is_nw_convex("1")
        assert is_nw_convex("1011010100010")
        assert is_nw_convex("10")
        assert not is_nw_convex("0011")
        assert not is_nw_convex("00110")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            is_nw_convex("021")

    def test_exhaustive_vs_oracle(self):
        for n in range(0, 15):
            for tup in itertools.product("01", repeat=n):
                w = "".join(tup)
                assert is_nw_convex(w) == nw_convex_oracle(w), w


class TestSplitExtremal:
    def test_unit_square(self):
        s = split_extremal("0123")
        assert s.word == "0123"
        assert s.arcs == ("0", "1", "2", "3")
        assert (s.w, s.s, s.e, s.n) == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_big_square(self):
        s = split_extremal("00112233")
        assert s.arcs == ("00", "11", "22", "33")
        assert (s.w, s.s, s.e, s.n) == ((0, 0), (2, 0), (2, 2), (0, 2))

    def test_l_tromino(self):
        s = split_extremal("00121233")
        assert s.arcs == ("00", "1", "212", "33")
        assert (s.w, s.s, s.e, s.n) == ((0, 0), (2, 0), (2, 1), (0, 2))

    def test_arcs_rejoin(self):
        for w in ["0123", "00121233", "010121232303", "0001212233"]:
            s = split_extremal(w)
            assert "".join(s.arcs) == s.word

    def test_orientation_normalized(self):
        assert split_extremal(hat("0123")) == split_extremal("0123")

    def test_rotation_invariant(self):
        base = split_extremal("00121233")
        w = "00121233"
        for k in range(1, 8):
            assert split_extremal(w[k:] + w[:k]) == base

    def test_rejects_non_boundary(self):
        for w in ["", "02", "0011", "002002"]:
            with pytest.raises(ValueError, match="not a boundary word"):
                split_extremal(w)

    def test_vs_oracle_on_small_words(self):
        for n in range(4, 15, 2):
            for w in boundary_words(n):
                for v in (w, hat(w)):
                    for k in (0, n // 3, 2 * n // 3):
                        c = v[k:] + v[:k]
                        assert _fields(split_extremal(c)) == extremal_points_oracle(c), c

    def test_vs_oracle_on_generated(self):
        for k in range(500):
            w = gen_random_polyomino(1 + k % 120, seed=k)
            assert _fields(split_extremal(w)) == extremal_points_oracle(w), w

    @pytest.mark.parametrize("r", [250, 1250])
    def test_vs_oracle_on_disks(self, r):
        # the disk's bottom row lies r below W, the middle of its left side
        w = gauss_disk(r)
        split = split_extremal(w)
        assert _fields(split) == extremal_points_oracle(w)
        assert split.s[1] == split.w[1] - r < 0


class TestDigitalConvexity:
    def test_frozen_positive(self):
        for w in ["0123", "00112233", "00121233", "001223", "010121232303"]:
            assert is_digitally_convex(w), w
            assert convexity_oracle(w), w

    def test_frozen_positive_small_blocks(self):
        # every shape of perimeter 10 or less is digitally convex; the first
        # counterexamples need a hull point with no cell, like the U below
        assert is_digitally_convex("0001212233")  # 2x2 block plus a step

    def test_frozen_negative(self):
        u_word, _ = boundary_word({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)})
        for w in ["000111233223", u_word]:
            assert not is_digitally_convex(w), w
            assert not convexity_oracle(w), w

    def test_orientation_invariant(self):
        assert is_digitally_convex(hat("00121233"))
        assert not is_digitally_convex(hat("000111233223"))

    def test_rejects_non_boundary(self):
        with pytest.raises(ValueError):
            is_digitally_convex("0011")
        with pytest.raises(ValueError):
            is_digitally_convex("")

    def test_exhaustive_vs_oracle(self):
        for n in range(4, 13, 2):
            for w in boundary_words(n):
                assert is_digitally_convex(w) == convexity_oracle(w), w

    def test_dent_flip(self):
        # fat disk of 37 cells; swapping a corner in the middle of the rising
        # staircase removes a cell that stays inside the hull, so both routes
        # must flip to non-convex
        cells = {
            (i, j)
            for i in range(-3, 4)
            for j in range(-3, 4)
            if i * i + j * j <= 12
        }
        assert len(cells) == 37
        word, start = boundary_word(cells)
        assert is_digitally_convex(word)
        assert convexity_oracle(word)
        k = word.index("101") + 1
        dented = word[:k] + "10" + word[k + 2:]
        assert is_closed(dented) and is_simple(dented)
        new_cells = enclosed_cells(dented, start=start)
        assert len(new_cells) == 36 and new_cells < cells
        assert not is_digitally_convex(dented)
        assert not convexity_oracle(dented)


def disk_images(r):
    """The Gauss disk of radius r, its hat and one conjugate."""
    word = gauss_disk(r)
    k = len(word) // 3
    return word, hat(word), word[k:] + word[:k]


@pytest.mark.parametrize("r", [250, 1250])
def test_gauss_disks_are_convex(r):
    for w in disk_images(r):
        assert is_digitally_convex(w)


@pytest.mark.parametrize(
    "r", [10, 25, pytest.param(40, marks=pytest.mark.slow), pytest.param(60, marks=pytest.mark.slow)]
)
def test_one_cell_removals_from_a_disk(r):
    """Each boundary cell c of a Gauss disk S taken out in turn: S - {c} is
    convex exactly when c lies outside the hull of the rest, and the word
    route, on the contour and on its hat, agrees with fill-and-hull."""
    cells = fill_cells(gauss_disk(r))
    verdicts = set()
    for x, y in sorted(cells):
        if {(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)} <= cells:
            continue
        rest = cells - {(x, y)}
        try:
            word, _ = boundary_word(rest)
        except ValueError:  # the rest is not one simply connected piece
            continue
        convex = is_digitally_convex(word)
        assert convex == is_digitally_convex(hat(word)) == convexity_oracle(word), (x, y)
        assert convex != (convex_hull(rest | {(x, y)}) == convex_hull(rest)), (x, y)
        verdicts.add(convex)
    assert verdicts == {False, True}


def test_linear_scaling():
    # disks of 100,004 and 200,004 letters, best of 3 GC-off timings each,
    # the two timed in turn so that a change in host speed falls on both
    words = (gauss_disk(12_500), gauss_disk(25_000))
    times = ([], [])
    for _ in range(3):
        for word, ts in zip(words, times):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            is_digitally_convex(word)
            ts.append(time.perf_counter() - t0)
            gc.enable()
    t1, t2 = map(min, times)
    assert t2 <= 2.5 * t1, (t1, t2)


def test_peak_memory_per_letter():
    word = gauss_disk(12_500)
    gc.collect()
    tracemalloc.start()
    try:
        is_digitally_convex(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(word), peak / len(word)
