import gc
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwords import (
    QuadGraph,
    detect_first_intersection,
    father_point,
    rotate,
    sibling_condition,
)
from gridwords.quadgraph import _CODES, _MOVE, _SIDE
from helpers import STEP, first_intersection_oracle, revisit_flags


# Read-only views of a QuadGraph's tree, through its flat arrays.  Nodes
# are S x S tiles of points, S = _SIDE, and they come four siblings at a
# time: node k has slot k & 3, father g._up[k >> 2] and first child
# g._kids[k] (0 for none, except at the root, whose children are group 0).
# Nodes hold no coordinates: each tile (X, Y) is spelled by the slots on
# its tree path.  A visited tile's marks are the S*S bytes of g._marks from
# S*S * g._blk[k] (block 0 is the root's), with point (S*X + i, S*Y + j) at
# mark S*j + i.
_AREA = _SIDE * _SIDE


def _walk(g):
    """Every node with its tile, read off the slots from the root down."""
    stack = [(0, 0, 0)]
    while stack:
        node, x, y = stack.pop()
        yield node, (x, y)
        first = g._kids[node]
        if first or node == 0:
            for slot in range(4):
                if first + slot != node:  # the root is its own 0-child
                    stack.append((first + slot, 2 * x + (slot & 1), 2 * y + (slot >> 1)))


def _tile(g, node):
    """A node's tile, read off the slots on the climb to the root."""
    x = y = k = 0
    while node != 0:
        slot = node & 3
        x |= (slot & 1) << k
        y |= (slot >> 1) << k
        k += 1
        node = g._up[node >> 2]
    return x, y


def node_count(g):
    return sum(1 for _ in _walk(g))


def tiles(g):
    return frozenset(t for _, t in _walk(g))


def visited_points(g):
    """Every marked point, read off the marks of the tiles that have them."""
    seen = set()
    for node, (x, y) in _walk(g):
        if node == 0 or g._blk[node]:
            first = _AREA * g._blk[node]
            for mark in re.finditer(rb"[^\x00]", g._marks[first:first + _AREA]):
                m = mark.start()
                seen.add((_SIDE * x + m % _SIDE, _SIDE * y + m // _SIDE))
    return frozenset(seen)


def _state(g):
    """All that a step can change: the tree, its link memo, the marks and
    the walker's place, byte for byte."""
    return (
        node_count(g),
        visited_points(g),
        *map(bytes, (g._up, g._kids, g._blk, *g._links, g._marks)),
        (g._node, g._pos),
    )


def _find(g, tile):
    x, y = tile
    if x < 0 or y < 0:
        return None
    node = 0
    for k in range(max(x.bit_length(), y.bit_length()) - 1, -1, -1):
        first = g._kids[node]
        if not first and node != 0:
            return None
        node = first + ((x >> k) & 1) + 2 * ((y >> k) & 1)
    return node


def father(g, tile):
    """Father tile of an existing node; None for the root or absent tiles."""
    node = _find(g, tile)
    if node is None or node == 0:
        return None
    return _tile(g, g._up[node >> 2])


def link(g, tile, eps):
    """Known eps-neighbor tile of an existing node, or None.

    A sibling is always known; any other neighbor only once memoized.
    """
    node = _find(g, tile)
    if node is None:
        return None
    bit, keep = _MOVE[eps]
    if node & bit == keep:
        return _tile(g, node ^ bit)
    n = g._links[eps][node]
    return None if n == 0 else _tile(g, n)


class TestFatherPoint:
    def test_values(self):
        assert father_point(0, 0) == (0, 0)
        assert father_point(5, 7) == (2, 3)
        assert father_point(1, 0) == (0, 0)
        assert father_point(-1, -1) == (-1, -1)
        assert father_point(-2, 3) == (-1, 1)

    def test_halving(self):
        for x in range(-8, 9):
            for y in range(-8, 9):
                fx, fy = father_point(x, y)
                assert fx * 2 <= x < fx * 2 + 2
                assert fy * 2 <= y < fy * 2 + 2


class TestSiblingCondition:
    def test_parity_table(self):
        assert sibling_condition(0, 4, 9)
        assert not sibling_condition(0, 5, 9)
        assert sibling_condition(1, 5, 8)
        assert not sibling_condition(1, 5, 9)
        assert sibling_condition(2, 5, 8)
        assert not sibling_condition(2, 4, 8)
        assert sibling_condition(3, 4, 9)
        assert not sibling_condition(3, 4, 8)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            sibling_condition(4, 0, 0)

    def test_father_law_sample(self):
        # same father iff the sibling condition holds, else shifted one unit
        for x in range(0, 40):
            for y in range(0, 40):
                f = father_point(x, y)
                for eps, (dx, dy) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
                    g = father_point(x + dx, y + dy)
                    if sibling_condition(eps, x, y):
                        assert g == f
                    else:
                        assert g == (f[0] + dx, f[1] + dy)


# The 0011 walk at tile scale: one tile per letter.
_TILE_0011 = "0" * (2 * _SIDE) + "1" * (2 * _SIDE)


class TestGraphConstruction:
    def test_initial_graph(self):
        g = QuadGraph()
        # group 0 alone: the root tile (0,0) is its own 0-child, beside the
        # tiles (1,0), (0,1) and (1,1); its neighbors are siblings, known
        # without a link
        assert node_count(g) == 4
        assert visited_points(g) == {(0, 0)}
        assert tiles(g) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert link(g, (0, 0), 0) == (1, 0)
        assert link(g, (0, 0), 1) == (0, 1)
        assert link(g, (1, 0), 2) == (0, 0)

    def test_translated_start(self):
        g = QuadGraph((5, 3))
        assert visited_points(g) == {(5, 3)}
        assert g.step(0) is False
        assert visited_points(g) == {(5, 3), (6, 3)}

    def test_start_must_be_in_quadrant(self):
        with pytest.raises(ValueError):
            QuadGraph((-1, 2))

    def test_walkthrough_0011(self):
        g = QuadGraph()
        revisits = [g.step(int(c)) for c in "0011"]
        assert revisits == [False, False, False, False]
        assert visited_points(g) == {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)}
        # every step stays inside the root tile: only its marks change
        assert node_count(g) == 4
        # The same walk at tile scale, each letter taken S = _SIDE times.
        # Group 0 holds the tiles (0,0), (1,0), (0,1), (1,1).  Then:
        #   0^S: tile (0,0) -> (1,0), a sibling: nothing new.
        #   0^S: tile (1,0) -> (2,0), not a sibling: the father (0,0) steps
        #        to its sibling (1,0), whose children (2,0), (3,0), (2,1),
        #        (3,1) come as group 1.
        #   1^S: tile (2,0) -> (2,1), a sibling in group 1: nothing new.
        #   1^S: tile (2,1) -> (2,2), not a sibling: the father (1,0) steps
        #        to its sibling (1,1), whose children (2,2), (3,2), (2,3),
        #        (3,3) come as group 2.
        # Three groups of four: 12 nodes.
        g = QuadGraph()
        revisits = [g.step(int(c)) for c in _TILE_0011]
        assert not any(revisits)
        assert node_count(g) == 12
        assert visited_points(g) == (
            {(x, 0) for x in range(2 * _SIDE + 1)}
            | {(2 * _SIDE, y) for y in range(2 * _SIDE + 1)}
        )
        assert tiles(g) == {
            (0, 0), (1, 0), (0, 1), (1, 1),
            (2, 0), (3, 0), (2, 1), (3, 1),
            (2, 2), (3, 2), (2, 3), (3, 3),
        }
        # neighbor links created on the way, both directions
        assert link(g, (1, 0), 1) == (1, 1)
        assert link(g, (1, 1), 3) == (1, 0)
        assert link(g, (2, 1), 1) == (2, 2)
        assert link(g, (2, 2), 3) == (2, 1)

    def test_fathers(self):
        g = QuadGraph()
        for c in _TILE_0011:
            g.step(int(c))
        assert father(g, (0, 0)) is None  # the root is its own father
        assert father(g, (2, 2)) == (1, 1)
        assert father(g, (1, 1)) == (0, 0)
        assert father(g, (2, 1)) == (1, 0)

    def test_step_reports_revisit(self):
        g = QuadGraph()
        assert g.step(0) is False
        assert g.step(2) is True  # back onto the start
        assert g.step(0) is True

    def test_step_rejects_out_of_quadrant(self):
        g = QuadGraph()
        with pytest.raises(ValueError, match="out of quadrant"):
            g.step(2)
        g2 = QuadGraph()
        with pytest.raises(ValueError, match="out of quadrant"):
            g2.step(3)

    def test_step_rejects_bad_letter(self):
        g = QuadGraph()
        with pytest.raises(ValueError):
            g.step(4)

    def test_links_are_bidirectional(self):
        g = QuadGraph()
        rng = random.Random(10)
        x = y = 0
        for _ in range(4000):
            choices = [e for e, (dx, dy) in enumerate(
                ((1, 0), (0, 1), (-1, 0), (0, -1))
            ) if x + dx >= 0 and y + dy >= 0]
            e = rng.choice(choices)
            g.step(e)
            dx, dy = ((1, 0), (0, 1), (-1, 0), (0, -1))[e]
            x, y = x + dx, y + dy
        linked = 0
        for p in list(tiles(g))[:200]:
            for e, (dx, dy) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
                q = link(g, p, e)
                if q is not None:
                    assert q == (p[0] + dx, p[1] + dy)
                    assert link(g, q, (e + 2) % 4) == p
                    linked += 1
        assert linked > 0

    def test_determinism(self):
        word = "001122010101332211" * 3
        sets = []
        for _ in range(2):
            g = QuadGraph((6, 6))
            for c in word:
                g.step(int(c))
            sets.append((node_count(g), tiles(g), visited_points(g)))
        assert sets[0] == sets[1]


class TestDetect:
    def test_frozen(self):
        assert detect_first_intersection("002") == (3, (1, 0))
        assert detect_first_intersection("0123") == (4, (0, 0))
        assert detect_first_intersection("0011") is None
        assert detect_first_intersection("2") is None
        assert detect_first_intersection("") is None

    def test_exhaustive_short_words(self):
        for n in range(1, 8):
            for tup in itertools.product("0123", repeat=n):
                w = "".join(tup)
                assert detect_first_intersection(w) == first_intersection_oracle(w)

    def test_random_long_words(self):
        rng = random.Random(12)
        for _ in range(60):
            w = "".join(rng.choice("0123") for _ in range(400))
            assert detect_first_intersection(w) == first_intersection_oracle(w)

    def test_visited_count_matches(self):
        rng = random.Random(13)
        for _ in range(50):
            w = "".join(rng.choice("0123") for _ in range(120))
            g = QuadGraph((w.count("2"), w.count("3")))
            revisits = sum(g.step(int(c)) for c in w)
            assert len(visited_points(g)) == len(w) + 1 - revisits


# Walks on the quadrant's seam, where neighbor resolution climbs fathers up
# to the top of the tree: each leg runs along x = 0, steps off it, wanders
# parallel to it and comes back onto it.  Swapping the axes puts the seam on
# y = 0.
_SWAP_AXES = str.maketrans("0123", "1032")

seam_legs = st.builds(
    lambda legs, swap: [leg.translate(_SWAP_AXES) if swap else leg for leg in legs],
    st.lists(
        st.builds(
            lambda along, run, away, wander: along * run + "0" * away + wander + "2" * away,
            st.sampled_from("13"),
            st.integers(0, 40),
            st.integers(0, 3),
            st.text("13", max_size=6),
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)


class TestSeam:
    @given(seam_legs)
    def test_seam_walks_agree_with_hash_set(self, legs):
        word = "".join(legs)
        assert detect_first_intersection(word) == first_intersection_oracle(word)
        # the lowest-leftmost start that keeps the walk in the quadrant,
        # so that the walk meets the axes
        x = y = low_x = low_y = 0
        for c in word:
            x, y = x + STEP[c][0], y + STEP[c][1]
            low_x, low_y = min(low_x, x), min(low_y, y)
        x, y = -low_x, -low_y
        g = QuadGraph((x, y))
        flags = []
        for leg in legs:
            for c in leg:
                flags.append(g.step(int(c)))
                x, y = x + STEP[c][0], y + STEP[c][1]
            for eps, coordinate in ((2, x), (3, y)):
                if coordinate == 0:
                    before = _state(g)
                    with pytest.raises(ValueError, match="out of quadrant"):
                        g.step(eps)
                    assert _state(g) == before
        assert flags == revisit_flags(word)


# Runs of one letter, each up to 12 long, so that walks cross tile edges in
# every direction.
tile_runs = st.lists(
    st.tuples(st.sampled_from("0123"), st.integers(1, 12)), min_size=1, max_size=12
)


class TestTileEdges:
    @given(st.integers(0, 2), st.integers(0, 2), tile_runs)
    def test_every_offset_agrees_with_hash_set(self, tx, ty, runs):
        # the same runs from each of the _AREA offsets inside tile (tx, ty);
        # a step that would leave the quadrant is dropped; most offsets keep
        # every step, so the oracle's flags are worked out once per word
        flags = {}
        for sx in range(_SIDE * tx, _SIDE * tx + _SIDE):
            for sy in range(_SIDE * ty, _SIDE * ty + _SIDE):
                x, y = sx, sy
                word = []
                for c, run in runs:
                    dx, dy = STEP[c]
                    for _ in range(run):
                        if x + dx >= 0 and y + dy >= 0:
                            x, y = x + dx, y + dy
                            word.append(c)
                word = "".join(word)
                if word not in flags:
                    flags[word] = revisit_flags(word)
                g = QuadGraph((sx, sy))
                assert [g.step(int(c)) for c in word] == flags[word]

    def test_steps_off_the_quadrant_from_the_root_tile(self):
        # from each column of the root tile downward, from each row leftward
        for k in range(_SIDE):
            for start, off, away, back in (((k, 0), 3, 1, 3), ((0, k), 2, 0, 2)):
                g = QuadGraph(start)
                before = _state(g)
                with pytest.raises(ValueError, match="out of quadrant"):
                    g.step(off)
                assert _state(g) == before
                # the walker still stands on the start
                assert g.step(away) is False
                assert g.step(back) is True


# Straight runs into tile (4, 4), the points [4S, 5S) x [4S, 5S) with S =
# _SIDE, from each of its four edges: a word written for a run along 0 from
# the left is turned a quarter turn at a time about the tile's centre.  The
# tile lies far enough from the axes for every turned word to stay in the
# quadrant.
_LOW = 4 * _SIDE


def _turned(point, quarter_turns, low=_LOW):
    """The point turned about the centre of the tile whose lowest point is
    (low, low)."""
    x, y = point
    for _ in range(quarter_turns):
        x, y = 2 * low + _SIDE - 1 - y, x
    return x, y


class _CountedLetters:
    """An iterator over letter codes that counts the letters taken from it
    one at a time; it moves on like the bytes iterator it wraps."""

    def __init__(self, codes):
        self._letters = iter(codes)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        code = next(self._letters)
        self.taken += 1
        return code

    def __length_hint__(self):
        return self._letters.__length_hint__()

    def __setstate__(self, index):
        self._letters.__setstate__(index)


class _Codes(bytes):
    """Letter codes whose iterator is a `_CountedLetters`, kept as .letters."""

    def __iter__(self):
        self.letters = _CountedLetters(bytes(self))
        return self.letters


class TestLineSkip:
    @staticmethod
    def walk_whole(start, word):
        """The encoded word's first revisit, walked by `_first_revisit` at
        once; checked against the hash-set walk, and its marks and final
        place against a step-by-step walk of the letters it took."""
        g = QuadGraph(start)
        i = g._first_revisit(word.encode().translate(_CODES))
        hit = first_intersection_oracle(word)
        assert i == (hit and hit[0]), (start, word)
        plain = QuadGraph(start)
        for c in word[:i]:
            plain.step(int(c))
        assert visited_points(g) == visited_points(plain), (start, word)
        assert (g._node, g._pos) == (plain._node, plain._pos), (start, word)
        return i

    def test_runs_from_every_entry_offset(self):
        # a run of 1-40 letters enters the tile at each offset of each
        # edge: short of a line, a whole line, and on into the next tiles;
        # then the same run back along the next line closes a loop
        for turn in range(4):
            for k in range(_SIDE):
                start = _turned((_LOW - 1, _LOW + k), turn)
                for run in range(1, 41):
                    for word in ("0" * run, "0" * run + "1" + "2" * run + "3"):
                        self.walk_whole(start, rotate(word, turn))

    def test_a_clear_line_takes_one_letter(self):
        # a run through 4 tiles from the edge of the first, and one letter
        # more: the run's first letter is taken, its 4 whole tiles are
        # crossed at once, and the last letter is taken on its own
        for turn in range(4):
            g = QuadGraph(_turned((_LOW - 1, _LOW + 5), turn))
            word = rotate("0" * (4 * _SIDE + 1), turn)
            codes = _Codes(word.encode().translate(_CODES))
            assert g._first_revisit(codes) is None
            assert codes.letters.taken == 2

    def test_runs_across_several_whole_tiles(self):
        # runs of 2-5 whole tiles and 0, 1 or 31 letters more enter the
        # tile (8, 8) at each offset of each edge and end the word, or turn
        # up or down, so that the runs of 0 more letters turn on a tile
        # edge, and come back along the next line to close a loop
        low = 8 * _SIDE
        for turn in range(4):
            for k in range(_SIDE):
                start = _turned((low - 1, low + k), turn, low)
                for tiles in range(2, 6):
                    for more in (0, 1, _SIDE - 1):
                        run = "0" * (tiles * _SIDE + more)
                        back = "2" * len(run)
                        for word in (run, run + "1" + back + "3", run + "3" + back + "1"):
                            i = self.walk_whole(start, rotate(word, turn))
                            assert i == (None if word == run else len(word))

    def test_a_mark_on_the_run_stops_it_in_each_tile(self):
        # start on point p of line k in tile j of a run of 5 whole tiles
        # from the tile (8, 8), step off the line, and come back to the
        # edge before the first tile: the run crosses j whole tiles and is
        # walked letter by letter in tile j, where it revisits the start
        low = 8 * _SIDE
        for turn in range(4):
            for k in (0, 7, _SIDE - 1):
                for j in range(5):
                    for p in range(_SIDE):
                        gap = j * _SIDE + p + 1  # letters from the edge to the start
                        start = _turned((low - 1 + gap, low + k), turn, low)
                        word = "1" + "2" * gap + "3" + "0" * (5 * _SIDE + 1)
                        i = self.walk_whole(start, rotate(word, turn))
                        assert i == 2 * gap + 2

    def test_a_mark_on_the_line_is_found_at_each_point(self):
        # start on point j of line k, step off it, and come back into the
        # tile along line k with a run longer than the line: the run is
        # walked letter by letter and revisits the start
        for turn in range(4):
            for k in range(_SIDE):
                for j in range(_SIDE):
                    start = _turned((_LOW + j, _LOW + k), turn)
                    word = "1" + "2" * (j + 2) + "3" + "0" * (2 * _SIDE)
                    assert self.walk_whole(start, rotate(word, turn)) == 2 * j + 6


def test_peak_memory_per_letter():
    # a random {0,1} word never revisits, so every letter adds a point; a
    # straight run touches a new tile every _SIDE letters (a path that
    # crosses a tile line back and forth touches more: see the next test)
    for word in ("".join(random.Random(16).choices("01", k=1 << 16)), "0" * (1 << 16)):
        tracemalloc.start()
        try:
            detect_first_intersection(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * len(word)


def dipping_word(n, seed):
    """About n letters along a tile line: a run of 0s that steps down
    across the line and back up every 16-64 columns.  The walk starts at
    (number of 2s, number of 3s); the number of dips is a multiple of
    _SIDE, so the run lies on the bottom row of its tiles and each dip
    enters the tile below it."""
    rng = random.Random(seed)
    gaps = [rng.randint(16, 64) for _ in range(n // 43)]
    return "".join("0" * gap + "301" for gap in gaps[: len(gaps) // _SIDE * _SIDE])


def test_peak_memory_on_a_tile_line():
    # the run's tiles take their marks, and so do the tiles below the line
    # that its dips enter: up to two blocks of _SIDE * _SIDE bytes for each
    # _SIDE columns
    word = dipping_word(1 << 16, 18)
    assert word.count("3") % _SIDE == 0
    tracemalloc.start()
    try:
        assert detect_first_intersection(word) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _SIDE * len(word)


def test_walk_makes_no_tracked_object_per_node():
    # the tree is flat arrays: walking adds nodes, not objects for the GC
    word = "".join(random.Random(17).choices("01", k=1 << 14))
    gc.disable()
    try:
        g = QuadGraph()
        before = len(gc.get_objects())
        for c in word:
            g.step(int(c))
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown <= 64
