"""Radix quadtree over first-quadrant lattice points with lazy neighbor links.

Supports walking a chain-code path one unit step at a time while detecting
the first revisited grid point.  The tree's nodes are 32x32 tiles of
points with a byte of visited mark per point, so a step inside a tile only
moves an offset.  Navigation never hashes coordinates: a step out of a tile
either moves to a sibling tile under the same father, follows a memoized
neighbor link, or reconstructs the neighbor as a child of the father's
neighbor.  The walker flips siblings and reads the memo in its own loop;
one resolver, `_neighbor`, handles every miss, recursing up the tree.
A straight run that enters a tile crosses all its whole tiles in one inner
loop, which tests and sets each tile's line of marks with one slice each.

Nodes store no coordinates.  A tile's binary digits are the slots on the
tree path from the root down to its node, a point's place in its tile is
its mark's offset, and the walk reads a point only at the first revisit,
where the letter counts of the word spell it.
"""

import functools
import re
from array import array

# Per letter: the slot bit the step flips, and the value of that bit for
# which the neighbor keeps the father.  A node's slot is x%2 + 2*(y%2).
_MOVE = ((1, 0), (2, 0), (1, 1), (2, 2))

# Points per tile side, a power of 2.  A tile's marks are a block of
# 2**_BLOCK bytes, the mark of point (x, y) at _SIDE*(y%_SIDE) + x%_SIDE.
_SIDE = 32
_SHIFT = _SIDE.bit_length() - 1  # point (x, y) lies in tile (x, y) >> _SHIFT
_BLOCK = 2 * _SHIFT
_LAST = _SIDE - 1

# Per letter: the mask of the coordinate the step changes in a mark offset,
# its value on the tile edge the step leaves by, the offset to the target
# inside the tile, and the offset to it across the edge.
_TILE = (
    (_LAST, _LAST, 1, -_LAST),
    (_SIDE * _LAST, _SIDE * _LAST, _SIDE, -_SIDE * _LAST),
    (_LAST, 0, -1, _LAST),
    (_SIDE * _LAST, 0, -_SIDE, _SIDE * _LAST),
)
# Per letter: the codes of a run that crosses a tile whole, and the stride
# between the marks of a line along the letter.
_LINE = tuple((bytes((eps,)) * _SIDE, (1, _SIDE)[eps & 1]) for eps in range(4))
# Per letter: the match of the longest run of that letter from an index.
_RUN_END = tuple(re.compile(re.escape(bytes((eps,))) + b"*").match for eps in range(4))
_CLEAR_LINE = bytes(_SIDE)
_FULL_LINE = b"\x01" * _SIDE
_NO_MARKS = bytes(1 << _BLOCK)  # a new tile's marks

# Chain letters to letter codes 0-3, for walking an encoded word.
_CODES = bytes.maketrans(b"0123", bytes(range(4)))

# Nodes a new tree has room for before its storage first doubles, and the
# zeroed storage it copies.
_START_NODES = 64
_BLANK = array("i", bytes(4 * _START_NODES))


def father_point(x, y):
    """Drop the last binary digit of each coordinate."""
    return x >> 1, y >> 1


def sibling_condition(eps, x, y):
    """True iff (x,y) and its eps-neighbor share a father.

    Decided by the last bit of the coordinate the step changes; when false,
    the neighbor's father is instead the father's eps-neighbor.
    """
    if not 0 <= eps <= 3:
        raise ValueError(f"letter out of range: {eps!r}")
    bit, keep = _MOVE[eps]
    return ((x & 1) + 2 * (y & 1)) & bit == keep


class QuadGraph:
    """Growing quadtree graph tracking visited points of a lattice walk.

    Seeds the walk at `start` (first quadrant) and exposes `step`, which
    moves the current point by one letter and reports whether the target
    was already visited.

    The tree's nodes are 32x32 tiles of points: the node of tile (X, Y)
    stands for the points (32X + i, 32Y + j), 0 <= i, j < 32.  The tree
    lives in flat arrays indexed by node id, so no Python object is made per
    node.  Nodes are allocated four siblings at a time: node k has slot
    k & 3 and father `_up[k >> 2]`, `_kids[k]` is the id of its first child
    (0 if it has none), and `_links[eps][k]` memoizes its eps-neighbor when
    that is not a sibling (0 if unknown).  Group 0 holds the root's
    children; the root is node 0, the origin's tile, its own father and its
    own 0-child.  A tile gets its marks on its first visit: 1,024 bytes of
    `_marks` from byte 1,024 * `_blk[k]`, point (32X + i, 32Y + j) at
    32j + i.  `_blk[k]` is 0 while unset, and block 0 is the root's.  The
    walker stands on node `_node` at mark `_pos`.  Coordinates live only in
    the tree path, whose slots spell their binary digits, in the mark
    offsets and in the word being walked.  Node and block ids are C ints; a
    tree of 2^31 nodes would take about 54 GB in its id arrays alone, and
    each of its visited tiles 1,024 bytes more, so memory runs out before the
    ids do.
    """

    def __init__(self, start=(0, 0)):
        sx, sy = start
        if sx < 0 or sy < 0:
            raise ValueError("start must lie in the first quadrant")
        self._up = _BLANK[: _START_NODES >> 2]
        self._kids = _BLANK[:]
        self._links = (_BLANK[:], _BLANK[:], _BLANK[:], _BLANK[:])
        self._blk = _BLANK[:]
        self._marks = bytearray(_NO_MARKS)  # block 0, the root tile's
        self._end = 4  # the next free node id: group 0 is taken
        tx, ty = sx >> _SHIFT, sy >> _SHIFT
        seed = 0
        for k in range(max(tx.bit_length(), ty.bit_length()) - 1, -1, -1):
            seed = self._first_child(seed) + (tx >> k & 1) + 2 * (ty >> k & 1)
        self._node = seed
        self._pos = self._first_mark(seed) + _SIDE * (sy & _LAST) + (sx & _LAST)
        self._marks[self._pos] = 1

    def _first_child(self, f):
        """Id of node f's 0-child, allocating f's four children if missing."""
        first = self._kids[f]
        if first or not f:  # the root's children are group 0
            return first
        first = self._end
        if first == len(self._kids):  # double every array in place
            zeros = array("i", bytes(4 * first))
            for a in (self._kids, self._blk, *self._links):
                a.extend(zeros)
            self._up.extend(zeros[: first >> 2])
        self._end = first + 4
        self._up[first >> 2] = f
        self._kids[f] = first
        return first

    def _first_mark(self, k):
        """Offset of node k's marks in `_marks`, allocating them if missing."""
        b = self._blk[k]
        if not b and k:  # block 0 is the root's
            b = self._blk[k] = len(self._marks) >> _BLOCK
            self._marks.extend(_NO_MARKS)
        return b << _BLOCK

    def _neighbor(self, k, eps):
        """The eps-neighbor of node k, when it is no sibling and not memoized.

        It is then a child of the father's eps-neighbor, which is found the
        same way: a sibling, a memoized link, or a call one level up.  The
        child is allocated if missing and linked to k both ways.  This is
        the walker's one resolver of memo misses.  A step off the quadrant
        climbs to the root, which raises ValueError before anything changes.
        """
        if not k:  # the root: the step leaves N x N
            raise ValueError("out of quadrant")
        bit, keep = _MOVE[eps]
        link = self._links[eps]
        f = self._up[k >> 2]
        if f & bit == keep:
            f ^= bit
        else:
            f = link[f] or self._neighbor(f, eps)
        n = self._first_child(f) + ((k & 3) ^ bit)
        link[k] = n
        self._links[eps ^ 2][n] = k
        return n

    def step(self, eps):
        """Move the current point one unit in direction eps.

        Returns True iff the target point was already visited; the target is
        marked visited either way.  A step out of the first quadrant raises
        ValueError and changes nothing.
        """
        if not 0 <= eps <= 3:
            raise ValueError(f"letter out of range: {eps!r}")
        return self._first_revisit(bytes((eps,))) is not None

    def _first_revisit(self, codes):
        """Walk `bytes` of letter codes 0-3; letters taken up to the first
        revisit.

        None if every target is new.  Trusts its input: callers validate.
        A step inside a tile only moves the mark offset.  A step out of a
        tile flips to a sibling tile or reads the memo; a miss goes to
        `_neighbor`.  Node 0, the origin's tile, is the root and its own
        father, and its left and down neighbors are never linked, so a step
        off the quadrant climbs in `_neighbor` to the root and raises before
        anything changes.

        A step into a tile whose letter begins a run of at least `_SIDE`
        equal letters reads the run's length once and crosses its whole
        tiles in one inner loop, moving the letters' iterator once per run.
        Each pass steps into the next tile and tests its line along the
        letter with one slice; a clear line is set with one slice and the
        loop goes on from its far end.  A marked line stops the loop in the
        tile just entered, which is walked letter by letter from its entry
        letter, so the index returned and the marks, node and offset left
        are those of the plain walk.
        """
        tile = _TILE
        move = _MOVE
        line = _LINE
        clear, full, side = _CLEAR_LINE, _FULL_LINE, _SIDE
        block, offset = _BLOCK, (1 << _BLOCK) - 1
        links = self._links
        blk = self._blk
        marks = self._marks
        runs_from = codes.startswith
        cur = self._node
        pos = self._pos
        # A bytes iterator tells how many letters it has left and can be
        # moved on, so the loop needs no index of its own.
        n = len(codes)
        letters = iter(codes)
        left = letters.__length_hint__
        seek = letters.__setstate__
        for eps in letters:
            mask, edge, delta, wrap = tile[eps]
            if pos & mask != edge:
                pos += delta
            else:
                bit, keep = move[eps]
                run, stride = line[eps]
                # Letter k enters the tile.  When it begins a run of `side`
                # letters or more, the run's whole tiles end at letter `last`.
                k = last = n - left() - 1
                if runs_from(run, k):
                    last = k + ((_RUN_END[eps](codes, k).end() - k) & -side) - 1
                while k <= last:  # step into the tile that letter k enters
                    if cur & bit == keep:
                        cur ^= bit
                    else:
                        cur = links[eps][cur] or self._neighbor(cur, eps)
                    base = blk[cur] << block or self._first_mark(cur)
                    pos = base + (pos & offset) + wrap
                    if k == last:
                        break  # no whole tile to cross: walk letter k
                    first = pos & ~mask
                    stop = first + side * stride
                    if marks[first:stop:stride] != clear:
                        seek(k + 1)  # walk this tile from its entry letter
                        break
                    marks[first:stop:stride] = full
                    pos ^= mask  # the line's far end
                    k += side
                else:  # every whole tile is crossed: go on from letter k
                    seek(k)
                    continue
            if marks[pos]:
                self._node, self._pos = cur, pos
                return n - left()
            marks[pos] = 1
        self._node, self._pos = cur, pos
        return None


def letter_counts(word):
    """The numbers of 0s, 1s, 2s and 3s in a chain word.

    Raises ValueError naming the first letter that is none of these, and
    TypeError for a word that is not a str (a list or tuple of letters
    would count too).  The four counts add up to the word's length exactly
    when every letter is a chain letter; a `strip` runs only to name the
    bad one.
    """
    if not isinstance(word, str):
        raise TypeError(f"chain word must be str, not {type(word).__name__}")
    counts = word.count("0"), word.count("1"), word.count("2"), word.count("3")
    if sum(counts) != len(word):
        raise ValueError(f"invalid chain letter {word.strip('0123')[0]!r}")
    return counts


def _point_after(word, i, end):
    """The point word[:i] reaches from (0,0), (#0 - #2, #1 - #3), unsliced:
    `end`, the whole word's, at i = len(word), less the suffix's counts for
    i past the middle, else the prefix's counts."""
    n = len(word)
    if i == n:
        return end
    count = word.count
    if 2 * i <= n:
        return count("0", 0, i) - count("2", 0, i), count("1", 0, i) - count("3", 0, i)
    x, y = end
    return x - count("0", i) + count("2", i), y - count("1", i) + count("3", i)


@functools.lru_cache(maxsize=1)
def _walk(word):
    """(letter counts, first revisit) of a chain word, from one walk.

    The counts are letter_counts(word), which also seed the walk's start;
    the revisit is detect_first_intersection(word).  Remembers its last
    word, keyed by equality: verdicts called on equal words walk once, at
    the cost of one hash per new string object (cached on the string).
    The last word walked stays alive until the next walk; `cache_info()`
    counts hits and real walks.
    """
    right, up, left, down = counts = letter_counts(word)
    i = QuadGraph((left, down))._first_revisit(word.encode().translate(_CODES))
    if i is None:
        return counts, None
    return counts, (i, _point_after(word, i, (right - left, up - down)))


def detect_first_intersection(word):
    """First revisited point of the path, as (1-based letter index, point).

    Returns None when all visited points are distinct.  A closed word's
    final return to its start counts as a revisit; callers that allow
    closure must check the index themselves.  Points are reported in the
    original frame (path started at (0,0)), as the prefix letter counts
    (#0 - #2, #1 - #3) of the letters walked.  The walk starts at (number
    of 2s, number of 3s), which no prefix can take out of the quadrant.
    One walk per word: the walk is shared with the other verdicts called
    on an equal word (`_walk`).
    """
    return _walk(word)[1]
