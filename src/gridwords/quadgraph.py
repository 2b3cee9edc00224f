"""Radix quadtree over first-quadrant lattice points with lazy neighbor links.

Supports walking a chain-code path one unit step at a time while detecting
the first revisited grid point.  Navigation never hashes coordinates: a
step either follows a memoized neighbor link or reconstructs the neighbor
through the father level, where the two points are siblings or their
fathers are neighbors in turn.

Nodes store no coordinates.  A point's binary digits are the slots on the
tree path from the root down to its node, and the walk reads a point only
at the first revisit, where the letter counts of the word spell it.
"""

# Node layout: [father, slot, visited, 4 children, 4 links].  Plain lists
# keep per-node overhead low enough for million-step paths.
_FATHER, _SLOT, _VISITED = 0, 1, 2
_CHILD = 3  # four slots indexed by alpha + 2*beta, child point (2x+alpha, 2y+beta)
_LINK = 7   # four slots indexed by letter, neighbor link memo

# Per letter: the slot bit the step flips, and the value of that bit for
# which the neighbor keeps the father.  A node's slot is x%2 + 2*(y%2).
_MOVE = ((1, 0), (2, 0), (1, 1), (2, 2))

# Chain letters to letter codes 0-3, for walking an encoded word.
_CODES = bytes.maketrans(b"0123", bytes(range(4)))


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


def _child(parent, slot):
    node = parent[_CHILD + slot]
    if node is None:
        node = [parent, slot, False, None, None, None, None, None, None, None, None]
        parent[_CHILD + slot] = node
    return node


def _link(a, eps, b):
    a[_LINK + eps] = b
    b[_LINK + ((eps + 2) & 3)] = a


def _neighbor(node, eps):
    n = node[_LINK + eps]
    if n is not None:
        return n
    bit, keep = _MOVE[eps]
    slot = node[_SLOT]
    f = node[_FATHER]
    if slot & bit != keep:
        if f is node:  # only the root is its own father: the step leaves N x N
            raise ValueError("out of quadrant")
        f = _neighbor(f, eps)
    n = _child(f, slot ^ bit)
    _link(node, eps, n)
    return n


class QuadGraph:
    """Growing quadtree graph tracking visited points of a lattice walk.

    Starts with the origin plus its two axis neighbors (linked), seeds the
    walk at `start` (first quadrant), and exposes `step`, which moves the
    current point by one letter and reports whether the target was already
    visited.

    A node is the list [father, slot, visited, 4 children, 4 links].  The
    root is the origin: its own father and its own 0-child.  Coordinates
    live only in the tree path, whose slots spell their binary digits, and
    in the word being walked.
    """

    def __init__(self, start=(0, 0)):
        root = [None, 0, False, None, None, None, None, None, None, None, None]
        root[_FATHER] = root[_CHILD] = root  # the origin halves and doubles to itself
        self._root = root
        _link(root, 0, _child(root, 1))
        _link(root, 1, _child(root, 2))
        sx, sy = start
        if sx < 0 or sy < 0:
            raise ValueError("start must lie in the first quadrant")
        seed = root
        for k in range(max(sx.bit_length(), sy.bit_length()) - 1, -1, -1):
            seed = _child(seed, (sx >> k & 1) + 2 * (sy >> k & 1))
        seed[_VISITED] = True
        self._current = seed

    def step(self, eps):
        """Move the current point one unit in direction eps.

        Returns True iff the target point was already visited; the target is
        marked visited either way.  A step out of the first quadrant raises
        ValueError and changes nothing.
        """
        if not 0 <= eps <= 3:
            raise ValueError(f"letter out of range: {eps!r}")
        return self._first_revisit((eps,)) is not None

    def _first_revisit(self, codes):
        """Walk letter codes 0-3; letters taken up to the first revisit.

        None if every target is new.  Trusts its input: callers validate.
        """
        cur = self._current
        for i, eps in enumerate(codes):
            n = cur[_LINK + eps]
            if n is None:
                n = _neighbor(cur, eps)
            cur = n
            if n[_VISITED]:
                self._current = cur
                return i + 1
            n[_VISITED] = True
        self._current = cur
        return None


def normalize(word):
    """Translation (-min x, -min y) that keeps the path from (0,0) in N x N."""
    x = y = minx = miny = 0
    for b in word.encode():
        if b == 48:
            x += 1
        elif b == 49:
            y += 1
        elif b == 50:
            x -= 1
            if x < minx:
                minx = x
        elif b == 51:
            y -= 1
            if y < miny:
                miny = y
        else:
            raise ValueError(f"invalid chain letter {word.strip('0123')[0]!r}")
    return -minx, -miny


def detect_first_intersection(word):
    """First revisited point of the path, as (1-based letter index, point).

    Returns None when all visited points are distinct.  A closed word's
    final return to its start counts as a revisit; callers that allow
    closure must check the index themselves.  Points are reported in the
    original frame (path started at (0,0)), read off the letter counts of
    the prefix walked.
    """
    i = QuadGraph(normalize(word))._first_revisit(word.encode().translate(_CODES))
    if i is None:
        return None
    head = word[:i]
    return i, (head.count("0") - head.count("2"), head.count("1") - head.count("3"))
