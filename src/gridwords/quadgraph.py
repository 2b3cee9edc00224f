"""Radix quadtree over first-quadrant lattice points with lazy neighbor links.

Supports walking a chain-code path one unit step at a time while detecting
the first revisited grid point.  Navigation never hashes coordinates: a
step either follows a memoized neighbor link or reconstructs the neighbor
through the father level, where the two points are siblings or their
fathers are neighbors in turn.
"""

# Node layout.  Plain lists keep per-node overhead low enough for
# million-step paths (a few hundred bytes per node would not).
_X, _Y, _FATHER, _VISITED = 0, 1, 2, 3
_CHILD = 4  # four slots indexed by alpha + 2*beta, child point (2x+alpha, 2y+beta)
_LINK = 8   # four slots indexed by letter, neighbor link memo

# Per letter: the coordinate the step changes (_X or _Y), the value of its
# last bit for which the neighbor keeps the father, and the step (dx, dy).
_MOVE = ((_X, 0, 1, 0), (_Y, 0, 0, 1), (_X, 1, -1, 0), (_Y, 1, 0, -1))

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
    axis, keep, _, _ = _MOVE[eps]
    return ((x, y)[axis] & 1) == keep


def _new_node(x, y, father):
    return [x, y, father, False, None, None, None, None, None, None, None, None]


class QuadGraph:
    """Growing quadtree graph tracking visited points of a lattice walk.

    Starts with the origin plus its two axis neighbors (linked), seeds the
    walk at `start` (first quadrant), and exposes `step` which moves the
    current point by one letter and reports whether the target was already
    visited.
    """

    def __init__(self, start=(0, 0)):
        root = _new_node(0, 0, None)
        root[_FATHER] = root  # lets neighbor resolution terminate at the top
        self._root = root
        self._count = 1
        self._link(root, 0, self._child(root, 1, 0))
        self._link(root, 1, self._child(root, 0, 1))
        sx, sy = start
        if sx < 0 or sy < 0:
            raise ValueError("start must lie in the first quadrant")
        seed = self._node(sx, sy)
        seed[_VISITED] = True
        self._current = seed

    # -- construction ------------------------------------------------------

    def _child(self, parent, alpha, beta):
        # The origin is value-wise its own (0,0)-child; creating a distinct
        # node there would split the tree.
        if alpha == 0 and beta == 0 and parent is self._root:
            return parent
        i = _CHILD + alpha + 2 * beta
        node = parent[i]
        if node is None:
            node = _new_node(2 * parent[_X] + alpha, 2 * parent[_Y] + beta, parent)
            parent[i] = node
            self._count += 1
        return node

    def _node(self, x, y):
        if x == 0 and y == 0:
            return self._root
        return self._child(self._node(x >> 1, y >> 1), x & 1, y & 1)

    @staticmethod
    def _link(a, eps, b):
        a[_LINK + eps] = b
        b[_LINK + ((eps + 2) & 3)] = a

    def _neighbor(self, node, eps):
        n = node[_LINK + eps]
        if n is not None:
            return n
        axis, keep, dx, dy = _MOVE[eps]
        f = node[_FATHER]
        if node[axis] & 1 != keep:
            f = self._neighbor(f, eps)
        n = self._child(f, (node[_X] + dx) & 1, (node[_Y] + dy) & 1)
        self._link(node, eps, n)
        return n

    # -- walking -----------------------------------------------------------

    def step(self, eps):
        """Move the current point one unit in direction eps.

        Returns True iff the target point was already visited; the target is
        marked visited either way.
        """
        if not 0 <= eps <= 3:
            raise ValueError(f"letter out of range: {eps!r}")
        cur = self._current
        if eps == 2 and cur[_X] == 0 or eps == 3 and cur[_Y] == 0:
            raise ValueError("out of quadrant")
        return self._first_revisit((eps,)) is not None

    def _first_revisit(self, codes):
        """Walk letter codes 0-3; (letters taken, point) at the first revisit.

        None if every target is new.  Trusts its input: callers validate.
        """
        cur = self._current
        neighbor = self._neighbor
        for i, eps in enumerate(codes):
            n = cur[_LINK + eps]
            if n is None:
                n = neighbor(cur, eps)
            cur = n
            if n[_VISITED]:
                self._current = cur
                return i + 1, (n[_X], n[_Y])
            n[_VISITED] = True
        self._current = cur
        return None

    # -- introspection (tests and reporting) --------------------------------

    @property
    def current(self):
        return self._current[_X], self._current[_Y]

    def __len__(self):
        return self._count

    def _walk(self):
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            for i in range(_CHILD, _CHILD + 4):
                child = node[i]
                if child is not None:
                    stack.append(child)

    def points(self):
        return frozenset((n[_X], n[_Y]) for n in self._walk())

    def visited_points(self):
        return frozenset((n[_X], n[_Y]) for n in self._walk() if n[_VISITED])

    def _find(self, point):
        x, y = point
        if x < 0 or y < 0:
            return None
        node = self._root
        for k in range(max(x.bit_length(), y.bit_length()) - 1, -1, -1):
            node = node[_CHILD + ((x >> k) & 1) + 2 * ((y >> k) & 1)]
            if node is None:
                return None
        return node

    def father(self, point):
        """Father point of an existing node; None for the root or absent points."""
        node = self._find(point)
        if node is None or node is self._root:
            return None
        f = node[_FATHER]
        return f[_X], f[_Y]

    def link(self, point, eps):
        """Memoized eps-neighbor of an existing node, or None."""
        node = self._find(point)
        if node is None:
            return None
        n = node[_LINK + eps]
        return None if n is None else (n[_X], n[_Y])


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
    original frame (path started at (0,0)).
    """
    dx, dy = normalize(word)
    hit = QuadGraph((dx, dy))._first_revisit(word.encode().translate(_CODES))
    if hit is None:
        return None
    i, (x, y) = hit
    return i, (x - dx, y - dy)
