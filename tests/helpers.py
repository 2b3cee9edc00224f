"""Brute-force oracles the tests check the fast implementations against.

Everything here is written the slow, obvious way on purpose; none of it
imports the package under test (tests/test_oracle_independence.py checks
this).  The hash-set walk, the exhaustive tiling search, the brute-force
Lyndon factorization and the flood-fill-and-hull convexity check each
stand on their own.
"""

import functools
import math
from operator import floordiv

STEP = {"0": (1, 0), "1": (0, 1), "2": (-1, 0), "3": (0, -1)}


def first_intersection_oracle(word):
    """First revisited vertex of the path, via a plain hash set.

    Returns (letters consumed, point) for the first repeat, else None.
    """
    seen = {(0, 0)}
    x = y = 0
    for i, ch in enumerate(word):
        dx, dy = STEP[ch]
        x += dx
        y += dy
        if (x, y) in seen:
            return i + 1, (x, y)
        seen.add((x, y))
    return None


def revisit_flags(word):
    """Per letter, whether the hash-set walk lands on a point seen before."""
    seen = {(0, 0)}
    x = y = 0
    flags = []
    for ch in word:
        dx, dy = STEP[ch]
        x += dx
        y += dy
        flags.append((x, y) in seen)
        seen.add((x, y))
    return flags


def min_rotation_brute(word):
    return min(range(len(word)), key=lambda k: word[k:] + word[:k])


def is_lyndon_brute(word):
    n = len(word)
    return n > 0 and all(word < word[k:] + word[:k] for k in range(1, n))


def lyndon_factorize_brute(word):
    """Greedy longest-Lyndon-prefix factorization, grouped by repetition."""
    factors = []
    rest = word
    while rest:
        for ln in range(len(rest), 0, -1):
            if is_lyndon_brute(rest[:ln]):
                factors.append(rest[:ln])
                rest = rest[ln:]
                break
    grouped = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1][1] += 1
        else:
            grouped.append([f, 1])
    return [(f, c) for f, c in grouped]


def christoffel_staircase(a, b):
    """Lower Christoffel word by walking the staircase under the segment.

    From (0,0) toward (a,b): step up as soon as the point above is still on
    or below the line a*y = b*x, otherwise step right.
    """
    x = y = 0
    out = []
    while (x, y) != (a, b):
        if y < b and a * (y + 1) <= b * x:
            y += 1
            out.append("1")
        else:
            x += 1
            out.append("0")
    return "".join(out)


def corner_counts(cells):
    """(salient, reentrant) corner counts of a cell set, by local inspection.

    A lattice vertex incident to exactly one occupied cell is salient, to
    exactly three is reentrant.
    """
    cells = set(cells)
    vertices = set()
    for x, y in cells:
        vertices.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    salient = reentrant = 0
    for vx, vy in vertices:
        around = sum(
            (vx + dx, vy + dy) in cells
            for dx in (-1, 0)
            for dy in (-1, 0)
        )
        if around == 1:
            salient += 1
        elif around == 3:
            reentrant += 1
    return salient, reentrant


def _edge_connected(cells):
    """True iff the cells form one piece through shared edges (flood fill)."""
    first = next(iter(cells))
    reached, stack = {first}, [first]
    while stack:
        x, y = stack.pop()
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n in cells and n not in reached:
                reached.add(n)
                stack.append(n)
    return len(reached) == len(cells)


def is_polyomino_oracle(cells):
    """True iff a non-empty cell set is one hole-free 4-connected piece.

    The cells must be 4-connected, and so must the other cells of their
    bounding box grown by one cell on every side: a hole, or two cells
    that meet only at a corner, cuts that complement apart.
    """
    cells = set(cells)
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    around = {
        (x, y)
        for x in range(min(xs) - 1, max(xs) + 2)
        for y in range(min(ys) - 1, max(ys) + 2)
        if (x, y) not in cells
    }
    return _edge_connected(cells) and _edge_connected(around)


def area_shoelace(word, start=(0, 0)):
    """Signed area enclosed by a closed word, positive when counterclockwise."""
    x, y = start
    twice = 0
    for ch in word:
        dx, dy = STEP[ch]
        nx, ny = x + dx, y + dy
        twice += x * ny - nx * y
        x, y = nx, ny
    if (x, y) != start:
        raise ValueError("open path has no area")
    return twice // 2


def _turn(a, b):
    d = (int(b) - int(a)) % 4
    if d == 1:
        return 1
    if d == 3:
        return -1
    return 0


def reduce_oracle(word, circular=False):
    """Free reduction one letter at a time on a list stack, then, if
    circular, cancelling first against last letter while they cancel."""
    stack = []
    for ch in word:
        if stack and (int(ch) - int(stack[-1])) % 4 == 2:
            stack.pop()
        else:
            stack.append(ch)
    lo, hi = 0, len(stack)
    while circular and hi - lo >= 2 and (int(stack[lo]) - int(stack[hi - 1])) % 4 == 2:
        lo += 1
        hi -= 1
    return "".join(stack[lo:hi])


def turning_oracle(word, circular=False):
    """(left, right) turns of reduce_oracle(word, circular), letter pair by
    letter pair, the seam included if circular."""
    w = reduce_oracle(word, circular)
    pairs = zip(w, w[1:] + w[:1]) if circular else zip(w, w[1:])
    turns = [_turn(a, b) for a, b in pairs]
    return turns.count(1), turns.count(-1)


@functools.cache
def boundary_words(perimeter):
    """Every boundary word of the given length, one per fixed polyomino.

    A tuple, built once per perimeter and shared by every test that asks.
    Canonical form: counterclockwise, first edge along the bottom of the
    lowest-then-leftmost cell, so each word starts with 0, no vertex dips
    below the start row and none sits left of the start on that row.
    Backtracking search over simple closed paths with total turning +4.
    """
    return tuple(_boundary_walks(perimeter))


def _boundary_walks(perimeter):
    n = perimeter
    if n < 4 or n % 2:
        return
    word = ["0"]
    seen = {(0, 0), (1, 0)}

    def rec(x, y, turns):
        depth = len(word)
        last = word[-1]
        for b in "0123":
            if (int(b) - int(last)) % 4 == 2:
                continue
            dx, dy = STEP[b]
            nx, ny = x + dx, y + dy
            if ny < 0 or (ny == 0 and nx < 0):
                continue
            t = turns + _turn(last, b)
            if depth == n - 1:
                if (nx, ny) == (0, 0) and t + _turn(b, "0") == 4:
                    yield "".join(word) + b
                continue
            if (nx, ny) in seen:
                continue
            # +4 total turning, or the start, is out of reach if too few
            # letters remain
            if t + (n - depth) < 4 or abs(nx) + ny > n - depth - 1:
                continue
            word.append(b)
            seen.add((nx, ny))
            yield from rec(nx, ny, t)
            seen.remove((nx, ny))
            word.pop()

    yield from rec(1, 0, 0)


def hat(word):
    """The path traversed backwards: reversed, each letter turned by 2."""
    return "".join("2301"[int(ch)] for ch in reversed(word))


def reconstruct(fact, word):
    """True iff fact's blocks X Y Z hat(X) hat(Y) hat(Z) spell the least
    rotation of word read from the factorization's first cut."""
    x, y, z = fact.blocks
    k = min_rotation_brute(word)
    w = word[k:] + word[:k]
    m = fact.cuts[0]
    return x + y + z + hat(x) + hat(y) + hat(z) == w[m:] + w[:m]


_SWAP_LR = str.maketrans("LR", "RL")


def fibonacci_snowflake(n):
    """Boundary word of the order-n Fibonacci snowflake, a double square.

    q_0 = '' and q_1 = 'R'; for k >= 2, q_k = q_{k-1} q_{k-2} when k = 1
    mod 3, else q_{k-1} followed by q_{k-2} with L and R swapped (Blondin
    Masse, Brlek, Garon & Labbe, TCS 412, 2011).  The tile is (q_n L)^4
    read as turns from direction 0: each letter is the current direction,
    then L turns a quarter turn left and R a quarter turn right.
    """
    q = ["", "R"]
    for k in range(2, n + 1):
        tail = q[k - 2] if k % 3 == 1 else q[k - 2].translate(_SWAP_LR)
        q.append(q[k - 1] + tail)
    word = []
    d = 0
    for turn in (q[n] + "L") * 4:
        word.append("0123"[d])
        d = (d + 1 if turn == "L" else d - 1) % 4
    return "".join(word)


def gauss_disk(r):
    """Counterclockwise boundary word of the Gauss digitization of the disk
    of radius r: the unit cells centred on the lattice points within it,
    column x spanning rows -h..h with h = isqrt(r^2 - x^2).  Bottom profile
    left to right, right side, top profile right to left, left side: 8r + 4
    letters."""
    h = [math.isqrt(r * r - x * x) for x in range(-r, r + 1)]
    word = []
    for a, b in zip(h, h[1:]):  # bottoms -a, then -b
        word.append("0" + ("3" * (b - a) if b > a else "1" * (a - b)))
    word.append("0" + "1" * (2 * h[-1] + 1))
    for a, b in zip(h[::-1], h[-2::-1]):  # tops a + 1, then b + 1
        word.append("2" + ("1" * (b - a) if b > a else "3" * (a - b)))
    word.append("2" + "3" * (2 * h[0] + 1))
    return "".join(word)


def even_radii_brute(z):
    """radii[c] for c = 0..len(z): the largest r with z[c-r:c+r] a palindrome."""
    radii = []
    for c in range(len(z) + 1):
        r = min(c, len(z) - c)
        while z[c - r : c + r] != z[c - r : c + r][::-1]:
            r -= 1
        radii.append(r)
    return radii


def _blocks_from_cuts_oracle(word, cuts):
    h = len(word) // 2
    m = cuts[0]
    r = word[m:] + word[:m]
    starts = [c - m for c in cuts if c - m < h] + [h]
    parts = [r[p:q] for p, q in zip(starts, starts[1:])]
    while len(parts) < 3:
        parts.append("")
    return cuts, tuple(parts)


def bn_factorizations_oracle(word):
    """Every factorization X Y Z hat(X) hat(Y) hat(Z), as (cuts, blocks).

    The exhaustive search over every start s and block lengths a, b, with
    a dict-memoised block check: O(n^3) letter comparisons.  Cuts are on
    the least rotation, deduplicated by cut set and sorted, as in
    gridwords.bn_factorizations.
    """
    if len(word) % 2 or not word:
        return []
    x = sum(STEP[ch][0] for ch in word)
    y = sum(STEP[ch][1] for ch in word)
    hit = first_intersection_oracle(word)
    if (x, y) != (0, 0) or (hit is not None and hit[0] != len(word)):
        return []
    k = min_rotation_brute(word)
    w = word[k:] + word[:k]
    n = len(w)
    h = n // 2
    d = w + w
    hd = d.translate(str.maketrans("0123", "2301"))
    block_ok = {}

    def ok(p, q):
        v = block_ok.get((p, q))
        if v is None:
            # the block's antipodal arc must be its own reversal in the
            # half-turned frame, i.e. equal hat(block)
            v = d[p + h : q + h] == hd[p:q][::-1]
            block_ok[(p, q)] = v
        return v

    found = {}
    for s in range(h):
        for a in range(h + 1):
            if not ok(s, s + a):
                continue
            for b in range(h - a + 1):
                z = h - a - b
                if (a == 0) + (b == 0) + (z == 0) >= 2:
                    continue
                if not ok(s + a, s + a + b) or not ok(s + a + b, s + h):
                    continue
                cuts = tuple(
                    sorted(
                        {s, s + a, s + a + b, s + h, (s + h + a) % n, (s + h + a + b) % n}
                    )
                )
                if cuts not in found:
                    found[cuts] = _blocks_from_cuts_oracle(w, cuts)
    return [found[c] for c in sorted(found)]


def cross(o, a, b):
    """Cross product of o->a with o->b; positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def convex_hull(points):
    """Monotone-chain hull as (upper, lower) vertex chains.

    The upper chain runs from the lexicographically least point to the
    greatest, the lower chain back again; collinear interior points are
    dropped.  Integer arithmetic throughout.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return [pts[0]], [pts[0]]
    upper = []
    for p in pts:
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) >= 0:
            upper.pop()
        upper.append(p)
    lower = []
    for p in reversed(pts):
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) >= 0:
            lower.pop()
        lower.append(p)
    return upper, lower


def _ceil_div(num, den):
    return -((-num) // den)


def _envelope(chain, rounding, better):
    """Per-column integer bound under/over a hull chain."""
    bounds = {}
    for (xa, ya), (xb, yb) in zip(chain, chain[1:]):
        if xa == xb:
            v = better(ya, yb)
            bounds[xa] = better(bounds.get(xa, v), v)
            continue
        if xa > xb:
            (xa, ya), (xb, yb) = (xb, yb), (xa, ya)
        for x in range(xa, xb + 1):
            v = rounding(ya * (xb - xa) + (yb - ya) * (x - xa), xb - xa)
            bounds[x] = better(bounds.get(x, v), v)
    if not bounds:  # single-vertex chain
        x, y = chain[0]
        bounds[x] = y
    return bounds


def _vertices(word):
    x = y = 0
    out = [(0, 0)]
    for ch in word:
        dx, dy = STEP[ch]
        x += dx
        y += dy
        out.append((x, y))
    return out


def extremal_points_oracle(word):
    """(word, arcs, w, s, e, n) of a boundary cut at its extremal points,
    read off the bounding box of its vertex list.

    The word is turned counterclockwise (positive shoelace area) and
    conjugated to start at W, the lowest vertex on the box's left side.
    S is the rightmost vertex on the bottom side, E the highest on the
    right side, N the leftmost on the top side.  The arcs run W->S, S->E,
    E->N and N->W, and the corners are relative to W.
    """
    ccw = word if area_shoelace(word) > 0 else hat(word)
    points = _vertices(ccw)[:-1]
    left = min(x for x, _ in points)
    right = max(x for x, _ in points)
    bottom = min(y for _, y in points)
    top = max(y for _, y in points)
    corners = [
        (left, min(y for x, y in points if x == left)),
        (max(x for x, y in points if y == bottom), bottom),
        (right, max(y for x, y in points if x == right)),
        (min(x for x, y in points if y == top), top),
    ]
    start = points.index(corners[0])
    cuts = [(points.index(c) - start) % len(ccw) for c in corners] + [len(ccw)]
    rotated = ccw[start:] + ccw[:start]
    arcs = tuple(rotated[i:j] for i, j in zip(cuts, cuts[1:]))
    wx, wy = corners[0]
    return (rotated, arcs) + tuple((x - wx, y - wy) for x, y in corners)


def nw_convex_oracle(word):
    """Hull-gap oracle for is_nw_convex: no lattice point may lie strictly
    above the path yet on or below its upper convex hull."""
    if not word:
        return True
    bad = word.strip("01")
    if bad:
        raise ValueError(f"letter outside {{0,1}}: {bad[0]!r}")
    vertices = _vertices(word)
    height = {}
    for x, y in vertices:
        if height.get(x, -1) < y:
            height[x] = y
    upper, _ = convex_hull(vertices)
    hull_top = _envelope(upper, floordiv, max)
    return all(hull_top[x] <= height[x] for x in height)


def fill_cells(word):
    """Cells enclosed by a boundary word started at (0,0), by flood fill.

    Floods the cells outside the path from a corner of its bounding box
    grown by one cell, never crossing one of the word's unit edges; every
    other cell of the box is inside.  Orientation plays no part.  Raises
    ValueError unless the word is closed, simple and longer than 2.
    """
    if word.strip("0123"):
        raise ValueError(f"invalid chain letter {word.strip('0123')[0]!r}")
    closed = word.count("0") == word.count("2") and word.count("1") == word.count("3")
    if not closed or len(word) <= 2 or first_intersection_oracle(word) != (len(word), (0, 0)):
        raise ValueError("not a boundary word")
    vertices = _vertices(word)
    walls = {frozenset(edge) for edge in zip(vertices, vertices[1:])}
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    x0, x1, y0, y1 = min(xs) - 1, max(xs), min(ys) - 1, max(ys)
    outside = {(x0, y0)}
    stack = [(x0, y0)]
    while stack:
        cx, cy = stack.pop()
        # the unit edge shared with each neighbor cell, named by its ends
        for nx, ny, a, b in (
            (cx + 1, cy, (cx + 1, cy), (cx + 1, cy + 1)),
            (cx - 1, cy, (cx, cy), (cx, cy + 1)),
            (cx, cy + 1, (cx, cy + 1), (cx + 1, cy + 1)),
            (cx, cy - 1, (cx, cy), (cx + 1, cy)),
        ):
            if not (x0 <= nx <= x1 and y0 <= ny <= y1) or (nx, ny) in outside:
                continue
            if frozenset((a, b)) in walls:
                continue
            outside.add((nx, ny))
            stack.append((nx, ny))
    return {
        (cx, cy)
        for cx in range(x0, x1 + 1)
        for cy in range(y0, y1 + 1)
        if (cx, cy) not in outside
    }


def convexity_oracle(word):
    """Fill-and-hull convexity check, for cross-validation.

    Fills the boundary, takes the hull of the cell set, and requires every
    lattice point inside the hull to name a cell.  Cell lower-left corners
    stand in for cell centers (a uniform half-unit translation).  Raises
    ValueError for non-boundary input.
    """
    cells = fill_cells(word)
    upper, lower = convex_hull(cells)
    top = _envelope(upper, floordiv, max)
    bottom = _envelope(lower, _ceil_div, min)
    for x, hi in top.items():
        for y in range(bottom[x], hi + 1):
            if (x, y) not in cells:
                return False
    return True
