"""Digital convexity of boundary words, two independent ways.

The word route splits the counterclockwise boundary at its four extremal
points, maps each arc into the {0,1} frame, and requires every Lyndon
factor of every mapped arc to be a Christoffel word.  The oracle route
fills the enclosed cells and checks that the convex hull of the cell set
contains no extra lattice point.  The two must agree; the test suite
enforces it exhaustively on small words.
"""

from dataclasses import dataclass
from operator import floordiv

from .chain import orient_ccw, rotate, trace
from .lyndon import is_christoffel, lyndon_factorize
from .polyomino import enclosed_cells


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


def is_nw_convex(word):
    """Convexity of a {0,1} staircase word against its upper hull.

    True iff every Lyndon factor is a Christoffel word; the empty word is
    convex.
    """
    if not word:
        return True
    bad = word.strip("01")
    if bad:
        raise ValueError(f"letter outside {{0,1}}: {bad[0]!r}")
    return all(is_christoffel(f) for f, _ in lyndon_factorize(word))


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


def nw_convex_oracle(word):
    """Hull-gap oracle for is_nw_convex: no lattice point may lie strictly
    above the path yet on or below its upper convex hull."""
    if not word:
        return True
    bad = word.strip("01")
    if bad:
        raise ValueError(f"letter outside {{0,1}}: {bad[0]!r}")
    vertices = trace(word).vertices
    height = {}
    for x, y in vertices:
        if height.get(x, -1) < y:
            height[x] = y
    upper, _ = convex_hull(vertices)
    hull_top = _envelope(upper, floordiv, max)
    return all(hull_top[x] <= height[x] for x in height)


@dataclass(frozen=True)
class ExtremalSplit:
    """Counterclockwise boundary cut at its four extremal points.

    `word` is the ccw boundary conjugated to start at W; coordinates are
    relative to tracing `word` from (0,0), hence w == (0,0).
    """

    word: str
    arcs: tuple  # W->S, S->E, E->N, N->W
    w: tuple
    s: tuple
    e: tuple
    n: tuple


def split_extremal(word):
    """Split a boundary word at W, S, E, N (ccw; auto-orients via hat).

    W is the lowest point of the left side of the bounding box, S the
    rightmost of the bottom, E the highest of the right, N the leftmost of
    the top; counterclockwise traversal meets them in that order.
    """
    ccw = orient_ccw(word)
    verts = trace(ccw).vertices[:-1]
    idx = range(len(verts))
    iw = min(idx, key=lambda i: (verts[i][0], verts[i][1]))
    i_s = min(idx, key=lambda i: (verts[i][1], -verts[i][0]))
    ie = min(idx, key=lambda i: (-verts[i][0], -verts[i][1]))
    i_n = min(idx, key=lambda i: (-verts[i][1], verts[i][0]))
    n = len(ccw)
    rotated = ccw[iw:] + ccw[:iw]
    cs, ce, cn = (i_s - iw) % n, (ie - iw) % n, (i_n - iw) % n
    if not 0 < cs <= ce <= cn:
        raise ValueError("extremal points out of cyclic order")
    arcs = (rotated[:cs], rotated[cs:ce], rotated[ce:cn], rotated[cn:])
    wx, wy = verts[iw]
    corners = [(verts[i][0] - wx, verts[i][1] - wy) for i in (iw, i_s, ie, i_n)]
    return ExtremalSplit(rotated, arcs, *corners)


def decide_convexity(word):
    """Word-route convexity as (split, factors, convex).

    `split` is split_extremal(word).  Each arc is reversed (read clockwise)
    and turned into the {0,1} frame: the arcs W->S, S->E, E->N, N->W carry
    alphabets {0,3}, {0,1}, {1,2}, {2,3}, and the quarter turns (1, 0, 3, 2)
    are the unique ones sending each into {0,1}.  `factors[i]` is the
    Lyndon factorization of mapped arc i.  `convex` holds iff every mapped
    arc is over {0,1} and every factor is a Christoffel word; an arc that
    leaves {0,1} makes the word non-convex, not an error.  Raises
    ValueError for non-boundary input.
    """
    split = split_extremal(word)
    mapped = [rotate(arc[::-1], q) for arc, q in zip(split.arcs, (1, 0, 3, 2))]
    factors = tuple(lyndon_factorize(v) for v in mapped)
    convex = not any(v.strip("01") for v in mapped) and all(
        is_christoffel(f) for arc in factors for f, _ in arc
    )
    return split, factors, convex


def is_digitally_convex(word):
    """Digital convexity of the region enclosed by a boundary word.

    The verdict of decide_convexity; raises ValueError for non-boundary
    input.
    """
    return decide_convexity(word)[2]


def convexity_oracle(word):
    """Fill-and-hull convexity check, for cross-validation.

    Fills the boundary, takes the hull of the cell set, and requires every
    lattice point inside the hull to name a cell.  Cell lower-left corners
    stand in for cell centers (a uniform half-unit translation).
    """
    cells = enclosed_cells(orient_ccw(word))
    upper, lower = convex_hull(cells)
    top = _envelope(upper, floordiv, max)
    bottom = _envelope(lower, _ceil_div, min)
    for x, hi in top.items():
        for y in range(bottom[x], hi + 1):
            if (x, y) not in cells:
                return False
    return True
