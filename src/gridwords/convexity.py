"""Digital convexity of boundary words, decided on the word.

The boundary is split at its four extremal points, read counterclockwise;
each arc is mapped into the {0,1} frame, and the region is digitally
convex iff every Lyndon factor of every mapped arc is a Christoffel word.
This is the package's one route; the fill-and-hull check that
cross-validates it lives with the tests.
"""

from dataclasses import dataclass

from .chain import orient_ccw, rotate, trace
from .lyndon import is_christoffel, lyndon_factorize


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
