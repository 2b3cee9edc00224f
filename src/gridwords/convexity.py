"""Digital convexity of boundary words, decided on the word.

The boundary is split at its four extremal points, read counterclockwise;
each arc is mapped into the {0,1} frame, and the region is digitally
convex iff every Lyndon factor of every mapped arc is a Christoffel word.
This is the package's one route; the fill-and-hull check that
cross-validates it lives with the tests.
"""

import functools
from dataclasses import dataclass
from itertools import accumulate

from .chain import _ROT, orient_ccw
from .lyndon import _require_str, is_christoffel, lyndon_factorize
from .quadgraph import _point_after

# Steps of the prefix keys x*2^32 + y, and of the turned keys -y*2^32 + x
# (the point turned a quarter turn counterclockwise).  Key order is the
# lexicographic order of the points while |x| and |y| stay below 2^31.
_KEY = {"0": 1 << 32, "1": 1, "2": -(1 << 32), "3": -1}.__getitem__
_TURNED_KEY = {"0": 1, "1": -(1 << 32), "2": -1, "3": 1 << 32}.__getitem__


def is_nw_convex(word):
    """Convexity of a {0,1} staircase word against its upper hull.

    True iff every Lyndon factor is a Christoffel word; the empty word is
    convex.
    """
    bad = _require_str(word).strip("01")
    if bad:
        raise ValueError(f"letter outside {{0,1}}: {bad[0]!r}")
    return all(is_christoffel(f) for f, _ in lyndon_factorize(word))


@dataclass(frozen=True)
class ExtremalSplit:
    """Counterclockwise boundary cut at its four extremal points.

    `word` is the ccw boundary conjugated to start at W; each corner is the
    prefix letter counts (#0 - #2, #1 - #3) of `word` up to it, so w == (0,0).
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
    the top; counterclockwise traversal meets them in that order.  They
    are picked from prefix keys, with no vertex tuples: an `accumulate` of
    the letters' steps gives each vertex as the integer x*2^32 + y, whose
    order is that of (x, y), so the least key is W and the greatest E.  A
    second pass keys each vertex as -y*2^32 + x for N (least) and S
    (greatest); only one key list is alive at a time.  The corners are the
    prefix letter counts of the word rotated to start at W.

    Remembers its last word, keyed by equality (`_split`): this and
    is_digitally_convex on equal words share one split, and the last word
    and its split (about twice the word) stay alive until the next split.
    """
    return _split(word)


@functools.lru_cache(maxsize=1)
def _split(word):
    """split_extremal(word), computed; `cache_info()` counts real splits."""
    ccw = orient_ccw(word)
    n = len(ccw)
    keys = list(accumulate(map(_KEY, ccw), initial=0))
    iw, ie = keys.index(min(keys)), keys.index(max(keys))
    del keys  # free the first list before the second is built
    keys = list(accumulate(map(_TURNED_KEY, ccw), initial=0))
    i_n, i_s = keys.index(min(keys)), keys.index(max(keys))
    del keys
    rotated = ccw[iw:] + ccw[:iw]
    cs, ce, cn = (i_s - iw) % n, (ie - iw) % n, (i_n - iw) % n
    if not 0 < cs <= ce <= cn:
        raise ValueError("extremal points out of cyclic order")
    arcs = (rotated[:cs], rotated[cs:ce], rotated[ce:cn], rotated[cn:])
    corners = (_point_after(rotated, c) for c in (cs, ce, cn))
    return ExtremalSplit(rotated, arcs, (0, 0), *corners)


def decide_convexity(word):
    """Word-route convexity as (split, factors, convex).

    `split` is split_extremal(word).  Each arc is reversed (read clockwise)
    and turned into the {0,1} frame: the arcs W->S, S->E, E->N, N->W carry
    alphabets {0,3}, {0,1}, {1,2}, {2,3}, and the quarter turns (1, 0, 3, 2)
    are the unique ones sending each into {0,1}.  The arcs are slices of a
    word whose letters `split_extremal` has checked, so a `str.translate`
    turns each.  `factors[i]` is the Lyndon factorization of mapped arc i.
    `convex` holds iff every mapped arc is over {0,1} and every factor is a
    Christoffel word; an arc that leaves {0,1} makes the word non-convex,
    not an error.  Raises ValueError for non-boundary input.
    """
    split = split_extremal(word)
    mapped = [
        arc[::-1].translate(_ROT[q]) for arc, q in zip(split.arcs, (1, 0, 3, 2))
    ]
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
