"""Conversion between boundary words and the cell sets they enclose.

Cells are unit grid squares named by their lower-left corners.  Inside
this module and the generator a cell (x, y) is the integer key x + y*w,
where the row stride w is wider than the shape, so a neighbour is one
addition and keys sort bottom row first, then left to right.  A vertex
shares the key of the cell whose lower-left corner it is.
"""

from itertools import accumulate, compress

from .chain import is_closed


def _fill(word, start, w):
    """Keys of the cells a closed path from key start encloses (even-odd rule).

    Scanline over the path's vertical edges: sorted, the crossings come
    row by row, and cells between an odd and the following even crossing
    are inside.
    """
    step = {"0": 1, "1": w, "2": -1, "3": -w}
    at = list(accumulate(map(step.get, word), initial=start))
    # an up edge crosses the row of the vertex it leaves, a down edge the
    # row of the vertex it reaches
    up, down = map("1".__eq__, word), map("3".__eq__, word)
    cross = sorted([*compress(at, up), *compress(at[1:], down)])
    cells = set()
    for a, b in zip(cross[::2], cross[1::2]):
        cells.update(range(a, b))
    return cells


def _boundary(keys, w):
    """Counterclockwise contour of a key set, as (word, start key).

    Starts at the least key, the bottommost then leftmost cell; raises
    ValueError unless refilling the contour gives the keys back.
    """
    start = k = min(keys)
    sides = ((0, -w), (-1, 0), (-1 - w, -1), (-w, -1 - w))  # (left, right) cells
    steps = (1, w, -1, -w)
    d = 0
    out = []
    while True:
        left, right = sides[d]
        if k + left not in keys:  # interior must stay on the left: overturned
            d = (d + 1) & 3
        elif k + right in keys:  # interior on both sides: reentrant corner
            d = (d - 1) & 3
        else:
            out.append("0123"[d])
            k += steps[d]
            if k == start:
                break
    word = "".join(out)
    if _fill(word, start, w) != keys:
        raise ValueError("cells are not a simply connected polyomino")
    return word, start


def enclosed_cells(word, start=(0, 0)):
    """Set of cells enclosed by a closed path (even-odd rule)."""
    if not is_closed(word):
        raise ValueError("closed word required")
    h = len(word) // 2 + 1  # no vertex lies farther than h from the start
    w = 2 * h + 1
    dx, dy = start[0] - h, start[1] - h
    return {(k % w + dx, k // w + dy) for k in _fill(word, h * (w + 1), w)}


def boundary_word(cells):
    """Counterclockwise contour of a polyomino, as (word, start corner).

    The start is the lower-left corner of the bottommost, then leftmost
    cell.  Cells must form a single 4-connected piece without holes; this
    is verified by refilling the traced contour.
    """
    if not cells:
        raise ValueError("empty cell set")
    cells = set(cells)
    # keys with a one-cell margin all round, so no neighbour wraps a row
    xs, ys = zip(*cells)
    x0, y0 = min(xs) - 1, min(ys) - 1
    w = max(xs) - x0 + 2
    word, start = _boundary({x - x0 + (y - y0) * w for x, y in cells}, w)
    y, x = divmod(start, w)
    return word, (x + x0, y + y0)
