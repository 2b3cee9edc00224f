"""Conversion between boundary words and the cell sets they enclose.

Cells are unit grid squares named by their lower-left corners.  Inside
this module and the generator a cell (x, y) is the integer key x + y*w,
where the row stride w is wider than the shape, so a neighbour is one
addition and keys sort bottom row first, then left to right.  A vertex
shares the key of the cell whose lower-left corner it is.
"""

from itertools import accumulate, compress

from .chain import is_closed


# Selectors of the up (1) and down (3) letters of an encoded chain word.
_UP = bytes.maketrans(b"0123", b"\0\1\0\0")
_DOWN = bytes.maketrans(b"0123", b"\0\0\0\1")
# Direction codes 0-3 to chain letters.
_LETTERS = bytes.maketrans(bytes(range(4)), b"0123")


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
    letters = word.encode()
    up, down = letters.translate(_UP), letters.translate(_DOWN)
    cross = sorted([*compress(at, up), *compress(at[1:], down)])
    cells = set()
    for a, b in zip(cross[::2], cross[1::2]):
        cells.update(range(a, b))
    return cells


def _boundary(keys, w):
    """Counterclockwise contour of a key set, as (word, start key).

    Starts at the least key, the bottommost then leftmost cell, heading
    right, with the set on its left.  After every step the cell behind on
    the left is in the set and the one behind on the right is not, so at
    most one turn comes before the next step: left when the cell ahead on
    the left is out, right when the one ahead on the right is in.  Raises
    ValueError when a left turn finds the cell ahead on the right in the
    set, which meets the cell behind on the left only at this corner, and
    unless refilling the contour gives the keys back.
    """
    start = k = min(keys)
    sides = ((0, -w), (-1, 0), (-1 - w, -1), (-w, -1 - w))  # (left, right) cells
    steps = (1, w, -1, -w)
    d = 0
    codes = bytearray()
    append = codes.append
    while True:
        left, right = sides[d]
        if k + left not in keys:
            if k + right in keys:
                raise ValueError("cells are not a simply connected polyomino")
            d = (d + 1) & 3
        elif k + right in keys:
            d = (d - 1) & 3
        append(d)
        k += steps[d]
        if k == start:
            break
    word = codes.translate(_LETTERS).decode()
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
    cell.  Cells must form a single 4-connected piece without holes; the
    trace refuses two cells that meet only at a corner, and refilling the
    traced contour refuses the rest.
    """
    cells = set(cells)
    if not cells:
        raise ValueError("empty cell set")
    # keys with a one-cell margin all round, so no neighbour wraps a row
    xs, ys = zip(*cells)
    x0, y0 = min(xs) - 1, min(ys) - 1
    w = max(xs) - x0 + 2
    word, start = _boundary({x - x0 + (y - y0) * w for x, y in cells}, w)
    y, x = divmod(start, w)
    return word, (x + x0, y + y0)
