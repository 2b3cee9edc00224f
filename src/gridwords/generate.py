"""Random polyomino generation by seeded cell accretion.

Cells are added one at a time on the perimeter, each addition keeping the
set 4-connected and hole-free, so the boundary stays a simple closed
curve by construction.  Cells are integer keys x + y*w (see polyomino)
with w = 2*cells + 3 and the first cell at (cells + 1, cells + 1): no
grown cell lies farther than cells - 1 from the first, so no neighbour
key wraps into another row.  A candidate is addable when
the occupied cells of its 8-neighbourhood form one contiguous arc that
includes an edge neighbour: then adding it neither pinches off a hole
nor touches the shape only diagonally.  `_ADDABLE` holds that verdict
for each of the 256 occupancy bytes of the ring (1,0), (1,1), (0,1),
(-1,1), (-1,0), (-1,-1), (0,-1), (1,-1), bit 0 first.
"""

import operator
import random

from .polyomino import _boundary

# An edge neighbour (bits 0, 2, 4, 6) and exactly two changes round the ring.
_ADDABLE = bytes(
    m & 0x55 != 0 and bin(m ^ (m << 1 | m >> 7) & 255).count("1") == 2
    for m in range(256)
)


def gen_random_polyomino(cells, seed=None):
    """Boundary word of a random polyomino with the given cell count.

    Counterclockwise, deterministic for a fixed seed; the result always
    passes is_closed and is_simple.  `cells` must be an integer: a float
    raises TypeError, as range() does, instead of growing for ever.
    """
    cells = operator.index(cells)
    if cells < 1:
        raise ValueError("need at least one cell")
    bits = random.Random(seed).getrandbits
    w = 2 * cells + 3
    ne, nw = w + 1, w - 1  # the ring's offsets are +-1, +-ne, +-w and +-nw
    c = (cells + 1) * (w + 1)
    grown = {c}
    frontier = [c + 1, c + w, c - 1, c - w]
    append = frontier.append
    left = cells - 1
    # The draws end.  The cell right of the top cell of the rightmost
    # column was pushed when that cell grew, and it is always addable.  It
    # is not grown, so only a pick that grows it pops it.
    while left:
        # randrange(n), inlined: the same draws from the same generator
        n = len(frontier)
        k = n.bit_length()
        i = bits(k)
        while i >= n:
            i = bits(k)
        c = frontier[i]
        if c in grown:
            frontier[i] = frontier[-1]
            frontier.pop()
            continue
        ring = (
            (c + 1 in grown) | (c + ne in grown) << 1
            | (c + w in grown) << 2 | (c + nw in grown) << 3
            | (c - 1 in grown) << 4 | (c - ne in grown) << 5
            | (c - w in grown) << 6 | (c - nw in grown) << 7
        )
        if not _ADDABLE[ring]:
            continue
        frontier[i] = frontier[-1]
        frontier.pop()
        grown.add(c)
        left -= 1
        # the edge neighbours not yet grown, read off the ring
        if not ring & 1:
            append(c + 1)
        if not ring & 4:
            append(c + w)
        if not ring & 16:
            append(c - 1)
        if not ring & 64:
            append(c - w)
    return _boundary(grown, w)[0]
