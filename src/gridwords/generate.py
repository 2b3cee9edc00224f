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
    passes is_closed and is_simple.
    """
    if cells < 1:
        raise ValueError("need at least one cell")
    bits = random.Random(seed).getrandbits
    w = 2 * cells + 3
    c = (cells + 1) * (w + 1)
    grown = {c}
    frontier = [c + 1, c + w, c - 1, c - w]

    def addable(c):
        return _ADDABLE[
            (c + 1 in grown) | (c + 1 + w in grown) << 1
            | (c + w in grown) << 2 | (c - 1 + w in grown) << 3
            | (c - 1 in grown) << 4 | (c - 1 - w in grown) << 5
            | (c - w in grown) << 6 | (c + 1 - w in grown) << 7
        ]

    misses = 0
    while len(grown) < cells:
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
        if not addable(c):
            misses += 1
            if misses <= 64:
                continue
            # Rare stall on pathological perimeters; fall back to the first
            # addable candidate, which always exists (e.g. beside the top
            # of the rightmost column).
            for i, c in enumerate(frontier):
                if c not in grown and addable(c):
                    break
            else:
                raise RuntimeError("no addable perimeter cell")
        misses = 0
        frontier[i] = frontier[-1]
        frontier.pop()
        grown.add(c)
        for m in (c + 1, c + w, c - 1, c - w):
            if m not in grown:
                frontier.append(m)
    return _boundary(grown, w)[0]
