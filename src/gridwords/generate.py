"""Random polyomino generation by seeded cell accretion.

Cells are added one at a time on the perimeter, each addition keeping the
set 4-connected and hole-free, so the boundary stays a simple closed
curve by construction.
"""

import random

from .polyomino import boundary_word

# 8-neighborhood in cyclic order, for the single-arc test below.
_RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _addable(cells, x, y):
    # Occupied neighbors must form one contiguous arc of the ring and
    # include an edge neighbor; then adding (x,y) neither pinches off a
    # hole nor touches the shape only diagonally.
    ring = [(x + dx, y + dy) in cells for dx, dy in _RING]
    if not (ring[0] or ring[2] or ring[4] or ring[6]):
        return False
    changes = 0
    prev = ring[7]
    for cur in ring:
        if cur != prev:
            changes += 1
            prev = cur
    return changes == 2


def gen_random_polyomino(cells, seed=None):
    """Boundary word of a random polyomino with the given cell count.

    Counterclockwise, deterministic for a fixed seed; the result always
    passes is_closed and is_simple.
    """
    if cells < 1:
        raise ValueError("need at least one cell")
    rng = random.Random(seed)
    grown = {(0, 0)}
    frontier = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    misses = 0
    while len(grown) < cells:
        i = rng.randrange(len(frontier))
        c = frontier[i]
        if c in grown:
            frontier[i] = frontier[-1]
            frontier.pop()
            continue
        if not _addable(grown, *c):
            misses += 1
            if misses <= 64:
                continue
            # Rare stall on pathological perimeters; fall back to the first
            # addable candidate, which always exists (e.g. beside the top
            # of the rightmost column).
            for i, c in enumerate(frontier):
                if c not in grown and _addable(grown, *c):
                    break
            else:
                raise RuntimeError("no addable perimeter cell")
        misses = 0
        frontier[i] = frontier[-1]
        frontier.pop()
        grown.add(c)
        x, y = c
        for m in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            if m not in grown:
                frontier.append(m)
    return boundary_word(grown)[0]
