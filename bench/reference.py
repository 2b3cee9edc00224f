"""Reference answers computed without gridwords, for the output checks.

Everything here is the benchmark's own code: a hash-set walk, a stack
reduction for turning numbers, a scanline fill, and a convex-hull count by
Pick's theorem.  None of it runs inside a timed region.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, count
from math import gcd
from operator import mul, ne, sub

_HALF_TURN = str.maketrans("0123", "2301")


def hat(word):
    """The path traversed backwards."""
    return word[::-1].translate(_HALF_TURN)


def _by_letter(right, up):
    """Lookup table from a letter's byte to its step component."""
    table = [0] * 52
    table[48], table[49], table[50], table[51] = right, up, -right, -up
    return table


_DX = _by_letter(1, 0)
_DY = _by_letter(0, 1)


def _codes(word):
    """Position codes x + y*k of every vertex, k large enough to be unique."""
    k = 1 << (len(word).bit_length() + 1)
    step = _by_letter(1, k)
    return k, list(accumulate(map(step.__getitem__, word.encode()), initial=0))


def _decode(k, code):
    x = (code + k // 2) % k - k // 2
    return x, (code - x) // k


def first_revisit(word):
    """(1-based letter index, point) of the first revisited point, or None."""
    k, pos = _codes(word)
    first = dict(zip(reversed(pos), range(len(pos) - 1, -1, -1)))
    if len(first) == len(pos):
        return None
    i = next(compress(count(), map(ne, map(first.__getitem__, pos), count())))
    return i, _decode(k, pos[i])


def is_closed(word):
    return word.count("0") == word.count("2") and word.count("1") == word.count("3")


def is_simple(word):
    hit = first_revisit(word)
    return hit is None or (hit[0] == len(word) and is_closed(word))


def _reduce(word, circular):
    out = []
    for ch in word:
        if out and (ord(ch) - ord(out[-1])) % 4 == 2:
            out.pop()
        else:
            out.append(ch)
    lo, hi = 0, len(out)
    while circular and hi - lo >= 2 and (ord(out[lo]) - ord(out[hi - 1])) % 4 == 2:
        lo += 1
        hi -= 1
    return "".join(out[lo:hi])


def turns(word, circular):
    """(left, right) quarter turns of the reduced word."""
    b = word.encode()
    diffs = Counter(map(sub, b[1:], b))
    if circular and b:
        diffs[b[0] - b[-1]] += 1
    if diffs[2] or diffs[-2]:
        return turns(_reduce(word, circular), circular)
    return diffs[1] + diffs[-3], diffs[-1] + diffs[3]


def turning_number(word, circular):
    """Turning number as the CLI prints it (a fraction of a full turn)."""
    left, right = turns(word, circular)
    return str(Fraction(left - right, 4))


def signed_area(word):
    """Area enclosed by a closed path (sum of x dy); positive when ccw."""
    b = word.encode()
    xs = accumulate(map(_DX.__getitem__, b), initial=0)
    return sum(map(mul, xs, map(_DY.__getitem__, b)))


def enclosed_cells(word):
    """Cells (lower-left corners) inside a closed path, by scanline parity."""
    x = y = 0
    rows = {}
    for ch in word:
        if ch == "1":
            rows.setdefault(y, []).append(x)
            y += 1
        elif ch == "3":
            y -= 1
            rows.setdefault(y, []).append(x)
        else:
            x += 1 if ch == "0" else -1
    cells = set()
    for row, xs in rows.items():
        xs.sort()
        for a, b in zip(xs[::2], xs[1::2]):
            cells.update((cx, row) for cx in range(a, b))
    return cells


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_lattice_points(points):
    """Number of lattice points in the convex hull, by Pick's theorem."""
    pts = sorted(points)
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for p in seq:
            while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    ring = lower[:-1] + upper[:-1]
    area2 = boundary = 0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        area2 += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    # Pick: A = I + B/2 - 1, so I + B = (2A + B + 2) / 2.
    return (abs(area2) + boundary + 2) // 2


def is_digitally_convex(cells):
    """A cell set is digitally convex iff its hull holds no other lattice point."""
    return hull_lattice_points(cells) == len(cells)


def least_rotation_index(word):
    n = len(word)
    doubled = word + word
    return min(range(n), key=lambda i: doubled[i:i + n])
