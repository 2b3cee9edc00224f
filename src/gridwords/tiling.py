"""Exactness of polyominoes: boundary factorizations X Y Z hat(X) hat(Y) hat(Z).

A polyomino tiles the plane by translations iff its boundary word admits
such a factorization with at most one empty block; one empty block makes
it a square, none a hexagon.  Cut positions are reported on the canonical
(least) rotation of the input, and two factorizations count as the same
exactly when their cut sets coincide.  A factorization holds only its
cuts and that rotation; its blocks are sliced from the rotation when read.

A block is valid when its antipodal arc is hat of the block.  That is a
palindrome test on a word interleaving the two arcs, so one Manacher pass
gives the longest valid block at every centre.  Every block of a
factorization is admissible (Winslow): one more letter on each side
makes it invalid.  So the longest valid block at each centre is the only
non-empty block a factorization can use there, and the search looks at
fewer than 2n candidate blocks for a word of length n.  A block has that
length when the centre's palindrome radius exceeds it by 0 or 1, and
candidates are filed only where the search reads them: by start below
n/2 and by end in [n/2, n), about n/2 lists of each.

Most boundaries are not exact, and one necessary condition rules out
nearly all long ones before the walk and the search.  The blocks have n/2
letters in all, so the longest has at least n/6, and it is a common
cyclic factor of the word and of its hat.  When no chunk of ceil(n/12)
letters, cut from the doubled hat at multiples of that length, occurs in
the doubled word, no block can be that long, and the word is not exact.
"""

from dataclasses import dataclass, field
from enum import Enum

from .chain import _ROT, canonical_rotation, is_closed, is_simple


class TileClass(Enum):
    NOT_EXACT = "not-exact"
    SQUARE = "square"
    HEXAGON = "hexagon"

    @classmethod
    def of(cls, facts):
        """Class of a tile from its factorizations, preferring square."""
        if not facts:
            return cls.NOT_EXACT
        return cls.SQUARE if any(f.is_square for f in facts) else cls.HEXAGON


@dataclass(frozen=True)
class BNFactorization:
    cuts: tuple  # 4 or 6 sorted positions in word, antipodally paired mod n
    word: str = field(repr=False)  # the canonical rotation, shared by all

    @property
    def is_square(self):
        return len(self.cuts) == 4

    @property
    def blocks(self):
        """(X, Y, Z) from the least cut, which is below n/2; Z == "" for squares."""
        ends = (*self.cuts[: len(self.cuts) // 2], self.cuts[0] + len(self.word) // 2)
        return (*(self.word[p:q] for p, q in zip(ends, ends[1:])), "")[:3]


def _even_radii(z):
    """radii[c] is the largest r with z[c-r:c+r] a palindrome (Manacher)."""
    m = len(z)
    radii = [0] * (m + 1)
    lo = hi = 0  # z[lo:hi] is the palindrome reaching furthest right so far
    for c in range(1, m):
        r = 0
        if c < hi:
            r = radii[lo + hi - c]
            if r < hi - c:  # the mirror's palindrome lies strictly inside
                radii[c] = r
                continue
            if r > hi - c:  # when equal, radii[c] shares the mirror's int
                r = hi - c
        while r < c and c + r < m and z[c - r - 1] == z[c + r]:
            r += 1
        radii[c] = r
        if c + r > hi:
            lo, hi = c - r, c + r
    return radii


def _may_tile(word):
    """False only for a closed word with no factorization, in any rotation.

    The blocks X, Y, Z have h = n/2 letters in all, so one of them, B, has
    at least ceil(h/3) >= 2k - 1 letters for k = ceil(n/12).  B and hat(B)
    are cyclic factors of the word, so B is one of hat(word) too.  An
    occurrence of B in hat(word)^2 that starts below n holds a chunk of k
    letters starting at a multiple of k below n + k, and that chunk, a
    factor of B, occurs in word^2.
    """
    n = len(word)
    k = max(1, (n + 11) // 12)  # ceil(n/12), and 1 for the empty word
    ww = word + word
    vv = word[::-1].translate(_ROT[2]) * 2
    return any(vv[j : j + k] in ww for j in range(0, n + k, k))


def bn_factorizations(word):
    """All factorizations X Y Z hat(X) hat(Y) hat(Z) of a boundary word.

    Every cut set on the canonical rotation w, sorted; none for a word that
    is not closed and simple.  A closed word is first put to `_may_tile`,
    at most 13 substring searches in C on the doubled word and its doubled
    hat; a word it rejects has no factorization, and is neither walked for
    simplicity nor searched.

    With n = |w|, h = n/2 and indices mod n, block [p, q) is valid when
    its antipodal arc w[p+h:q+h] equals hat(w[p:q]).  Interleaving the arcs
    as z[2i] = w[i+h], z[2i+1] = w[i] + 2 mod 4 makes that "z[2p:2q] is a
    palindrome", so with R the even palindrome radii of z, [p, q) is valid
    iff q - p <= R[p + q].  A block of a factorization is admissible, so
    it is the longest valid block at its centre c = p + q: its length is
    R[c] lowered to the parity of c.  As q - p has the parity of c, that
    is the radius test 0 <= R[c] - (q - p) < 2.  With at most one empty
    block, every non-empty block is shorter than h, so the candidates are
    the blocks [p, q) with 0 < q - p < h that pass it, fewer than 2n.
    Each cut set is found once, from its least cut s < h, with X = [s, q1)
    and Y non-empty, so q1 < h, and t = s + h.  So the search reads the
    candidates by start p < h and by end h <= q < n only, and they are
    filed there alone, each list ascending: h lists of each, in one pass
    over R.  A square has Y = [q1, t) and Z empty: one radius test.  A
    hexagon has q1 < q2 < h, with q2 run over the shorter of the candidate
    ends after q1 and the candidate starts of Z = [q2, t), and kept when Y
    and Z both pass the test.  That is fewer than 2n scans, O(n D) Python
    steps for D the most candidates sharing an endpoint.  The hexagons
    from X come before its square, so the cut sets come out ascending with
    no sort.  A factorization holds its cuts and w, and its blocks are
    sliced when read.  The letters are checked once, by `is_closed`, and
    counted again only by the walk; the hat in `_may_tile` and the half
    turn of w are plain translations.
    """
    if not (is_closed(word) and _may_tile(word) and is_simple(word)):
        return []
    w = canonical_rotation(word)
    n = len(w)
    h = n // 2
    z = [""] * (2 * n)
    z[0::2] = w[h:] + w[:h]
    z[1::2] = w.translate(_ROT[2])
    radii = _even_radii(z)
    ends = [[] for _ in range(h)]  # ends[p], p < h: every q with [p, q) a candidate
    starts = [[] for _ in range(h)]  # starts[q - h], h <= q < n: every such p
    for c, r in enumerate(radii):
        r -= (r - c) & 1
        if 0 < r < h:
            p = (c - r) // 2
            q = p + r
            if p < h:
                ends[p].append(q)
            if h <= q < n:
                starts[q - h].append(p)

    found = []
    for s in range(h):
        t = s + h
        zs = starts[s]  # every p with [p, t) a candidate
        for q1 in ends[s]:
            if q1 >= h:
                break
            ys = ends[q1]
            for q2 in ys if len(ys) <= len(zs) else zs:
                if (
                    q1 < q2 < h
                    and 0 <= radii[q1 + q2] - (q2 - q1) < 2
                    and 0 <= radii[q2 + t] - (t - q2) < 2
                ):
                    found.append((s, q1, q2, t, q1 + h, q2 + h))
            if 0 <= radii[q1 + t] - (t - q1) < 2:
                found.append((s, q1, t, q1 + h))
    return [BNFactorization(cuts, w) for cuts in found]


def classify(word):
    """not-exact / square / hexagon, preferring square when both exist."""
    return TileClass.of(bn_factorizations(word))


def square_count(word):
    """Number of distinct square factorizations (cut sets with 4 cuts)."""
    return sum(f.is_square for f in bn_factorizations(word))

