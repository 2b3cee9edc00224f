"""Chain-code words over the alphabet {0,1,2,3} = right, up, left, down.

Letters form the additive group of integers mod 4.  Words are plain
strings; functions that treat a word cyclically say so, and a closed
word stands for its conjugacy class through `canonical_rotation`.
"""

from dataclasses import dataclass
from fractions import Fraction

from .lyndon import lyndon_factorize
from .quadgraph import detect_first_intersection

ALPHABET = "0123"
STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))

_ROT = tuple(
    str.maketrans(ALPHABET, "".join(ALPHABET[(d + i) % 4] for d in range(4)))
    for i in range(4)
)
_REF = tuple(
    str.maketrans(ALPHABET, "".join(ALPHABET[(i - d) % 4] for d in range(4)))
    for i in range(4)
)


def _validate(word):
    bad = word.strip(ALPHABET)
    if bad:
        raise ValueError(f"invalid chain letter {bad[0]!r}")
    return word


def rotate(word, quarter_turns=1):
    """Rotate every letter by quarter_turns (the morphism x -> x + i mod 4)."""
    return _validate(word).translate(_ROT[quarter_turns % 4])


def reflect(word, axis):
    """Reflect every letter across axis (the morphism x -> i - x mod 4)."""
    return _validate(word).translate(_REF[axis % 4])


def hat(word):
    """The same path traversed backwards: rotate the reversal by 2."""
    return _validate(word)[::-1].translate(_ROT[2])


def delta(word):
    """Word of successive letter differences mod 4; length drops by one."""
    if not word:
        raise ValueError("delta undefined on empty word")
    b = _validate(word).encode()
    return "".join(ALPHABET[(b[i + 1] - b[i]) % 4] for i in range(len(b) - 1))


def delta_circular(word):
    """First differences of the word read cyclically (closing term appended).

    Same length as the input.  The result is itself a cyclic word but in
    general not closed as a path, so it is returned as a plain string.
    """
    if not word:
        raise ValueError("delta undefined on empty circular word")
    b = word.encode()
    return delta(word) + ALPHABET[(b[0] - b[-1]) % 4]


def reduce(word, circular=False):
    """Normal form after deleting cancelling step pairs {02, 20, 13, 31}.

    With circular=True the seam (last letter against first) is cancelled
    too, modelling reduction of the conjugacy class.
    """
    out = []
    for ch in _validate(word):
        if out and (ord(ch) - ord(out[-1])) % 4 == 2:
            out.pop()
        else:
            out.append(ch)
    if circular:
        lo, hi = 0, len(out)
        while hi - lo >= 2 and (ord(out[lo]) - ord(out[hi - 1])) % 4 == 2:
            lo += 1
            hi -= 1
        out = out[lo:hi]
    return "".join(out)


def is_closed(word):
    """True iff the path returns to its start (letter counts balance)."""
    _validate(word)
    return word.count("0") == word.count("2") and word.count("1") == word.count("3")


def simple_from_revisit(word, hit):
    """The simplicity rule, given hit = detect_first_intersection(word): no
    revisit, or only the closing return of a word longer than 2 (02 retraces
    its one edge)."""
    return hit is None or (hit == (len(word), (0, 0)) and len(word) > 2)


def is_simple(word):
    """True iff no grid point is visited twice, except the closing return
    of a closed word longer than 2."""
    return simple_from_revisit(word, detect_first_intersection(word))


def trace(word, start=(0, 0)):
    """Geometric realization: the tuple of the path's len(word) + 1
    vertices, from start to the end point."""
    _validate(word)
    x, y = start
    vertices = [(x, y)]
    append = vertices.append
    for ch in word:
        dx, dy = STEPS[ord(ch) - 48]
        x += dx
        y += dy
        append((x, y))
    return tuple(vertices)


@dataclass(frozen=True)
class TurningNumber:
    quarter_turns: int

    @property
    def as_rational(self):
        return Fraction(self.quarter_turns, 4)

    def __str__(self):
        return str(self.as_rational)


def turning_number(word, circular=False):
    """Left turns minus right turns of the reduced word, in quarter turns.

    Counts 1s minus 3s of the differences of reduce(word, circular); the
    reduced word has no cancelling pair, so no difference is a half turn.
    The circular flag requires a closed word.
    """
    if circular and not is_closed(word):
        raise ValueError("not closed")
    w = reduce(word, circular)
    if not w:
        return TurningNumber(0)
    d = delta_circular(w) if circular else delta(w)
    return TurningNumber(d.count("1") - d.count("3"))


def path_facts(word):
    """(closed, simple, turning, corners) of a path, from one walk.

    corners is (S, R) for a boundary word, else None.  A simple word with
    a revisit is closed and longer than 2 (`simple_from_revisit`), so it
    has no cancelling pair, even across the seam: T and (S, R) need no
    `reduce`, and one count of its cyclic differences gives both.
    """
    hit = detect_first_intersection(word)
    simple = simple_from_revisit(word, hit)
    if simple and hit is not None:  # closed, simple and longer than 2
        d = delta_circular(word)
        left, right = d.count("1"), d.count("3")
        corners = max(left, right), min(left, right)
        return True, True, TurningNumber(left - right), corners
    closed = is_closed(word)
    return closed, simple, turning_number(word, circular=closed), None


def orient_ccw(word):
    """The word or its hat, whichever traverses the boundary counterclockwise.

    Raises ValueError unless the input is a boundary word (closed, simple,
    turning number +-1).  One walk, through `path_facts`.
    """
    _, _, turning, corners = path_facts(word)
    if corners is None:
        raise ValueError("not a boundary word")
    return word if turning.quarter_turns == 4 else hat(word)


def salient_reentrant(word):
    """Counts (S, R) of salient and reentrant corners of a boundary word.

    Left and right turns read cyclically counterclockwise, so S - R = 4.
    One walk, through `path_facts`; raises ValueError for other words.
    """
    corners = path_facts(word)[3]
    if corners is None:
        raise ValueError("not a boundary word")
    return corners


def least_rotation(word):
    """Index at which the lexicographically least rotation starts.

    That is where the last group of Lyndon factors of word + word that
    begins before len(word) begins (Duval's scan).
    """
    start = k = 0
    for factor, count in lyndon_factorize(word + word):
        if k >= len(word):
            break
        start = k
        k += len(factor) * count
    return start


def canonical_rotation(word):
    """Lexicographically least rotation of the word."""
    k = least_rotation(word)
    return word[k:] + word[:k]

