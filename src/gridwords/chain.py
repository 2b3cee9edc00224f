"""Chain-code words over the alphabet {0,1,2,3} = right, up, left, down.

Letters form the additive group of integers mod 4.  Words are plain
strings; functions that treat a word cyclically say so, and a closed
word stands for its conjugacy class through `canonical_rotation`.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .lyndon import _groups, _require_str
from .quadgraph import _walk, detect_first_intersection, letter_counts

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

# Letter pairs that turn left (difference 1) besides the wrap 30, and the
# pairs that cancel (difference 2).
_LEFT = ("01", "12", "23")
_HALF = ("02", "20", "13", "31")
_CANCEL = re.compile("|".join(_HALF).encode())


def _validate(word):
    letter_counts(word)
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
    if not _validate(word):
        raise ValueError("delta undefined on empty word")
    b = word.encode()
    return "".join(ALPHABET[(b[i + 1] - b[i]) % 4] for i in range(len(b) - 1))


def delta_circular(word):
    """First differences of the word read cyclically (closing term appended).

    Same length as the input.  The result is itself a cyclic word but in
    general not closed as a path, so it is returned as a plain string.
    """
    if not _require_str(word):
        raise ValueError("delta undefined on empty circular word")
    return delta(word + word[:1])


def reduce(word, circular=False):
    """Normal form after deleting cancelling step pairs {02, 20, 13, 31}.

    With circular=True the seam (last letter against first) is cancelled
    too, modelling reduction of the conjugacy class.  A word with no
    cancelling pair, and no cancelling seam if circular, is returned as it
    is.  Otherwise one split at the input's cancelling pairs drops those
    pairs and leaves stretches free of them.  A stack of bytes pops while a
    stretch's next letter cancels its top, then takes the rest of the
    stretch whole: the loop runs once per stretch and once per
    cancellation.  Free reduction is confluent, so the order of the
    cancellations does not matter.
    """
    return _reduce(_validate(word), circular)


def _reduce(word, circular, start=0):
    """reduce on a word whose letters the caller has already checked, and
    in which no cancelling pair begins before index `start`."""
    if not any(word.find(pair, start) >= 0 for pair in _HALF) and not (
        circular and word and (ord(word[0]) - ord(word[-1])) % 4 == 2
    ):
        return word
    out = bytearray()
    for piece in _CANCEL.split(word.encode()):
        k, n = 0, len(piece)
        while k < n and out and (piece[k] - out[-1]) % 4 == 2:
            out.pop()
            k += 1
        out += piece[k:]
    lo, hi = 0, len(out)
    if circular:
        while hi - lo >= 2 and (out[lo] - out[hi - 1]) % 4 == 2:
            lo += 1
            hi -= 1
    return out[lo:hi].decode()


def _balanced(counts):
    """True iff letter counts (#0, #1, #2, #3) bring a path back to its start."""
    right, up, left, down = counts
    return right == left and up == down


def is_closed(word):
    """True iff the path returns to its start (letter counts balance)."""
    return _balanced(letter_counts(word))


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


def _turns(word, circular):
    """Quarter turns of a word with no cancelling pair, seam included if
    circular.  Each first difference b - a is its turn, 0 or +-1, except
    across the wrap: 30 turns left and 03 right.  So the turns telescope to
    last - first + 4 (#30 - #03); neither bigram can overlap itself."""
    if circular and word:
        word += word[0]
    if not word:
        return 0
    return ord(word[-1]) - ord(word[0]) + 4 * (word.count("30") - word.count("03"))


def turning_number(word, circular=False):
    """Left turns minus right turns of the reduced word, in quarter turns.

    `_turns` of reduce(word, circular), which has no cancelling pair, so no
    letter pair is a half turn.  The circular flag requires a closed word
    and counts the seam too.  The letters are counted once, for both the
    check and the closure test.
    """
    counts = letter_counts(word)
    if circular and not _balanced(counts):
        raise ValueError("not closed")
    return TurningNumber(_turns(_reduce(word, circular), circular))


def path_facts(word):
    """(closed, simple, turning, corners) of a path, from one walk.

    The walk is shared with the other verdicts called on an equal word,
    and `closed` comes from the letter counts that seed it.  A
    simple word has no cancelling pair, and a simple closed word none
    across its seam either, since a last step that undid the first would
    revisit the first vertex early; so only a word that is not simple is
    reduced before `_turns` counts T, read cyclically when closed; a pair
    at letters j-1, j revisits by letter j + 1, so no pair begins before
    the first revisit less 2.  corners is (S, R) for a boundary word, a
    non-empty closed simple word, else None: its left turns L, seam
    included, and its right turns L - T.  With the seam, T = 4 (#30 - #03)
    and L = #01 + #12 + #23 + #30: five bigram counts.
    """
    counts, hit = _walk(word)
    simple = simple_from_revisit(word, hit)
    closed = _balanced(counts)
    corners = None
    if not simple:
        turning = _turns(_reduce(word, closed, hit[0] - 2), closed)
    elif closed and word:
        seamed = word + word[0]
        wraps = seamed.count("30")
        turning = 4 * (wraps - seamed.count("03"))
        left = wraps + sum(map(seamed.count, _LEFT))
        corners = max(left, left - turning), min(left, left - turning)
    else:
        turning = _turns(word, closed)
    return closed, simple, TurningNumber(turning), corners


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
    begins before len(word) begins.  Duval's scan runs on word + word and
    stops at the first group that begins at or after len(word), slicing
    no factor.
    """
    start = 0
    for start, _, _ in _groups(_require_str(word) * 2, len(word)):
        pass
    return start


def canonical_rotation(word):
    """Lexicographically least rotation of the word."""
    k = least_rotation(word)
    return word[k:] + word[:k]

