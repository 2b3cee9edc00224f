"""Lyndon factorization (Duval) and Christoffel word construction/recognition.

Lyndon machinery works over any ordered alphabet (plain string comparison);
the Christoffel side is specific to {0,1}.
"""

from math import gcd


def _require_str(word):
    """The word itself; TypeError naming the type of anything but a str."""
    if not isinstance(word, str):
        raise TypeError(f"word must be str, not {type(word).__name__}")
    return word


def is_lyndon(word):
    """True iff word is primitive and least among its rotations.

    That is, iff its Lyndon factorization is the word itself, once.
    """
    if not _require_str(word):
        raise ValueError("empty word")
    return lyndon_factorize(word) == [(word, 1)]


def lyndon_factorize(word):
    """Unique nonincreasing Lyndon factorization as (factor, exponent) pairs.

    Duval's three-index scan; linear time.  Consecutive factors are
    strictly decreasing, equal neighbors having been grouped into the
    exponent.  The empty word is the empty product.
    """
    return [
        (word[k:k + length], count)
        for k, length, count in _groups(_require_str(word), len(word))
    ]


def _groups(word, stop):
    """(start, length, exponent) of each group of equal Lyndon factors of
    word that starts before `stop`, from Duval's scan.

    The scan reads each letter pair once per step and compares it three
    ways.
    """
    k, n = 0, len(word)
    while k < stop:
        i, j = k, k + 1
        while j < n:
            a, b = word[i], word[j]
            if a < b:
                i = k
            elif a == b:
                i += 1
            else:
                break
            j += 1
        length = j - i
        count = (i - k) // length + 1
        yield k, length, count
        k += length * count


def format_factorization(factors):
    """Render factor pairs as '(f1)^n1 (f2)^n2 ...'."""
    return " ".join(f"({f})^{n}" for f, n in factors)


def christoffel(a, b):
    """Lower Christoffel word with a letters 0 and b letters 1.

    Discretizes the segment of slope b/a from below; requires gcd(a,b)=1.
    Built from 01 by the Christoffel morphisms G (1 -> 01) and D~
    (0 -> 01), which take the word of (a, b) to those of (a + b, b) and
    (a, a + b): Euclid's algorithm runs (a, b) down to (1, 1), and each
    run of k equal steps, G^k (1 -> 0^k 1) or D~^k (0 -> 0 1^k), is one
    `str.replace`, applied innermost first.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need nonnegative counts with a+b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("not primitive")
    if not a or not b:
        return "0" if a else "1"
    runs = []
    while a != b:  # coprime, so they meet at (1, 1)
        if a > b:
            k = (a - 1) // b
            a -= k * b
            runs.append(("1", "0" * k + "1"))
        else:
            k = (b - 1) // a
            b -= k * a
            runs.append(("0", "0" + "1" * k))
    word = "01"
    for letter, image in reversed(runs):
        word = word.replace(letter, image)
    return word


def is_christoffel(word):
    """True iff word is the lower Christoffel word of its letter counts."""
    if not _require_str(word):
        raise ValueError("empty word")
    bad = word.strip("01")
    if bad:
        raise ValueError(f"letter outside {{0,1}}: {bad[0]!r}")
    a, b = word.count("0"), word.count("1")
    if gcd(a, b) != 1:
        return False
    return word == christoffel(a, b)
