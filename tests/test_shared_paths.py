"""Checks on the code shared by several verdicts: error messages, the
extremal split's corner points, and the convexity evidence the CLI prints."""

import pytest

from gridwords import (
    bn_factorizations,
    canonical_rotation,
    classify,
    decide_convexity,
    delta,
    delta_circular,
    detect_first_intersection,
    enclosed_cells,
    gen_random_polyomino,
    hat,
    is_christoffel,
    is_closed,
    is_digitally_convex,
    is_lyndon,
    is_nw_convex,
    is_simple,
    least_rotation,
    lyndon_factorize,
    orient_ccw,
    reduce,
    reflect,
    rotate,
    salient_reentrant,
    split_extremal,
    square_count,
    trace,
    turning_number,
)
from gridwords.chain import path_facts


def reflected(word):
    return reflect(word, 1)


# Every public function that reads a chain word names its first bad letter.
@pytest.mark.parametrize(
    "func",
    [
        pytest.param(f, id=f.__name__)
        for f in (
            detect_first_intersection,
            bn_factorizations,
            classify,
            decide_convexity,
            delta,
            delta_circular,
            enclosed_cells,
            hat,
            is_closed,
            is_digitally_convex,
            is_simple,
            orient_ccw,
            path_facts,
            reduce,
            reflected,
            rotate,
            salient_reentrant,
            split_extremal,
            square_count,
            trace,
            turning_number,
        )
    ],
)
@pytest.mark.parametrize(
    "word, bad",
    [
        ("01é", "é"),
        ("0€12", "€"),
        ("x0", "x"),
        pytest.param("0123" * ((1 << 14) - 1) + "321x", "x", id="last-of-2^16-x"),
        ("01\u0663", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("\uff101", "\uff10"),  # FULLWIDTH DIGIT ZERO
        ("0\x001", "\x00"),
    ],
)
def test_invalid_letter_names_the_character(func, word, bad):
    with pytest.raises(ValueError) as info:
        func(word)
    assert str(info.value) == f"invalid chain letter {bad!r}"


# Each check of chain letters first checks for a str.  A list reaching a
# function that remembers its last word fails earlier, in `lru_cache`, as
# unhashable: also a TypeError.
@pytest.mark.parametrize(
    "func",
    [
        pytest.param(f, id=f.__name__)
        for f in (
            is_closed,
            is_simple,
            reduce,
            hat,
            rotate,
            reflected,
            turning_number,
            detect_first_intersection,
            orient_ccw,
            split_extremal,
            is_digitally_convex,
            bn_factorizations,
        )
    ],
)
@pytest.mark.parametrize(
    "word",
    [list("0123"), tuple("0123"), 5, None, b"0123"],
    ids=lambda w: type(w).__name__,
)
def test_word_that_is_not_a_str_raises_type_error(func, word):
    name = type(word).__name__
    message = f"chain word must be str, not {name}"
    if isinstance(word, list):
        message += f"|unhashable type: '{name}'"
    with pytest.raises(TypeError, match=f"^({message})$"):
        func(word)



# Functions that read a word without counting chain letters check its type
# first, so an empty sequence or None is not taken for the empty word.
@pytest.mark.parametrize(
    "func",
    [
        pytest.param(f, id=f.__name__)
        for f in (
            least_rotation,
            canonical_rotation,
            lyndon_factorize,
            is_lyndon,
            is_nw_convex,
            is_christoffel,
            delta,
            delta_circular,
        )
    ],
)
@pytest.mark.parametrize(
    "word",
    [[], list("0123"), tuple("0123"), b"0123", None],
    ids=["empty-list", "list", "tuple", "bytes", "None"],
)
def test_word_that_is_not_a_str_raises_type_error_before_any_scan(func, word):
    with pytest.raises(TypeError, match=f"word must be str, not {type(word).__name__}$"):
        func(word)

def _shapes():
    for cells in (1, 4, 9, 25, 60):
        for seed in range(6):
            w = gen_random_polyomino(cells, seed)
            yield w
            yield hat(w)


def test_split_corners_lie_on_the_traced_word():
    for w in _shapes():
        s = split_extremal(w)
        pos = trace(s.word)
        cuts = [0]
        for arc in s.arcs[:3]:
            cuts.append(cuts[-1] + len(arc))
        assert (s.w, s.s, s.e, s.n) == tuple(pos[c] for c in cuts), w


def test_decide_convexity_evidence():
    for w in _shapes():
        split, factors, convex = decide_convexity(w)
        assert split == split_extremal(w)
        assert convex == is_digitally_convex(w)
        for arc, fs, quarter in zip(split.arcs, factors, (1, 0, 3, 2)):
            assert rotate("".join(f * n for f, n in fs), -quarter)[::-1] == arc
