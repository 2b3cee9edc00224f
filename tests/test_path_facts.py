"""path_facts against the oracles, and one walk per boundary verdict."""

from itertools import product

import pytest

from gridwords import (
    chain,
    cli,
    enclosed_cells,
    gen_random_polyomino,
    hat,
    is_closed,
    is_digitally_convex,
    is_simple,
    orient_ccw,
    salient_reentrant,
    split_extremal,
    turning_number,
)
from gridwords.chain import path_facts
from helpers import area_shoelace, boundary_words, corner_counts, first_intersection_oracle


def check_against_oracles(word):
    """Assert every fact of path_facts(word); True iff it is a boundary word.

    Rejection by orient_ccw and salient_reentrant is checked on closed
    words only, where it is in doubt.
    """
    closed, simple, turning, corners = path_facts(word)
    assert closed == (
        word.count("0") == word.count("2") and word.count("1") == word.count("3")
    )
    hit = first_intersection_oracle(word)
    assert simple == (hit is None or (hit[0] == len(word) > 2 and closed))
    assert turning == turning_number(word, circular=closed)  # the reduce route
    if not (closed and simple and len(word) > 2):
        assert corners is None
        for verdict in (orient_ccw, salient_reentrant) if closed else ():
            with pytest.raises(ValueError, match="^not a boundary word$"):
                verdict(word)
        return False
    assert abs(turning.quarter_turns) == 4
    assert corners == salient_reentrant(word) == corner_counts(enclosed_cells(word))
    assert orient_ccw(word) == (word if area_shoelace(word) > 0 else hat(word))
    return True


def test_every_word_up_to_length_8():
    boundaries = sum(
        check_against_oracles("".join(letters))
        for k in range(9)
        for letters in product("0123", repeat=k)
    )
    # fixed polyominoes: 1 of perimeter 4, 2 dominoes of perimeter 6, and 6
    # trominoes plus the 2x2 square of perimeter 8, each read from every
    # start in both directions
    assert boundaries == 2 * (4 * 1 + 6 * 2 + 8 * (6 + 1))


@pytest.mark.parametrize("perimeter", range(4, 17, 2))
def test_every_boundary_word_and_its_hat(perimeter):
    for word in boundary_words(perimeter):
        assert check_against_oracles(word)
        assert check_against_oracles(hat(word))


def test_short_loops_have_no_corners():
    assert path_facts("") == (True, True, chain.TurningNumber(0), None)
    for word in ("02", "20", "13", "31"):
        assert path_facts(word) == (True, False, chain.TurningNumber(0), None)


@pytest.fixture
def calls(monkeypatch):
    """Counts of quadtree walks and reduce calls made through gridwords.chain."""
    counts = {"walk": 0, "reduce": 0}
    walk, reduce = chain.detect_first_intersection, chain.reduce

    def counted_walk(word):
        counts["walk"] += 1
        return walk(word)

    def counted_reduce(word, circular=False):
        counts["reduce"] += 1
        return reduce(word, circular)

    monkeypatch.setattr(chain, "detect_first_intersection", counted_walk)
    monkeypatch.setattr(chain, "reduce", counted_reduce)
    return counts


BOUNDARIES = ("0123", "00121233", hat("00121233"), gen_random_polyomino(40, 3))


@pytest.mark.parametrize("word", BOUNDARIES)
def test_analyze_walks_a_boundary_word_once_without_reduce(word, calls, capsys):
    assert cli.main(["analyze", word]) == 0
    assert calls == {"walk": 1, "reduce": 0}
    assert " S=" in capsys.readouterr().out


@pytest.mark.parametrize("word", ("002", "0011", "02", ""))
def test_analyze_walks_other_words_once(word, calls, capsys):
    cli.main(["analyze", word])
    assert calls == {"walk": 1, "reduce": 1}
    assert " S=" not in capsys.readouterr().out


@pytest.mark.parametrize("verdict", (orient_ccw, salient_reentrant))
@pytest.mark.parametrize("word", BOUNDARIES)
def test_orientation_and_corners_walk_once(verdict, word, calls):
    verdict(word)
    assert calls == {"walk": 1, "reduce": 0}


@pytest.mark.parametrize("word", BOUNDARIES)
def test_one_shapes_operation_reduces_once(word, calls):
    is_closed(word)
    is_simple(word)
    turning_number(word, circular=True)
    salient_reentrant(word)
    split_extremal(word)
    is_digitally_convex(word)
    assert calls == {"walk": 4, "reduce": 1}
