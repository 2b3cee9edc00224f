"""path_facts against the oracles, and one walk per boundary verdict."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from gridwords import (
    bn_factorizations,
    chain,
    cli,
    convexity,
    enclosed_cells,
    gen_random_polyomino,
    hat,
    is_closed,
    is_digitally_convex,
    is_simple,
    orient_ccw,
    quadgraph,
    salient_reentrant,
    split_extremal,
    turning_number,
)
from gridwords.chain import path_facts
from helpers import (
    area_shoelace,
    boundary_words,
    corner_counts,
    first_intersection_oracle,
    gauss_disk,
    turning_oracle,
)


def oracle_quarter_turns(word, circular):
    left, right = turning_oracle(word, circular)
    return left - right


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
    assert turning.quarter_turns == oracle_quarter_turns(word, closed)
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


def _self_avoiding(rng, length):
    """A random walk that never steps onto a point it has visited, cut
    short where it is stuck: a word with no revisit."""
    x = y = 0
    seen = {(0, 0)}
    letters = []
    for _ in range(length):
        free = [
            c
            for c, (dx, dy) in zip("0123", chain.STEPS)
            if (x + dx, y + dy) not in seen
        ]
        if not free:
            break
        c = rng.choice(free)
        dx, dy = chain.STEPS[int(c)]
        x, y = x + dx, y + dy
        seen.add((x, y))
        letters.append(c)
    return "".join(letters)


def test_turning_matches_the_reduce_route_on_seeded_words():
    rng = Random(18)
    open_words = 0
    for k in range(3000):
        n = rng.randrange(1, 200)
        if k % 2:
            word = _self_avoiding(rng, n)
        else:
            word = "".join(rng.choices("0123", k=n))
        closed, _, turning, _ = path_facts(word)
        assert turning == turning_number(word, circular=closed), word
        assert turning.quarter_turns == oracle_quarter_turns(word, closed), word
        open_words += first_intersection_oracle(word) is None
    assert open_words >= 1500  # the self-avoiding half, at least
    # 10^4-letter words dense in cancelling pairs: random ones, each letter
    # undoing the one before half the time, and closed ones, shuffled
    # balanced letter multisets
    for k in range(20):
        if k % 2:
            pairs = rng.randrange(5001)
            letters = list("02" * pairs + "13" * (5000 - pairs))
            rng.shuffle(letters)
        else:
            letters = [rng.choice("0123")]
            for _ in range(9999):
                undo = rng.random() < 0.5
                letters.append("2301"[int(letters[-1])] if undo else rng.choice("0123"))
        word = "".join(letters)
        closed = is_closed(word)
        assert closed or not k % 2
        for circular in (False, True) if closed else (False,):
            turning = turning_number(word, circular=circular).quarter_turns
            assert turning == oracle_quarter_turns(word, circular), (k, circular)


def test_short_loops_have_no_corners():
    assert path_facts("") == (True, True, chain.TurningNumber(0), None)
    for word in ("02", "20", "13", "31"):
        assert path_facts(word) == (True, False, chain.TurningNumber(0), None)


BOUNDARIES = (
    "0123",
    "00121233",
    hat("00121233"),
    gen_random_polyomino(40, 3),
    pytest.param(gauss_disk(250), id="gauss_disk-250"),
)


def _spiral(runs, turn):
    """The open square spiral: run k of k//2 + 1 letters in direction
    turn*k mod 4, counterclockwise for turn 1 and clockwise for turn 3.  It
    is simple, and turns runs - 1 times, every time the same way."""
    return "".join(str(turn * k % 4) * (k // 2 + 1) for k in range(runs))


# spirals of 100,172 and 1,001,000 letters, and their known quarter turns
KNOWN_TURNS = {
    _spiral(runs, turn): sign * (runs - 1)
    for runs in (632, 2000)
    for turn, sign in ((1, 1), (3, -1))
}
SPIRALS = [
    pytest.param(
        word,
        id=f"spiral-{len(word)}-{'ccw' if turns > 0 else 'cw'}",
        marks=[pytest.mark.slow] if len(word) > 10**6 else [],
    )
    for word, turns in KNOWN_TURNS.items()
]


@pytest.mark.parametrize("word", BOUNDARIES)
def test_analyze_walks_a_boundary_word_once_without_reduce(word, calls, capsys):
    assert cli.main(["analyze", word]) == 0
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 0}
    assert " S=" in capsys.readouterr().out


@pytest.mark.parametrize("word", ("002", "0011", "02", "", *SPIRALS))
def test_analyze_walks_other_words_once(word, calls, capsys):
    cli.main(["analyze", word])
    # a word with no revisit has no cancelling pair, so it needs no reduce
    reduces = 0 if first_intersection_oracle(word) is None else 1
    assert calls == {"walk": 1, "reduce": reduces, "key_passes": 0}
    out = capsys.readouterr().out
    assert " S=" not in out
    turns = oracle_quarter_turns(word, is_closed(word))
    assert turns == KNOWN_TURNS.get(word, turns)
    assert out.endswith(f" T={Fraction(turns, 4)}\n")


@pytest.mark.parametrize("verdict", (orient_ccw, salient_reentrant))
@pytest.mark.parametrize("word", BOUNDARIES)
def test_orientation_and_corners_walk_once(verdict, word, calls):
    verdict(word)
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 0}


@pytest.mark.parametrize("word", BOUNDARIES)
def test_one_shapes_operation_reduces_once(word, calls):
    # the verdicts of one shapes operation, on one word object, share one
    # walk and one split
    is_closed(word)
    is_simple(word)
    turning_number(word, circular=True)
    salient_reentrant(word)
    split_extremal(word)
    is_digitally_convex(word)
    assert calls == {"walk": 1, "reduce": 1, "key_passes": 2}


@pytest.mark.parametrize("word", ("00121233", hat("00121233")))
def test_one_shapes_operation_reads_its_memo_hits(word):
    # is_simple walks; salient_reentrant and the split's orient_ccw read
    # that walk, and is_digitally_convex reads the split
    is_closed(word)
    is_simple(word)
    turning_number(word, circular=True)
    salient_reentrant(word)
    split_extremal(word)
    is_digitally_convex(word)
    walk, split = quadgraph._walk.cache_info(), convexity._split.cache_info()
    assert (walk.misses, walk.hits, split.misses, split.hits) == (1, 2, 1, 1)
    # one entry each: a larger memo would keep many long words alive
    for memo in (quadgraph._walk, convexity._split):
        assert memo.cache_parameters()["maxsize"] == 1


@pytest.mark.parametrize("command", ("analyze", "intersect", "convex"))
def test_each_cli_record_is_walked_once(command, calls, capsys):
    # three different words are three walks; three equal words, each its
    # own object, share one walk
    word = "00121233"
    different = [word, hat(word), "0123"]
    equal = [word[:k] + word[k:] for k in (1, 2, 3)]
    assert len({id(w) for w in equal}) == 3
    for words, walks in ((different, 3), (equal, 1)):
        calls.update(walk=0, key_passes=0)
        assert cli.main([command, *words]) == 0
        assert calls == {
            "walk": walks,
            "reduce": 0,
            "key_passes": 2 * walks if command == "convex" else 0,
        }
        assert len(capsys.readouterr().out.splitlines()) == 3


# a square, a domino read both ways, the plus pentomino and a 100x100 square
TILES = (
    "0123",
    "00121233",
    hat("00121233"),
    "010121232303",
    "".join(c * 100 for c in "0123"),
)


@pytest.mark.parametrize("word", TILES)
def test_a_tiling_search_walks_once(word, calls):
    assert bn_factorizations(word)
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 0}



@pytest.mark.parametrize("word", ("00121233", "0011", "002", "0202", "13"))
@pytest.mark.parametrize("circular", (False, True))
def test_turning_number_and_path_facts_count_the_letters_once(
    word, circular, monkeypatch
):
    closed = is_closed(word)
    counted = []
    letter_counts = quadgraph.letter_counts

    def counting(w):
        counted.append(w)
        return letter_counts(w)

    # the walk takes its counts from quadgraph, the other verdicts from chain
    monkeypatch.setattr(quadgraph, "letter_counts", counting)
    monkeypatch.setattr(chain, "letter_counts", counting)
    if circular and not closed:
        with pytest.raises(ValueError, match="^not closed$"):
            turning_number(word, circular=True)
    else:
        turning_number(word, circular=circular)
    assert counted == [word]
    counted.clear()
    path_facts(word)
    assert counted == [word]
