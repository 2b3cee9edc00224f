"""The one-entry memos on the quadtree walk and the extremal split.

Verdicts called on equal words share one walk and one split.  The memos
are `functools.lru_cache(maxsize=1)`: keyed by the word's value, they keep
only the last word, store nothing for a call that raises, and never hand
one thread's result to another.
"""

import sys
import threading
import time

import pytest

from gridwords import (
    detect_first_intersection,
    gen_random_polyomino,
    hat,
    is_simple,
    quadgraph,
    split_extremal,
)
from helpers import extremal_points_oracle, first_intersection_oracle


def _copy(word):
    """An equal string that is a distinct object."""
    copy = word[:1] + word[1:]
    assert copy == word and copy is not word
    return copy


def _fields(split):
    return split.word, split.arcs, split.w, split.s, split.e, split.n


def test_one_word_object_is_walked_and_split_once(calls):
    word = gen_random_polyomino(30, 5)
    first = split_extremal(word)
    assert detect_first_intersection(word) == first_intersection_oracle(word)
    assert is_simple(word)
    assert split_extremal(word) is first
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 2}


def test_an_equal_but_distinct_word_shares_the_scan(calls):
    word = gen_random_polyomino(30, 6)
    hit, split = detect_first_intersection(word), split_extremal(word)
    copy = _copy(word)
    assert detect_first_intersection(copy) == hit
    assert split_extremal(copy) == split
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 2}


def test_alternating_words_match_the_oracles_every_time(calls):
    a, b = gen_random_polyomino(40, 7), hat(gen_random_polyomino(25, 8))
    for k in range(6):
        word = (a, b)[k % 2]
        assert detect_first_intersection(word) == first_intersection_oracle(word)
        assert _fields(split_extremal(word)) == extremal_points_oracle(word)
    # each call meets the other word's entry, so every call scans
    assert calls == {"walk": 6, "reduce": 0, "key_passes": 12}


@pytest.mark.parametrize(
    "bad",
    ("01x", pytest.param("0123" * 100 + "\u0663", id="last-of-401-arabic-three")),
)
def test_a_bad_letter_raises_every_time_and_keeps_the_entry(bad, calls):
    word = "00121233"
    hit, split = detect_first_intersection(word), split_extremal(word)
    for _ in range(3):
        for verdict in (detect_first_intersection, split_extremal):
            with pytest.raises(ValueError, match="^invalid chain letter"):
                verdict(bad)
    assert split_extremal(word) is split
    assert detect_first_intersection(word) == hit
    assert calls == {"walk": 1, "reduce": 0, "key_passes": 2}


@pytest.mark.parametrize("other", ("0011", "02", "", "002002"))
def test_a_non_boundary_word_fails_to_split_every_time(other, calls):
    word = "010121232303"
    split = split_extremal(word)
    for _ in range(3):
        with pytest.raises(ValueError, match="^not a boundary word$"):
            split_extremal(other)
    assert split_extremal(word) is split
    assert calls["key_passes"] == 2


def test_the_last_word_is_let_go_by_the_next_call():
    first = _copy("0" * 1000 + "1" * 1000 + "2" * 1000 + "3" * 1000)
    baseline = sys.getrefcount(first)
    detect_first_intersection(first)
    split_extremal(first)
    assert sys.getrefcount(first) > baseline  # held by both memos
    split_extremal("00121233")  # walks and splits another word
    assert sys.getrefcount(first) == baseline


def test_threads_never_get_each_others_answer(monkeypatch):
    # two boundary words with different revisits and different splits; each
    # thread scans a fresh copy of its word, then asks again.  Every walk
    # and every call gives the other thread a turn, so the other thread's
    # scans begin and end between a thread's scan and its remembered result.
    words = ("0" * 5 + "1" + "2" * 5 + "3", "00121233")
    want = [
        (first_intersection_oracle(w), _fields(split_extremal(w))) for w in words
    ]

    class YieldingQuadGraph(quadgraph.QuadGraph):
        def __init__(self, start=(0, 0)):
            time.sleep(0)
            super().__init__(start)

    monkeypatch.setattr(quadgraph, "QuadGraph", YieldingQuadGraph)
    wrong = []
    start = threading.Barrier(2)

    def run(k):
        start.wait()
        for _ in range(10_000):
            word = _copy(words[k])
            for _ in range(2):
                got = detect_first_intersection(word), _fields(split_extremal(word))
                if got != want[k]:
                    wrong.append((k, got))
                time.sleep(0)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []
