import itertools
import random
from fractions import Fraction

import pytest

from gridwords import (
    CircularWord,
    canonical_rotation,
    delta,
    delta_circular,
    hat,
    is_closed,
    is_simple,
    least_rotation,
    orient_ccw,
    reduce,
    reflect,
    rotate,
    salient_reentrant,
    trace,
    turning_number,
)
from helpers import area_shoelace, min_rotation_brute

WORDS = ["", "0", "2", "0123", "0011", "00121233", "01012223211", "002", "0321"]


def random_word(rng, n):
    return "".join(rng.choice("0123") for _ in range(n))


class TestTransforms:
    def test_rotate_basic(self):
        assert rotate("0123") == "1230"
        assert rotate("0123", 2) == "2301"
        assert rotate("", 3) == ""

    def test_rotate_composes(self):
        rng = random.Random(1)
        for _ in range(50):
            w = random_word(rng, rng.randrange(20))
            assert rotate(rotate(w, 1), 3) == w
            assert rotate(w, 4) == w

    def test_reflect_involution(self):
        rng = random.Random(2)
        for axis in range(4):
            for _ in range(25):
                w = random_word(rng, rng.randrange(20))
                assert reflect(reflect(w, axis), axis) == w

    def test_reflect_values(self):
        # axis 0 is the horizontal axis: up and down swap
        assert reflect("0123", 0) == "0321"

    def test_hat_frozen(self):
        assert hat("01012223211") == "33010003232"
        assert hat("") == ""
        assert hat("0") == "2"

    def test_hat_involution_and_antimorphism(self):
        rng = random.Random(3)
        for _ in range(50):
            u = random_word(rng, rng.randrange(12))
            v = random_word(rng, rng.randrange(12))
            assert hat(hat(u)) == u
            assert hat(u + v) == hat(v) + hat(u)

    def test_invalid_letters_rejected(self):
        for fn in (rotate, hat, delta, is_closed, is_simple):
            with pytest.raises(ValueError):
                fn("01x3")


class TestDelta:
    def test_frozen(self):
        assert delta("01012223211") == "1311001330"
        assert delta("0") == ""
        assert delta("00") == "0"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            delta("")
        with pytest.raises(ValueError, match="empty"):
            delta_circular("")

    def test_circular_frozen(self):
        assert delta_circular("0213") == "2321"
        assert delta_circular("0123") == "1111"
        assert delta_circular("0321") == "3333"
        assert delta_circular("0") == "0"

    def test_circular_extends_linear(self):
        rng = random.Random(4)
        for _ in range(50):
            w = random_word(rng, rng.randrange(1, 15))
            d = delta_circular(w)
            assert len(d) == len(w)
            assert d[:-1] == delta(w)


class TestReduce:
    def test_frozen(self):
        assert reduce("") == ""
        assert reduce("02") == ""
        assert reduce("0213") == ""
        assert reduce("0010") == "0010"
        assert reduce("0220") == ""
        assert reduce("0112", circular=True) == "11"

    def test_idempotent_no_cancelling_pair(self):
        rng = random.Random(5)
        for _ in range(200):
            w = random_word(rng, rng.randrange(30))
            r = reduce(w)
            assert reduce(r) == r
            assert all(
                (int(a) - int(b)) % 4 != 2 for a, b in zip(r, r[1:])
            )

    def test_endpoint_preserved(self):
        rng = random.Random(6)
        for _ in range(200):
            w = random_word(rng, rng.randrange(30))
            assert trace(w).end == trace(reduce(w)).end

    def test_circular_trims_seam(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_word(rng, rng.randrange(30))
            r = reduce(w, circular=True)
            if len(r) >= 2:
                assert (int(r[0]) - int(r[-1])) % 4 != 2


class TestPathPredicates:
    def test_closed(self):
        assert is_closed("")
        assert is_closed("0123")
        assert is_closed("02")
        assert not is_closed("0011")

    def test_simple(self):
        assert is_simple("")
        assert is_simple("0123")
        assert is_simple("0011")
        assert not is_simple("02")  # retraces its one edge
        assert not is_simple("002")
        assert not is_simple("0123012")

    def test_trace(self):
        t = trace("0011")
        assert t.start == (0, 0)
        assert t.vertices == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
        assert t.end == (2, 2)
        assert trace("0123", start=(3, 4)).vertices[0] == (3, 4)
        assert trace("").vertices == ((0, 0),)


class TestTurningNumber:
    def test_frozen(self):
        assert turning_number("0123", circular=True).quarter_turns == 4
        assert str(turning_number("0123", circular=True)) == "1"
        assert str(turning_number("0321", circular=True)) == "-1"
        assert str(turning_number("0011")) == "1/4"
        assert str(turning_number("1")) == "0"
        assert turning_number("").quarter_turns == 0

    def test_as_rational(self):
        t = turning_number("0011")
        assert t.as_rational == Fraction(1, 4)

    def test_circular_requires_closed(self):
        with pytest.raises(ValueError, match="not closed"):
            turning_number("0011", circular=True)

    def test_backtracking_cancels(self):
        # spur 0 then 2 retraces; the turning comes from the reduced word
        assert turning_number("020123", circular=True).quarter_turns == 4


class TestOrientation:
    def test_orient_ccw(self):
        assert orient_ccw("0123") == "0123"
        assert orient_ccw("0321") == hat("0321")
        assert turning_number(orient_ccw("0321"), circular=True).quarter_turns == 4

    def test_orient_rejects(self):
        for w in ["0011", "002002", "02", ""]:
            with pytest.raises(ValueError, match="not a boundary word"):
                orient_ccw(w)

    def test_salient_reentrant_frozen(self):
        assert salient_reentrant("0123") == (4, 0)
        assert salient_reentrant("00112233") == (4, 0)
        assert salient_reentrant("00121233") == (5, 1)
        # orientation of the input does not matter
        assert salient_reentrant("0321") == (4, 0)
        assert salient_reentrant(hat("00121233")) == (5, 1)

    def test_salient_minus_reentrant_is_four(self):
        for w in ["0123", "001223", "00121233", "0001212233", "010121232303"]:
            s, r = salient_reentrant(w)
            assert s - r == 4


class TestRotationOrder:
    def test_least_rotation_vs_brute(self):
        rng = random.Random(8)
        for _ in range(300):
            w = random_word(rng, rng.randrange(1, 25))
            assert least_rotation(w) == min_rotation_brute(w)
        for n in range(1, 9):
            for letters in itertools.product("0123", repeat=n):
                w = "".join(letters)
                assert least_rotation(w) == min_rotation_brute(w)

    def test_canonical_rotation(self):
        assert canonical_rotation("2301") == "0123"
        assert canonical_rotation("0101") == "0101"
        rng = random.Random(9)
        for _ in range(100):
            w = random_word(rng, rng.randrange(1, 25))
            c = canonical_rotation(w)
            assert c == min(w[k:] + w[:k] for k in range(len(w)))


class TestCircularWord:
    def test_equality_over_conjugates(self):
        a = CircularWord("0123")
        for k in range(4):
            assert a == CircularWord("0123"[k:] + "0123"[:k])
        assert a != CircularWord("001223")
        assert len({CircularWord("001223"), CircularWord("122300")}) == 1

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            CircularWord("0011")

    def test_conjugates(self):
        assert set(CircularWord("0123").conjugates()) == {
            "0123",
            "1230",
            "2301",
            "3012",
        }

    def test_str_and_canonical(self):
        w = CircularWord("1230")
        assert str(w) == "1230"
        assert w.canonical == "0123"


class TestArea:
    def test_shoelace_matches_turning_sign(self):
        # counterclockwise boundary words enclose positive area
        for w in ["0123", "001223", "00121233", "010121232303"]:
            assert area_shoelace(w) > 0
            assert area_shoelace(hat(w)) < 0
