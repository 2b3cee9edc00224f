import gc
import itertools
import math
import random
import time

import pytest

from gridwords import (
    christoffel,
    format_factorization,
    is_christoffel,
    is_lyndon,
    lyndon_factorize,
)
from helpers import christoffel_staircase, is_lyndon_brute, lyndon_factorize_brute


class TestIsLyndon:
    def test_frozen(self):
        for w in ["0", "1", "01", "001", "011", "0001", "00101", "0010010011"]:
            assert is_lyndon(w), w
        for w in ["00", "10", "0101", "010", "110", "01001"]:
            assert not is_lyndon(w), w

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_lyndon("")

    def test_exhaustive_binary(self):
        for n in range(1, 13):
            for tup in itertools.product("01", repeat=n):
                w = "".join(tup)
                assert is_lyndon(w) == is_lyndon_brute(w), w


class TestFactorize:
    def test_frozen(self):
        assert lyndon_factorize("1011010100010") == [
            ("1", 1),
            ("011", 1),
            ("01", 2),
            ("0001", 1),
            ("0", 1),
        ]
        assert lyndon_factorize("0000") == [("0", 4)]
        assert lyndon_factorize("00101") == [("00101", 1)]
        assert lyndon_factorize("") == []

    def test_format(self):
        f = lyndon_factorize("1011010100010")
        assert format_factorization(f) == "(1)^1 (011)^1 (01)^2 (0001)^1 (0)^1"
        assert format_factorization([]) == ""

    def test_vs_brute(self):
        rng = random.Random(20)
        for alphabet in ("01", "0123"):
            for _ in range(300):
                w = "".join(
                    rng.choice(alphabet) for _ in range(rng.randrange(40))
                )
                assert lyndon_factorize(w) == lyndon_factorize_brute(w), w

    def test_factor_properties(self):
        rng = random.Random(21)
        for _ in range(200):
            w = "".join(rng.choice("0123") for _ in range(rng.randrange(60)))
            fact = lyndon_factorize(w)
            assert "".join(f * c for f, c in fact) == w
            for f, c in fact:
                assert c >= 1
                assert is_lyndon(f)
            # grouped factors strictly decrease
            assert all(a > b for (a, _), (b, _) in zip(fact, fact[1:]))

    def test_linear_scaling(self):
        rng = random.Random(22)
        base = "".join(rng.choice("01") for _ in range(1_000_000))

        # best of 7 GC-off timings each, the two words timed in turn so that
        # a change in host speed falls on both alike
        words = (base, base + base[::-1])
        times = ([], [])
        for _ in range(7):
            for word, ts in zip(words, times):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                lyndon_factorize(word)
                ts.append(time.perf_counter() - t0)
                gc.enable()
        t1, t2 = map(min, times)
        assert t2 <= 2.5 * max(t1, 1e-4), (t1, t2)


class TestChristoffel:
    def test_frozen(self):
        assert christoffel(1, 1) == "01"
        assert christoffel(3, 1) == "0001"
        assert christoffel(1, 2) == "011"
        assert christoffel(3, 2) == "00101"
        assert christoffel(1, 0) == "0"
        assert christoffel(0, 1) == "1"
        assert christoffel(4, 7) == christoffel_staircase(4, 7)

    def test_vs_staircase_all_coprime(self):
        for a in range(0, 301):
            for b in range(0, 301 - a):
                if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                    continue
                assert christoffel(a, b) == christoffel_staircase(a, b), (a, b)

    def test_letter_counts(self):
        for a, b in [(2, 5), (5, 2), (8, 3), (13, 8)]:
            w = christoffel(a, b)
            assert w.count("0") == a and w.count("1") == b

    def test_is_lyndon(self):
        for a in range(0, 15):
            for b in range(0, 15):
                if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                    assert is_lyndon(christoffel(a, b))

    def test_rejects(self):
        with pytest.raises(ValueError, match="not primitive"):
            christoffel(2, 4)
        with pytest.raises(ValueError):
            christoffel(0, 0)
        with pytest.raises(ValueError):
            christoffel(-1, 2)


class TestIsChristoffel:
    def test_recognizes_all_small(self):
        for a in range(0, 20):
            for b in range(0, 20):
                if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                    assert is_christoffel(christoffel(a, b))

    def test_frozen_negatives(self):
        for w in ["0011", "10", "0101", "110", "010"]:
            assert not is_christoffel(w), w

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            is_christoffel("")
        with pytest.raises(ValueError):
            is_christoffel("012")

    def test_exhaustive_binary_vs_staircase(self):
        staircase = {}
        for n in range(1, 15):
            for tup in itertools.product("01", repeat=n):
                w = "".join(tup)
                a, b = w.count("0"), w.count("1")
                if (a, b) not in staircase:
                    primitive = math.gcd(a, b) == 1
                    staircase[a, b] = primitive and christoffel_staircase(a, b)
                assert is_christoffel(w) == (w == staircase[a, b]), w

    def test_exhaustive_binary_vs_reconstruction(self):
        for n in range(1, 13):
            for tup in itertools.product("01", repeat=n):
                w = "".join(tup)
                a, b = w.count("0"), w.count("1")
                expected = math.gcd(a, b) == 1 and christoffel(a, b) == w
                assert is_christoffel(w) == expected, w
