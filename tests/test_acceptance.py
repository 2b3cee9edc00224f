"""Acceptance suite: seven criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete; the whole module takes a few minutes.
"""

import gc
import itertools
import random
import time

from gridwords import (
    TileClass,
    bn_factorizations,
    christoffel,
    classify,
    delta,
    detect_first_intersection,
    father_point,
    gen_random_polyomino,
    hat,
    is_digitally_convex,
    is_nw_convex,
    lyndon_factorize,
    orient_ccw,
    salient_reentrant,
    sibling_condition,
    square_count,
    turning_number,
)
from helpers import (
    boundary_words,
    convexity_oracle,
    first_intersection_oracle,
    nw_convex_oracle,
    reconstruct,
)

UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _verdict(capsys, criterion, ok, detail=""):
    # write through the capture so the verdict shows up in a plain -v run
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed {detail}".rstrip()


def test_criterion_1_reference_values(capsys):
    t0 = time.perf_counter()
    ok = (
        delta("01012223211") == "1311001330"
        and hat("01012223211") == "33010003232"
        and lyndon_factorize("1011010100010")
        == [("1", 1), ("011", 1), ("01", 2), ("0001", 1), ("0", 1)]
        and christoffel(1, 1) == "01"
        and christoffel(1, 2) == "011"
        and christoffel(3, 1) == "0001"
    )
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 1, ok and elapsed < 1.0, f"(elapsed {elapsed:.3f}s)")


def test_criterion_2_generated_boundary_invariants(capsys):
    t0 = time.perf_counter()
    failures = 0
    for k in range(10_000):
        word = gen_random_polyomino(k % 200 + 1, seed=k)
        ccw = orient_ccw(word)
        if turning_number(ccw, circular=True).quarter_turns != 4:
            failures += 1
            continue
        s, r = salient_reentrant(ccw)
        if s - r != 4:
            failures += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        2,
        failures == 0 and elapsed < 30.0,
        f"({failures} failures, {elapsed:.1f}s)",
    )


def test_criterion_3_father_neighbor_law(capsys):
    bad = 0
    for x in range(1024):
        for y in range(1024):
            f = father_point(x, y)
            for eps in range(4):
                dx, dy = UNIT[eps]
                g = father_point(x + dx, y + dy)
                if sibling_condition(eps, x, y):
                    if g != f:
                        bad += 1
                elif g != (f[0] + dx, f[1] + dy):
                    bad += 1
    _verdict(capsys, 3, bad == 0, f"({bad} violations)")


def _serpentine(n):
    row = "0" * 999 + "1" + "2" * 999 + "1"
    return (row * (n // 2000 + 1))[:n]


def _timed_detect(words, runs=7):
    """Best of `runs` GC-off timings per word, the words timed in turn each
    round, so that a change in host speed falls on all of them alike."""
    times = [[] for _ in words]
    for _ in range(runs):
        for word, ts in zip(words, times):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            detect_first_intersection(word)
            ts.append(time.perf_counter() - t0)
            gc.enable()
    return [min(ts) for ts in times]


def test_criterion_4_intersection_oracle_and_scaling(capsys):
    mismatches = 0
    for tup in itertools.product("0123", repeat=10):
        w = "".join(tup)
        if detect_first_intersection(w) != first_intersection_oracle(w):
            mismatches += 1
    rng = random.Random(4040)
    for _ in range(10_000):
        w = "".join(rng.choices("0123", k=1000))
        if detect_first_intersection(w) != first_intersection_oracle(w):
            mismatches += 1
    t1, t2 = _timed_detect([_serpentine(1_000_000), _serpentine(2_000_000)])
    _verdict(
        capsys,
        4,
        mismatches == 0 and t2 <= 2.5 * t1,
        f"({mismatches} mismatches, {t1:.2f}s vs {t2:.2f}s)",
    )


def test_criterion_5_convexity_routes_agree(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(4, 15, 2):
        for w in boundary_words(n):
            if is_digitally_convex(w) != convexity_oracle(w):
                mismatches += 1
    for k in range(10_000):
        w = gen_random_polyomino(k % 60 + 1, seed=100_000 + k)
        if is_digitally_convex(w) != convexity_oracle(w):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        5,
        mismatches == 0 and elapsed < 300.0,
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_6_tiling_classification(capsys):
    ok = (
        square_count("0123") == 1
        and square_count("001223") == 1
        and square_count("010121232303") == 2
        and classify("00121233") is TileClass.HEXAGON
    )
    bad = 0
    for n in range(4, 17, 2):
        for w in boundary_words(n):
            for v in (w, hat(w)):
                facts = bn_factorizations(v)
                if sum(f.is_square for f in facts) > 2:
                    bad += 1
                if not all(reconstruct(f, v) for f in facts):
                    bad += 1
    _verdict(capsys, 6, ok and bad == 0, f"({bad} violations)")


def test_criterion_7_nw_convexity_exhaustive(capsys):
    total = mismatches = 0
    for n in range(0, 17):
        for tup in itertools.product("01", repeat=n):
            w = "".join(tup)
            total += 1
            if is_nw_convex(w) != nw_convex_oracle(w):
                mismatches += 1
    _verdict(capsys, 7,
        total == 131071 and mismatches == 0,
        f"({mismatches} mismatches over {total} words)",
    )
