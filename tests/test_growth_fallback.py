"""The generator's stall fallback steps over frontier entries that are
already grown, without dropping them, and without growing them twice."""

from types import SimpleNamespace

import gridwords.generate
from gridwords import enclosed_cells, gen_random_polyomino, is_simple


class _ScriptedRandom:
    """Draws the scripted indices, then index 10 for ever.

    Relative to the first cell, the script grows (1,0), (1,1), (0,-1),
    (0,1), (0,-2), (2,0), then index 10 grows (1,-2) and next names (2,-1),
    which would touch (1,-2) only at a corner.  After 65 misses on it the
    fallback scans the frontier: index 0 holds (0,1), grown but never
    dropped, and index 1 the addable (-1,1).  Every index is below the
    frontier's length when drawn, so each pick is one draw.
    """

    def __init__(self, seed=None):
        self.calls = []

    def getrandbits(self, k):
        script = (0, 4, 0, 1, 1, 3)
        i = script[len(self.calls)] if len(self.calls) < len(script) else 10
        self.calls.append(k)
        return min(i, (1 << k) - 1)


def test_stall_scan_skips_grown_cells(monkeypatch):
    stubs = []

    def make(seed=None):
        stubs.append(_ScriptedRandom(seed))
        return stubs[-1]

    monkeypatch.setattr(gridwords.generate, "random", SimpleNamespace(Random=make))
    word = gen_random_polyomino(9, seed=0)
    assert len(stubs[0].calls) == 6 + 1 + 65
    assert word == "001210012122230333"
    assert len(enclosed_cells(word)) == 9 and is_simple(word)
