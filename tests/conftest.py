import os
import sys

import pytest

from gridwords import chain, convexity, quadgraph

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail to import alone
    pass
else:
    # Every property test replays the same examples on every run.
    settings.register_profile(
        "gridwords", derandomize=True, deadline=None, database=None, max_examples=100
    )
    settings.load_profile("gridwords")


@pytest.fixture(autouse=True)
def _forget_last_words():
    """Start every test with no remembered walk or split, so that what a
    test counts, times or traces does not depend on the tests before it."""
    quadgraph._walk.cache_clear()
    convexity._split.cache_clear()


@pytest.fixture
def calls(monkeypatch):
    """Counts of real work below the shared-scan memos: quadtree walks (trees
    built), reductions made in gridwords.chain (`chain._reduce`, behind the
    public reduce and called directly by the verdicts that have already
    counted the letters), and the prefix-key passes of split_extremal (two
    per split)."""
    counts = {"walk": 0, "reduce": 0, "key_passes": 0}
    reduce, accumulate = chain._reduce, convexity.accumulate

    class CountedQuadGraph(quadgraph.QuadGraph):
        def __init__(self, start=(0, 0)):
            counts["walk"] += 1
            super().__init__(start)

    def counted_reduce(word, circular):
        counts["reduce"] += 1
        return reduce(word, circular)

    def counted_accumulate(*args, **kwargs):
        counts["key_passes"] += 1
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(quadgraph, "QuadGraph", CountedQuadGraph)
    monkeypatch.setattr(chain, "_reduce", counted_reduce)
    monkeypatch.setattr(convexity, "accumulate", counted_accumulate)
    return counts
