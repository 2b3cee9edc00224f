"""A factorization holds its cuts and the canonical rotation, not its blocks.

On a k x k square about n/2 factorizations each have blocks of n/2
letters in all, so stored blocks would make the result quadratic; sliced
on demand, they cost nothing until read.
"""

import gc
import tracemalloc

from gridwords import bn_factorizations, canonical_rotation

PLUS = "010121232303"


def _square(k):
    return "0" * k + "1" * k + "2" * k + "3" * k


def _traced_search(word):
    """Result of the search, its tracemalloc peak and what the result holds."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        facts = bn_factorizations(word)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return facts, peak - base, held - base


def test_memory_per_letter():
    # the 8,000-letter square and the 8,002-letter 1 x 4,000 rectangle
    for word in (_square(2000), "0" * 4000 + "1" + "2" * 4000 + "3"):
        facts, peak, held = _traced_search(word)
        n = len(word)
        assert len(facts) > 1000
        assert peak <= 450 * n, (n, peak / n)
        assert held <= 256 * n, (n, held / n)


def test_conjugates_give_equal_factorizations():
    for w in (PLUS, "00121233", "001223", _square(5)):
        base = bn_factorizations(w)
        for k in (1, len(w) // 3, len(w) - 1):
            conj = bn_factorizations(w[k:] + w[:k])
            assert conj == base, (w, k)
            assert [hash(f) for f in conj] == [hash(f) for f in base], (w, k)


def test_blocks_are_sliced_from_the_canonical_rotation():
    w = _square(6)
    facts = bn_factorizations(w[7:] + w[:7])
    assert all(f.word == canonical_rotation(w) for f in facts)
    for f in facts:
        assert "".join(f.blocks) == f.word[f.cuts[0]:f.cuts[0] + len(w) // 2]


def test_repr_leaves_out_the_word():
    w = _square(6)
    for f in bn_factorizations(w):
        assert repr(f) == f"BNFactorization(cuts={f.cuts!r})"
        assert w not in repr(f)
