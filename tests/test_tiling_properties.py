"""Laws of the tiling search on random polyominoes, checked with hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridwords import (
    bn_factorizations,
    classify,
    gen_random_polyomino,
    hat,
    square_count,
)
from helpers import bn_factorizations_oracle, reconstruct

polyominoes = st.builds(
    lambda cells, seed: str(gen_random_polyomino(cells, seed)),
    st.integers(1, 20),  # about 40% of these tile the plane
    st.integers(0, 2**32 - 1),
)


@given(polyominoes)
def test_every_factorization_reconstructs_its_word(word):
    for w in (word, hat(word)):
        for f in bn_factorizations(w):
            assert reconstruct(f, w)


@given(polyominoes)
def test_cuts_are_antipodal(word):
    n = len(word)
    for f in bn_factorizations(word):
        assert {(c + n // 2) % n for c in f.cuts} == set(f.cuts)
        assert list(f.cuts) == sorted(set(f.cuts))


@given(polyominoes, st.integers(0, 10**6))
def test_class_and_square_count_survive_conjugation_and_hat(word, shift):
    k = shift % len(word)
    conjugate = word[k:] + word[:k]
    verdict = (classify(word), square_count(word))
    assert (classify(conjugate), square_count(conjugate)) == verdict
    assert (classify(hat(word)), square_count(hat(word))) == verdict


@settings(max_examples=50)
@given(polyominoes)
def test_search_equals_oracle(word):
    for w in (word, hat(word)):
        assert [(f.cuts, f.blocks) for f in bn_factorizations(w)] == (
            bn_factorizations_oracle(w)
        )
