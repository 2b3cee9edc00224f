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
from gridwords.tiling import _even_radii
from helpers import (
    bn_factorizations_oracle,
    even_radii_brute,
    fibonacci_snowflake,
    gauss_disk,
    reconstruct,
)

polyominoes = st.builds(
    gen_random_polyomino,
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


@given(st.text("ab", max_size=60) | st.text("abc", max_size=60))
def test_even_radii_against_brute_force(z):
    assert _even_radii(z) == even_radii_brute(z)


def _search_word(w):
    """The word the search takes radii of: each letter's antipode, then the
    letter turned by 2."""
    h = len(w) // 2
    turned = w.translate(str.maketrans("0123", "2301"))
    return "".join(a + b for a, b in zip(w[h:] + w[:h], turned))


def test_even_radii_at_every_centre_of_search_words():
    for w in (
        "010121232303",
        "0" * 7 + "1" * 7 + "2" * 7 + "3" * 7,
        "0" * 9 + "1" + "2" * 9 + "3",
        fibonacci_snowflake(9),
        gauss_disk(6),
        gen_random_polyomino(30, 1),
    ):
        z = _search_word(w)
        assert _even_radii(z) == even_radii_brute(z), w
