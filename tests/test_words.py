import random
from enum import IntEnum

import pytest

from palfact import (
    Word,
    count_occurrences,
    is_palindrome,
    is_primitive,
    mirror,
    render,
    render_style,
)


def all_binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield tuple((bits >> i) & 1 for i in range(length))


def test_word_construction_from_text():
    assert Word("abaab") == (0, 1, 0, 0, 1)
    assert Word("121") == (1, 2, 1)
    assert Word([5, 100, 5]) == (5, 100, 5)
    with pytest.raises(ValueError):
        Word("ab!")
    with pytest.raises(ValueError):
        Word([1, -2])


class Letter(IntEnum):
    A = 0
    Z = 25


def test_word_text_and_symbol_checks_name_the_first_bad_input():
    # text is mapped and symbols are checked in C; the messages still name
    # the first offending character or symbol
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    assert Word(alphabet) == tuple(range(26)) + tuple(range(10))
    assert Word("") == ()
    for text, bad in (("abA", "A"), ("aéb!", "é"), ("12 3", " "),
                      ("١", "١"), ("ab\n", "\n")):
        with pytest.raises(ValueError) as exc:
            Word(text)
        assert str(exc.value) == f"cannot map character {bad!r} to a symbol"
    for symbols, bad in (([1, -2, "x"], -2), ([0, "x", -1], "x"), ([2.0], 2.0),
                         ([3, None], None), ([-(10**18)], -(10**18))):
        with pytest.raises(ValueError) as exc:
            Word(symbols)
        assert str(exc.value) == f"symbols must be non-negative ints, got {bad!r}"
    assert Word([True, False, 10**18]) == (1, 0, 10**18)
    assert Word([Letter.Z, Letter.A]) == (25, 0)


def test_word_rendering():
    assert str(Word("abaab")) == "abaab"
    assert str(Word("121")) == "121"
    assert str(Word([0, 27])) == "0.27"
    assert Word("ab").letters() == "ab"
    with pytest.raises(ValueError):
        Word([30]).letters()


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def reference_str(w):
    """``str(Word)`` as first written: one Python scan per candidate
    notation, then a per-symbol join."""
    if w and all(1 <= s <= 9 for s in w):
        return "".join(str(s) for s in w)
    if all(s <= 25 for s in w):
        return "".join(_LETTERS[s] for s in w)
    return ".".join(str(s) for s in w)


def reference_style(w):
    if w and all(1 <= s <= 9 for s in w):
        return "digits"
    if all(s <= 25 for s in w):
        return "letters"
    return "ints"


def test_rendering_matches_the_scanning_reference():
    rng = random.Random(2016)
    pools = ((0, 1), (1,), (1, 2, 9), (0, 9), (9, 10), (0, 25), (1, 25), (25, 26),
             (0, 26), (1, 10), (3, 2**64, 10**30), tuple(range(30)))
    words = [(), (0,), (1,), (9,), (10,), (25,), (26,), (2**100,), (1,) * 40,
             (1, 1, 1), (0, 9, 10, 25, 26), (26, 1), (9, 1), (2**70, 0)]
    for _ in range(3000):
        pool = rng.choice(pools)
        words.append(tuple(rng.choice(pool) for _ in range(rng.randrange(12))))
    for symbols in words:
        w = Word(symbols)
        style = reference_style(symbols)
        assert render_style(w) == style, symbols
        assert str(w) == reference_str(symbols), symbols
        assert repr(w) == f"Word({reference_str(symbols)!r})"
        assert render(w, style) == reference_str(symbols)
    assert str(Word((1,) * 5)) == "11111"  # an all-1 word renders as digits


def test_word_concat_and_slice_stay_words():
    w = Word("abc")
    assert isinstance(w + w, Word)
    assert isinstance(w[1:], Word)
    assert isinstance(w * 3, Word)
    assert w[1:] == Word("bc")
    # slices skip the symbol check but must not differ from a checked word
    for word, cut in ((Word("1213"), slice(1, 3)), (Word("abaab"), slice(None, None, -1)),
                      (Word([30, 2, 7]), slice(1, None)), (Word("ab"), slice(0, 0))):
        part = word[cut]
        built = Word(tuple(word)[cut])
        assert type(part) is Word
        assert part == built and str(part) == str(built) and repr(part) == repr(built)


def test_mirror():
    assert mirror(Word("abaab")) == Word("baaba")
    assert mirror(Word()) == Word()
    assert mirror(Word("aba")) == Word("aba")
    for w in all_binary_words(8):
        assert mirror(mirror(Word(w))) == Word(w)


def test_is_palindrome():
    assert is_palindrome(Word("abaaba"))
    assert not is_palindrome(Word("abaab"))
    assert is_palindrome(Word())
    for w in all_binary_words(9):
        assert is_palindrome(w) == (tuple(w) == tuple(reversed(w)))


def test_is_primitive_examples():
    assert is_primitive(Word("ab"))
    assert not is_primitive(Word("abab"))
    assert is_primitive(Word("aabaa"))
    with pytest.raises(ValueError):
        is_primitive(Word())


def test_primitivity_equals_no_internal_occurrence_in_square():
    # up to length 12 over two letters, primitive iff the word does not
    # occur strictly inside its own square
    for t in all_binary_words(12):
        if not t:
            continue
        w = Word(t)
        ww = tuple(w) + tuple(w)
        internal = any(
            ww[i : i + len(w)] == tuple(w) for i in range(1, len(w))
        )
        assert is_primitive(w) == (not internal)


def test_count_occurrences_overlapping():
    assert count_occurrences(Word("aaaa"), Word("aa")) == 3
    assert count_occurrences(Word("bbab"), Word("bbab")) == 1
    assert count_occurrences(Word("ab"), Word("ba")) == 0
    with pytest.raises(ValueError):
        count_occurrences(Word("ab"), Word())
