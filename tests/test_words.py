import pytest

from palfact import (
    Word,
    count_occurrences,
    is_palindrome,
    is_primitive,
    mirror,
    palindromic_closure,
    primitive_root,
)
from palfact.oracles import brute_palindromic_closure


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


def test_word_rendering():
    assert str(Word("abaab")) == "abaab"
    assert str(Word("121")) == "121"
    assert str(Word([0, 27])) == "0.27"
    assert Word("ab").letters() == "ab"
    with pytest.raises(ValueError):
        Word([30]).letters()


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


def test_primitive_root():
    assert primitive_root(Word("abab")) == Word("ab")
    assert primitive_root(Word("aaa")) == Word("a")
    assert primitive_root(Word("aabaa")) == Word("aabaa")
    for t in all_binary_words(10):
        if not t:
            continue
        root = primitive_root(t)
        k = len(t) // len(root)
        assert tuple(root) * k == tuple(t)
        assert is_primitive(root)
        # exponent is unique
        assert len(t) % len(root) == 0


def test_palindromic_closure_examples():
    assert palindromic_closure(Word("abaa")) == Word("abaaba")
    assert palindromic_closure(Word("aba")) == Word("aba")
    assert palindromic_closure(Word("abaabaaa")) == Word("abaabaaabaaba")
    assert palindromic_closure(Word()) == Word()


def test_palindromic_closure_minimality():
    for t in all_binary_words(11):
        w = Word(t)
        c = palindromic_closure(w)
        assert tuple(c) == brute_palindromic_closure(w)
        assert is_palindrome(c)
        assert tuple(c[: len(w)]) == tuple(w)
        if w:
            assert len(c) < 2 * len(w)


def test_count_occurrences_overlapping():
    assert count_occurrences(Word("aaaa"), Word("aa")) == 3
    assert count_occurrences(Word("bbab"), Word("bbab")) == 1
    assert count_occurrences(Word("ab"), Word("ba")) == 0
    with pytest.raises(ValueError):
        count_occurrences(Word("ab"), Word())
