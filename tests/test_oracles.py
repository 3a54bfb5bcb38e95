"""The reference implementations against plainer restatements of their
definitions."""

import random

from palfact.oracles import brute_pal_table, brute_palindromic_spans


def cut_scan_pal_table(w):
    """Minimum palindromic factor count per prefix by trying every cut: the
    former ``brute_pal_table``, kept as the reference for its replacement."""
    s = bytes(w)  # symbols here are small ints
    values = [0] * (len(s) + 1)
    for i in range(1, len(s) + 1):
        best = i
        for j in range(i):
            if values[j] + 1 <= best:
                seg = s[j:i]
                if seg == seg[::-1]:
                    best = values[j] + 1
        values[i] = best
    return values


def binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield tuple((bits >> i) & 1 for i in range(length))


def seeded_words(count, seed=23):
    """Random words over 1-4 letters of length 0-300; every fifth is a power
    of a short random block, so unary and periodic words are among them."""
    rng = random.Random(seed)
    for k in range(count):
        letters = rng.randint(1, 4)
        n = rng.randint(0, 300)
        if k % 5 == 0:
            block = [rng.randrange(letters) for _ in range(rng.randint(1, 6))]
            yield tuple((block * (n // len(block) + 1))[:n])
        else:
            yield tuple(rng.randrange(letters) for _ in range(n))


def test_pal_table_equals_cut_scan_on_binary_words():
    for w in binary_words(12):
        assert brute_pal_table(w) == cut_scan_pal_table(w), w


def test_pal_table_equals_cut_scan_on_seeded_words():
    words = list(seeded_words(500))
    assert any(len(set(w)) == 1 and len(w) > 100 for w in words)
    for w in words:
        assert brute_pal_table(w) == cut_scan_pal_table(w), w


def test_palindromic_spans_equal_slice_scan():
    for w in binary_words(10):
        spans = brute_palindromic_spans(w)
        expected = {(i + 1, j) for i in range(len(w)) for j in range(i + 1, len(w) + 1)
                    if w[i:j] == w[i:j][::-1]}
        assert len(spans) == len(set(spans))
        assert set(spans) == expected, w
