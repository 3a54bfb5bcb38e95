import random
import tracemalloc

import pytest

from palfact import (
    PalindromeIndex,
    Periodic,
    Word,
    closure_power_stream,
    fibonacci_stream,
    gap_sequence,
    palindromic_prefixes,
    product_of_two_palindromes,
    word_u_stream,
)
from palfact.eertree import SharedEertree
from palfact.greedy import lgpal
from palfact.pallen import pal_dp
from palfact.oracles import (
    brute_distinct_palindromes,
    brute_lgpal,
    brute_lps_array,
    brute_pal_table,
    brute_palindromic_prefix_lengths,
    brute_palindromic_spans,
)
from palfact.streams import multibonacci
from palfact.words import is_palindrome, is_primitive


def all_binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield tuple((bits >> i) & 1 for i in range(length))


def random_words(seed, count, max_len, alphabet):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_len)
        yield tuple(rng.randrange(alphabet) for _ in range(n))


def test_lps_examples():
    # derived by scanning all suffixes per position
    assert PalindromeIndex(Word("abaab")).lps == [1, 1, 3, 2, 4]
    assert PalindromeIndex(Word("aaaa")).lps == [1, 2, 3, 4]
    assert PalindromeIndex(Word()).lps == []


def test_lps_exhaustive_binary():
    for w in all_binary_words(14):
        assert PalindromeIndex(w).lps == brute_lps_array(w)


def test_lps_random_words():
    for w in random_words(101, 1000, 500, 4):
        assert PalindromeIndex(w).lps == brute_lps_array(w)


def test_node_count_equals_distinct_palindromes():
    for w in all_binary_words(14):
        assert PalindromeIndex(w).node_count() == len(brute_distinct_palindromes(w))


def test_suffix_palindrome_lengths_of_the_empty_prefix():
    # the empty prefix has no palindromic suffix; position -1 used to wrap
    # to the last one
    idx = PalindromeIndex((0, 1, 0))
    assert list(idx.suffix_palindrome_lengths(0)) == []
    assert list(idx.suffix_palindrome_lengths(3)) == [3, 1]
    assert list(PalindromeIndex().suffix_palindrome_lengths(0)) == []


# Symbols far beyond any alphabet size; the transition tables are keyed by
# the symbols themselves, so none of these may collide or be truncated.
LARGE_SYMBOLS = (0, 2**40, 10**18, 2**40 + 1)


def test_large_symbols_against_oracles():
    rng = random.Random(40)
    for _ in range(300):
        k = rng.randint(1, len(LARGE_SYMBOLS))
        w = tuple(LARGE_SYMBOLS[rng.randrange(k)] for _ in range(rng.randint(0, 60)))
        idx = PalindromeIndex(w, track_min=True)
        assert idx.lps == brute_lps_array(w)
        assert idx.min_factors == brute_pal_table(w) == list(pal_dp(w)[1].values)
        assert idx.node_count() == len(brute_distinct_palindromes(w))


def test_negative_symbols_never_match_the_sentinel():
    # the word starts with a sentinel slot that no symbol may equal; raw
    # symbols are not checked, so a -1 sentinel would have matched here
    for w in ((-1, 0, -1), (-1,), (-1, -1), (0, -1, -1, 0), (0, -1, 0, 0, -1)):
        idx = PalindromeIndex(w, track_min=True, track_left=True)
        assert idx.lps == brute_lps_array(w)
        assert idx.min_factors == brute_pal_table(w)
        assert idx.left_greedy_counts() == [lgpal(w[:k])[0] for k in range(1, len(w) + 1)]
        assert idx.node_count() == len(brute_distinct_palindromes(w))
        assert idx.word == list(w) and len(idx) == len(w)


def test_incremental_append_matches_batch():
    # growth by single appends and by extend chunks of random sizes (empty
    # ones included) must leave the same index as one build
    rng = random.Random(5)
    for trial in range(600):
        track_left = trial % 2 == 1
        k = rng.randint(1, len(LARGE_SYMBOLS))
        w = tuple(LARGE_SYMBOLS[rng.randrange(k)] for _ in range(rng.randint(1, 120)))
        batch = PalindromeIndex(w, track_min=True, track_left=track_left)
        grown = PalindromeIndex(track_min=True, track_left=track_left)
        i = 0
        while i < len(w):
            # lps is built when read: a list read before a step is the one
            # the next read brings up to date
            held = grown.lps if rng.random() < 0.5 else None
            if rng.random() < 0.3:
                grown.append(w[i])
                i += 1
            else:
                step = rng.randint(0, 20)
                grown.extend(w[i : i + step])
                i = min(i + step, len(w))
            assert len(grown) == i
            assert grown.word == list(w[:i])
            if held is not None:
                assert grown.lps is held
                assert held == batch.lps[:i]
        assert grown.word == batch.word == list(w)
        assert grown.lps == batch.lps
        assert grown.node_count() == batch.node_count()
        assert grown.palindrome_lengths() == batch.palindrome_lengths()
        assert grown.min_factors == batch.min_factors
        if track_left:
            assert grown.left_greedy_counts() == batch.left_greedy_counts()
        assert list(grown.suffix_palindrome_lengths(len(w))) == list(
            batch.suffix_palindrome_lengths(len(w))
        )


@pytest.mark.parametrize(
    "track_min, track_left",
    [(False, False), (True, False), (True, True)],
    ids=["False", "True", "True-left"],
)
@pytest.mark.parametrize("name", ["fib", "multibonacci"])
def test_index_memory_per_symbol(name, track_min, track_left):
    # Rich words add a node at almost every position.  With one transition
    # dict per node these builds traced 376-400 bytes per symbol; with one
    # table per symbol they trace 180-212, and the left-greedy state adds
    # about 20 more.
    if name == "fib":
        w = tuple(fibonacci_stream().prefix(20000))
    else:
        w = tuple(multibonacci(14))
    tracemalloc.start()
    try:
        idx = PalindromeIndex(w, track_min=track_min, track_left=track_left)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.node_count() == len(w)
    assert peak < 260 * len(w)


def test_longest_suffix_leq_against_spans():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 80)
        w = tuple(rng.randrange(2) for _ in range(n))
        idx = PalindromeIndex(w)
        spans = brute_palindromic_spans(w)
        for pos in range(1, n + 1):
            lengths = [e - s + 1 for s, e in spans if e == pos]
            for cap in range(0, pos + 2):
                want = max((x for x in lengths if x <= cap), default=0)
                assert idx.longest_suffix_leq(pos, cap) == want


def links_by_definition(text, ids):
    """The suffix link and the direct links of the node of palindrome
    ``text``, from its proper palindromic suffixes, longest first: the
    longest of them, and per symbol the longest one that the symbol
    precedes inside ``text``.  ``ids`` maps palindromes to node ids."""
    suffixes = [text[k:] for k in range(1, len(text) + 1) if text[k:] == text[k:][::-1]]
    direct = {}
    for s in suffixes:
        direct.setdefault(text[-len(s) - 1], ids[s])
    return (ids[suffixes[0]] if text else 0), direct


def test_shared_eertree_push_pop_walks():
    # seeded walks that grow one branch (kept under 80 letters) and cut it
    # back by one symbol or to a random shorter length; after every step the
    # table and palindrome test match a fresh computation, and so do every
    # node's suffix link and direct links.  The raw symbol -1 guards the
    # sentinel at word[0].
    rng = random.Random(11)
    for alphabet in ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (-1, 0), LARGE_SYMBOLS):
        tree = SharedEertree()
        texts = {1: ()}  # node id -> its palindrome, read off the branch
        for _ in range(2000):
            n = len(tree.word) - 1
            r = rng.random()
            if n and (r < 0.4 or n == 80):
                tree.truncate(n - 1 if r < 0.3 else rng.randrange(n))
            else:
                val = tree.push(rng.choice(alphabet))
                assert val == tree.dp[-1]
                v = tree.nodes[-1]
                texts.setdefault(v, tuple(tree.word[len(tree.word) - tree.lens[v]:]))
            word = tree.word[1:]
            assert len(tree.word) == len(tree.nodes) == len(tree.dp)
            assert tuple(tree.dp) == pal_dp(word)[1].values
            assert (tree.lens[tree.nodes[-1]] == len(word)) == (word == word[::-1])
            # a push makes at most one node: the new longest suffix
            assert len(texts) == len(tree.lens) - 1 == len(tree.direct) - 1
            ids = {text: v for v, text in texts.items()}
            assert tree.direct[0] == {}
            for v, text in texts.items():
                assert (tree.link[v], tree.direct[v]) == links_by_definition(text, ids)


def left_counts(w):
    return PalindromeIndex(w, track_min=True, track_left=True).left_greedy_counts()


def test_left_greedy_counts_against_scanning_reference():
    rng = random.Random(2015)
    for _ in range(3000):
        alphabet = rng.randint(1, 4)
        w = tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, 40)))
        want = [brute_lgpal(w[:m]) for m in range(1, len(w) + 1)]
        assert left_counts(w) == want


def test_left_greedy_counts_against_single_word_exhaustive():
    # the walk is online, so the prefixes of the length-12 words cover every
    # binary word up to length 12
    for bits in range(2**12):
        w = tuple((bits >> i) & 1 for i in range(12))
        want = [lgpal(w[:m])[0] for m in range(1, 13)]
        assert left_counts(w) == want


def test_left_greedy_counts_every_ternary_word():
    # the prefixes of the length-8 words cover every ternary word up to 8
    for code in range(3**8):
        w = []
        for _ in range(8):
            code, c = divmod(code, 3)
            w.append(c)
        assert left_counts(w) == [brute_lgpal(w[:m]) for m in range(1, 9)]


def test_left_greedy_counts_on_runs_and_large_symbols():
    # Runs of one letter are the groups whose memo cannot see the newest
    # cut (the previous position); a^k, (a^k b)^n and (abbb)^n stress them,
    # with symbols as large as 10**18.
    for a, b in ((0, 1), (10**18, 2**40)):
        words = [(a,) * k for k in range(1, 40)]
        words += [((a,) * k + (b,)) * n for k in range(1, 12) for n in range(1, 6)]
        words += [(a, b, b, b) * n for n in range(1, 12)]
        for w in words:
            want = [brute_lgpal(w[:m]) for m in range(1, len(w) + 1)]
            assert left_counts(w) == want
    rng = random.Random(18)
    for _ in range(300):
        k = rng.randint(1, len(LARGE_SYMBOLS))
        w = []
        while len(w) < 60:
            w += [LARGE_SYMBOLS[rng.randrange(k)]] * rng.randint(1, 8)
        want = [brute_lgpal(w[:m]) for m in range(1, len(w) + 1)]
        assert left_counts(w) == want


def test_left_greedy_counts_examples():
    assert left_counts(Word("abaab")) == [1, 2, 1, 2, 3]
    assert left_counts(Word("aaaa")) == [1, 1, 1, 1]
    assert left_counts(Word()) == []


def test_left_greedy_counts_need_the_flag():
    for idx in (PalindromeIndex((0, 1, 0)), PalindromeIndex((0, 1, 0), track_min=True)):
        with pytest.raises(ValueError, match="track_left"):
            idx.left_greedy_counts()
    assert PalindromeIndex((0, 1, 0), track_left=True).min_factors == [0, 1, 2, 1]


def test_palindromic_prefixes_periodic():
    seq = palindromic_prefixes(Periodic(Word("ab")), 7)
    assert seq.lengths == (1, 3, 5, 7)


def test_palindromic_prefixes_closure_stream():
    seq = palindromic_prefixes(closure_power_stream(), 13)
    assert {3, 6, 13} <= set(seq.lengths)
    assert seq.lengths == (1, 3, 6, 13)


def test_palindromic_prefixes_word_u():
    seq = palindromic_prefixes(word_u_stream(), 1000)
    assert seq.lengths == (1, 2)


def test_palindromic_prefixes_complete():
    for w in all_binary_words(12):
        got = palindromic_prefixes(Word(w), len(w)).lengths
        assert list(got) == brute_palindromic_prefix_lengths(w)


def test_gap_sequence_examples():
    gs = gap_sequence([1, 3, 5, 7])
    assert gs.gaps == (2, 2, 2)
    assert gs.monotone
    assert gs.stabilized_gap() == 2
    gs = gap_sequence([1, 3, 6, 13, 28])
    assert gs.gaps == (2, 3, 7, 15)
    assert gs.monotone
    assert gs.stabilized_gap() is None
    with pytest.raises(ValueError):
        gap_sequence([5])


def test_gap_monotonicity_on_streams():
    streams = [
        Periodic(Word("ab")),
        Periodic(Word("abba")),
        Periodic(Word("aba")),
        fibonacci_stream(),
        closure_power_stream(),
    ]
    for stream in streams:
        seq = palindromic_prefixes(stream, 10**4)
        assert len(seq) >= 3
        assert gap_sequence(seq).monotone


def test_bounded_gaps_for_periodic_streams():
    gs = gap_sequence(palindromic_prefixes(Periodic(Word("abba")), 2000))
    assert gs.stabilized_gap() == 4


def test_product_of_two_palindromes_examples():
    assert product_of_two_palindromes(Word("abba")) == 4
    assert product_of_two_palindromes(Word("abaab")) == 1
    assert product_of_two_palindromes(Word("abc")) is None
    with pytest.raises(ValueError):
        product_of_two_palindromes(Word())


def test_product_of_two_palindromes_brute_equivalence():
    for w in all_binary_words(11):
        if not w:
            continue
        got = product_of_two_palindromes(w)
        splits = [
            p
            for p in range(len(w) + 1)
            if is_palindrome(w[:p]) and is_palindrome(w[p:])
        ]
        if splits:
            assert got in splits
        else:
            assert got is None


def test_split_decides_palindrome_richness_of_periodic_stream():
    # For a primitive word, a two-palindrome split is equivalent to its
    # periodic stream containing many palindromic factors longer than the
    # period (finite proxy: >= 20 within 50 periods).
    for w in all_binary_words(10):
        if not w or not is_primitive(w):
            continue
        split = product_of_two_palindromes(w)
        idx = PalindromeIndex(tuple(w) * 50)
        rich = (
            sum(1 for ln in idx.palindrome_lengths() if ln > len(w)) >= 20
        )
        assert (split is not None) == rich
