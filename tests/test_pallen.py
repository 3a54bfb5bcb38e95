import random
import tracemalloc

import pytest

from palfact import (
    Decomposition,
    Periodic,
    Word,
    build_profile,
    fibonacci_stream,
    first_attainment,
    is_palindrome,
    minimal_factorizations,
    mirror,
    pal_dp,
    pal_fast,
)
import palfact.pallen
from palfact.greedy import lgpal, rgpal
from palfact.oracles import brute_pal_table
from palfact.streams import multibonacci, parse_spec, u_ladder


def all_binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield tuple((bits >> i) & 1 for i in range(length))


def test_known_values():
    assert pal_dp(Word("abaab"))[0] == 2
    assert pal_dp(Word("aabaab"))[0] == 2
    assert pal_dp(Word("aabaaba"))[0] == 2
    assert pal_dp(Word())[0] == 0
    assert pal_dp(Word("a"))[0] == 1
    assert pal_fast(Word("abaab"))[0] == 2


def test_table_base_and_indexing():
    _, table = pal_fast(Word("abaab"))
    assert table[0] == 0
    assert list(table.values) == [0, 1, 2, 1, 2, 2]
    assert len(table) == 5


def test_fast_equals_dp_equals_brute_exhaustive():
    for w in all_binary_words(14):
        brute = brute_pal_table(w)
        assert list(pal_dp(w)[1].values) == brute
        assert list(pal_fast(w)[1].values) == brute


def test_fast_equals_dp_random():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(0, 600)
        w = tuple(rng.randrange(rng.choice((2, 3, 4))) for _ in range(n))
        assert pal_dp(w)[1].values == pal_fast(w)[1].values


def test_fibonacci_prefix_62():
    w = fibonacci_stream().prefix(62)
    assert pal_fast(w)[0] == 4


def test_mirror_symmetry():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(0, 200)
        w = Word(tuple(rng.randrange(3) for _ in range(n)))
        assert pal_fast(w)[0] == pal_fast(mirror(w))[0]


def test_subadditivity():
    rng = random.Random(10)
    for _ in range(1000):
        n1, n2 = rng.randint(0, 60), rng.randint(0, 60)
        u = Word(tuple(rng.randrange(2) for _ in range(n1)))
        v = Word(tuple(rng.randrange(2) for _ in range(n2)))
        assert pal_fast(u + v)[0] <= pal_fast(u)[0] + pal_fast(v)[0]


def test_palindromic_suffix_transition_inequality():
    # values[i] <= values[j] + 1 whenever w[j+1..i] is a palindrome
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 80)
        w = tuple(rng.randrange(2) for _ in range(n))
        values = brute_pal_table(w)
        for i in range(1, n + 1):
            for j in range(i):
                seg = w[j:i]
                if seg == seg[::-1]:
                    assert values[i] <= values[j] + 1


def test_minimal_factorizations_examples():
    facts = minimal_factorizations(Word("aabaab"))
    assert facts.count == 2
    spans = [d.spans for d in facts]
    assert spans == [((1, 2), (3, 6)), ((1, 5), (6, 6))]
    assert not facts.truncated

    facts = minimal_factorizations(Word("aabaaba"))
    assert facts.count == 2
    assert [d.spans for d in facts] == [((1, 1), (2, 7))]

    facts = minimal_factorizations(Word("aba"))
    assert [d.spans for d in facts] == [((1, 3),)]


def test_minimal_factorizations_validate_and_order():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 40)
        w = Word(tuple(rng.randrange(2) for _ in range(n)))
        count, _ = pal_fast(w)
        facts = minimal_factorizations(w, limit=50)
        starts = []
        for dec in facts:
            dec.validate(w)
            assert len(dec) == count
            assert all(is_palindrome(f) for f in dec.factors(w))
            starts.append(tuple(s for s, _ in dec.spans))
        assert starts == sorted(starts)


def test_minimal_factorizations_limit_flag():
    # a^12 has many 1-factor... use a word with multiple minimal splits
    w = Word("aabaab")
    facts = minimal_factorizations(w, limit=1)
    assert len(facts) == 1
    assert facts.truncated
    with pytest.raises(ValueError):
        minimal_factorizations(w, limit=0)


def recursive_minimal_factorizations(w, limit):
    """Reference: the backtracking by recursion over cut positions, on the
    definition-level table and a brute palindrome scan."""
    n = len(w)
    if n == 0:
        return 0, False, [()]  # the empty word's one decomposition is never flagged
    values = brute_pal_table(w)
    found = []

    def walk(cut, acc):
        if cut == n:
            found.append(tuple(acc))
            return len(found) < limit
        for end in range(cut + 1, n + 1):
            f = w[cut:end]
            if values[end] == values[cut] + 1 and f == f[::-1]:
                acc.append((cut + 1, end))
                keep = walk(end, acc)
                acc.pop()
                if not keep:
                    return False
        return True

    complete = walk(0, [])
    return values[n], not complete, found


def test_minimal_factorizations_match_recursive_reference():
    rng = random.Random(7)
    for _ in range(3000):
        k = rng.randint(1, 4)
        w = tuple(rng.randrange(k) for _ in range(rng.randint(0, 60)))
        for limit in (1, 3, 100):
            facts = minimal_factorizations(w, limit)
            got = (facts.count, facts.truncated, [d.spans for d in facts])
            assert got == recursive_minimal_factorizations(w, limit), (w, limit)


def rich_words():
    """Palindromic and rich words, whose searches used to walk many dead cuts."""
    words = [tuple(multibonacci(k)) for k in range(1, 8)]
    for k in range(1, 5):
        u, v = u_ladder(k)
        words += [tuple(u), tuple(u + v), tuple(u + v + u)]
    words += [(0,) * n for n in (1, 2, 5, 17, 40)]
    words += [(0, 1) * n for n in (1, 4, 15)]
    words += [(0,) * k + (1,) + (0,) * k + (1,) + (0,) * k for k in (1, 3, 8)]
    words.append(tuple(fibonacci_stream().prefix(100)))
    return words


def test_pruned_search_matches_recursive_reference_on_rich_words():
    for w in rich_words():
        for limit in (1, 3, 100):
            facts = minimal_factorizations(w, limit)
            got = (facts.count, facts.truncated, [d.spans for d in facts])
            assert got == recursive_minimal_factorizations(w, limit), (w, limit)


def test_unary_word_lists_no_quadratic_span_table():
    # a^n has n(n+1)/2 palindromic factors; listing them all ahead of the
    # search took 325 MB and 2.6 s at n = 4000, for one decomposition
    tracemalloc.start()
    try:
        facts = minimal_factorizations((0,) * 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.spans for d in facts] == [((1, 4000),)]
    assert peak < 10 * 2**20


# Five blocks over disjoint letters, each split two ways (aa.baab or
# aabaa.b): 32 minimum decompositions of 10 palindromes that share most spans.
BLOCKS = Word("aabaab" "ccdccd" "eefeef" "gghggh" "iijiij")

# Corruptions of the last of them, ((1, 5), (6, 6), (7, 11), (12, 12), ...,
# (30, 30)); each breaks one rule and keeps the others where it can.
CORRUPTIONS = {
    "not a palindrome": lambda d: d[:1] + ((6, 7), (8, 11)) + d[3:],  # "bc", "cdcc"
    "gap": lambda d: d[:2] + ((8, 11),) + d[3:],
    "overlap": lambda d: d[:2] + ((6, 11),) + d[3:],
    "end before start": lambda d: d[:2] + ((7, 6),) + d[2:],
    "overrun": lambda d: d[:-1] + ((30, 31),),
    "short": lambda d: d[:-1],
}


def test_equal_spans_are_one_object_and_proved_once():
    # each block's spans recur after every choice made in the blocks before
    w = BLOCKS
    facts = minimal_factorizations(w)
    assert len(facts) == 32
    spans = [span for d in facts for span in d.spans]
    assert len({id(span) for span in spans}) == len(set(spans))
    proved = set()
    for d in facts:
        d.validate(tuple(w), proved)
    assert proved == set(spans)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_search_rejects_one_corrupted_span_among_many(monkeypatch, kind):
    clean = minimal_factorizations(BLOCKS, limit=50)
    assert (len(clean), clean.count, clean.truncated) == (32, 10, False)
    last = clean.decompositions[-1].spans
    assert last[:3] == ((1, 5), (6, 6), (7, 11)) and last[-1] == (30, 30)
    made = []

    def corrupting(spans):
        made.append(spans)
        if len(made) == len(clean):
            spans = CORRUPTIONS[kind](spans)
        return Decomposition(spans)

    monkeypatch.setattr(palfact.pallen, "Decomposition", corrupting)
    with pytest.raises(ValueError):
        minimal_factorizations(BLOCKS, limit=50)


def test_greedy_decompositions_come_with_the_minimal_ones():
    rng = random.Random(12)
    words = [Word(), Word("a"), Word("aaaaaaa"), Word("abacaba")]
    for i in range(2000):
        letters = 1 + i % 4  # one letter gives the unary words
        half = [rng.randrange(letters) for _ in range(rng.randint(0, 30))]
        if i % 5 == 0:  # a palindrome, of odd or even length
            half += [rng.randrange(letters)] * (i % 2) + half[::-1]
        words.append(Word(half))
    for w in words:
        facts = minimal_factorizations(w, limit=1)
        left, right = facts.left_greedy, facts.right_greedy
        assert left == lgpal(w)[1] and right == rgpal(w)[1], w
        assert facts.count <= min(len(left), len(right))
        proved = set()
        left.validate(w, proved)
        right.validate(w, proved)


@pytest.mark.parametrize("rule", ["_left_greedy_spans", "_right_greedy_spans"])
def test_search_rejects_corrupted_greedy_spans(monkeypatch, rule):
    spans = getattr(palfact.pallen, rule)
    monkeypatch.setattr(palfact.pallen, rule, lambda lps: spans(lps)[:-1])
    with pytest.raises(ValueError, match="cover"):
        minimal_factorizations(BLOCKS)


def test_decomposition_validation_rejects_bad_spans():
    w = Word("abab")
    with pytest.raises(ValueError):
        Decomposition(((1, 2), (3, 4))).validate(w)  # "ab" spans, not palindromes
    with pytest.raises(ValueError):
        Decomposition(((1, 1),)).validate(w)  # does not cover
    with pytest.raises(ValueError):
        Decomposition(((1, 1), (3, 3), (4, 4))).validate(w)  # gap
    with pytest.raises(ValueError):
        Decomposition(((1, 3), (4, 5))).validate(w)  # runs past the end
    with pytest.raises(ValueError):
        Decomposition(((1, 4),)).validate(Word("abca"))  # ends agree, middle not
    with pytest.raises(ValueError):
        Decomposition(((1, 3), (4, 3), (4, 4))).validate(w)  # ends before it starts
    with pytest.raises(ValueError):
        Decomposition(()).validate(w)
    Decomposition(((1, 3), (4, 4))).validate(w)
    Decomposition(((1, 3), (4, 4))).validate(list(w))
    Decomposition(()).validate(Word())
    proved = {(1, 3)}
    with pytest.raises(ValueError):  # a span outside the proved set is checked
        Decomposition(((1, 3), (4, 5))).validate(Word("abaab"), proved)


def test_first_attainment_fibonacci():
    m = first_attainment(fibonacci_stream(), 7, 6000)
    assert m == {1: 1, 2: 2, 3: 9, 4: 62, 5: 297, 6: 1154, 7: 5473}


def test_first_attainment_unary_and_alternating():
    m = first_attainment(Periodic(Word("a")), 3, 500)
    assert m == {1: 1, 2: None, 3: None}
    m = first_attainment(Periodic(Word("ab")), 3, 10**4)
    assert m == {1: 1, 2: 2, 3: None}


@pytest.mark.parametrize("spec, horizon", [
    ("fib", 2000), ("U", 2000), ("mbstream", 2000), ("random", 1500),
])
def test_profile_first_attainment_is_first_attainment(spec, horizon):
    if spec == "random":
        rng = random.Random(8)
        source = Word([rng.randrange(3) for _ in range(horizon)])
    else:
        source = parse_spec(spec)
    prof = build_profile(source, horizon)
    top = max(prof.pal)
    assert top >= 4
    assert prof.first_attainment == first_attainment(source, top, horizon)
    assert list(prof.first_attainment) == list(range(1, top + 1))


def test_bplp_shift_property():
    # For a stream aw whose prefixes all fit in k factors, the prefixes of w
    # fit in k + 1.
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(2, 200)
        aw = tuple(rng.randrange(2) for _ in range(n))
        w = aw[1:]
        max_aw = max(brute_pal_table(aw)[1:])
        max_w = max(brute_pal_table(w)[1:], default=0)
        assert max_w <= max_aw + 1
