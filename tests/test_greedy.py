import random
import time

import pytest

import palfact.greedy
from palfact import (
    Periodic,
    Word,
    build_gap_word,
    build_profile,
    fibonacci_stream,
    gap_witness,
    greedy_profile,
    lgpal,
    lgpal_profile,
    mirror,
    multibonacci,
    pal_dp,
    pal_fast,
    parse_spec,
    rgpal,
    u_ladder,
)
from palfact.analysis import _windowed_factor_max
from palfact.oracles import brute_lgpal, brute_rgpal
from palfact.streams import materialize
from palfact.words import is_palindrome


def all_binary_words(max_len):
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield tuple((bits >> i) & 1 for i in range(length))


def test_greedy_examples():
    assert rgpal(Word("abaa"))[0] == 3
    assert rgpal(Word("abaab"))[0] == 2
    assert rgpal(Word("aaaa"))[0] == 1
    assert lgpal(Word("abaa"))[0] == 2
    assert lgpal(Word("abaab"))[0] == 3
    assert rgpal(Word())[0] == 0
    assert lgpal(Word())[0] == 0


def test_greedy_decomposition_spans():
    k, dec = lgpal(Word("abaa"))
    assert k == 2
    assert dec.spans == ((1, 3), (4, 4))  # aba . a
    k, dec = rgpal(Word("abaab"))
    assert dec.spans == ((1, 1), (2, 5))  # a . baab


def test_multibonacci_truncated_left_greedy():
    m4 = multibonacci(4)
    assert lgpal(m4[:-1])[0] == 6  # 2*4 - 2


def test_greedy_matches_scanning_reference():
    for w in all_binary_words(14):
        assert lgpal(w)[0] == brute_lgpal(w)
        assert rgpal(w)[0] == brute_rgpal(w)


def test_greedy_spans_are_greedy():
    # each span really is the longest palindromic prefix/suffix of its residual
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 60)
        w = Word(tuple(rng.randrange(2) for _ in range(n)))
        _, ldec = lgpal(w)
        pos = 1
        for s, e in ldec.spans:
            assert s == pos
            residual = w[s - 1 :]
            length = e - s + 1
            assert is_palindrome(residual[:length])
            assert all(
                not is_palindrome(residual[:t])
                for t in range(length + 1, len(residual) + 1)
            )
            pos = e + 1
        _, rdec = rgpal(w)
        pos = len(w)
        for s, e in reversed(rdec.spans):
            assert e == pos
            residual = w[:e]
            length = e - s + 1
            assert is_palindrome(residual[len(residual) - length :])
            assert all(
                not is_palindrome(residual[len(residual) - t :])
                for t in range(length + 1, len(residual) + 1)
            )
            pos = s - 1


def test_mirror_duality():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 150)
        w = Word(tuple(rng.randrange(3) for _ in range(n)))
        assert lgpal(w)[0] == rgpal(mirror(w))[0]


def test_minimum_below_greedy_exhaustive():
    for w in all_binary_words(14):
        p, lg, rg = gap_witness(Word(w))
        assert p <= min(lg, rg)


def test_gap_witness_matches_separate_counts():
    rng = random.Random(7)
    for _ in range(3000):
        k = rng.randint(1, 4)
        w = Word(tuple(rng.randrange(k) for _ in range(rng.randint(0, 60))))
        assert gap_witness(w) == (pal_dp(w)[0], lgpal(w)[0], rgpal(w)[0]), w


def test_gap_witness_examples():
    assert gap_witness(Word("abaa")) == (2, 2, 3)
    assert gap_witness(Word("aba")) == (1, 1, 1)
    assert gap_witness(()) == gap_witness(Word()) == (0, 0, 0)
    big = build_gap_word(3)
    assert gap_witness(big) == (6, 8, 8)


def binary_palindromes(max_len):
    for length in range(1, max_len + 1):
        k = (length + 1) // 2
        for bits in range(2**k):
            half = tuple((bits >> i) & 1 for i in range(k))
            yield half + half[: length // 2][::-1]


def test_gap_witness_on_palindromes_matches_the_definitions():
    words = list(binary_palindromes(16))
    assert len(words) == 2 * (2**9 - 2)
    words += [multibonacci(n) for n in range(1, 11)]
    words += [u_ladder(n)[0] for n in range(1, 7)]
    for w in words:
        assert w == w[::-1]
        expected = (pal_dp(w)[0], brute_lgpal(w), brute_rgpal(w))
        assert gap_witness(w) == expected == (1, 1, 1)
        # gap_witness answers these without an index; the index counts
        # must agree on them too
        assert (pal_fast(w)[0], lgpal(w)[0], rgpal(w)[0]) == expected


def test_gap_witness_builds_no_index_for_a_palindrome(monkeypatch):
    def no_index(*args, **kwargs):
        raise AssertionError("built an index")

    monkeypatch.setattr(palfact.greedy, "PalindromeIndex", no_index)
    assert gap_witness(multibonacci(12)) == (1, 1, 1)
    assert gap_witness(u_ladder(7)[0]) == (1, 1, 1)
    with pytest.raises(AssertionError, match="built an index"):
        gap_witness(parse_spec("lit:ab"))


def test_multibonacci_gap_family():
    for n in range(2, 11):
        m = multibonacci(n)
        assert pal_fast(m[:-1])[0] == 2
        assert lgpal(m[:-1])[0] == 2 * n - 2
        assert rgpal(m[1:])[0] == 2 * n - 2
        big = build_gap_word(n)
        p, lg, rg = gap_witness(big)
        assert p == 6
        assert lg == 2 * n + 2
        assert rg == 2 * n + 2


def test_greedy_profile_alternating():
    gp = greedy_profile(Periodic(Word("ab")), 200)
    assert gp.max_lgpal[-1] == 2
    # pattern: odd prefixes (ab)^n a are palindromes, even ones need two
    assert gp.lgpal[0::2] == [1] * 100
    assert gp.lgpal[1::2] == [2] * 100


def test_greedy_profile_isolated_b_streams():
    for n in (1, 2, 3):
        stream = Periodic(Word("a") * n + Word("b"))
        gp = greedy_profile(stream, 500)
        assert gp.max_rgpal[-1] <= 2


def test_greedy_profile_fibonacci_unbounded():
    gp = greedy_profile(fibonacci_stream(), 1000)
    assert gp.max_lgpal[-1] > 6
    assert gp.max_rgpal[-1] > 6
    # per-prefix values agree with the single-word operations
    w = fibonacci_stream().prefix(1000)
    for n in (1, 2, 17, 100, 999):
        assert gp.lgpal[n - 1] == lgpal(w[:n])[0]
        assert gp.rgpal[n - 1] == rgpal(w[:n])[0]


def test_greedy_profile_matches_per_prefix_on_random_words():
    from palfact.greedy import lgpal_profile, rgpal_profile

    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 60)
        w = Word(tuple(rng.randrange(2) for _ in range(n)))
        lg = lgpal_profile(w)
        rg = rgpal_profile(w)
        for m in range(1, n + 1):
            assert lg[m - 1] == brute_lgpal(w[:m])
            assert rg[m - 1] == brute_rgpal(w[:m])


def test_factor_bound_from_left_greedy_prefix_bound():
    # when left-greedy counts of prefixes stay below K, every factor fits in
    # 2K palindromic factors (finite check at horizon 1000, window 100)
    for period in ("ab", "abba", "aba", "aab"):
        stream = Periodic(Word(period))
        gp = greedy_profile(stream, 1000)
        bound = 2 * gp.max_lgpal[-1]
        w = stream.prefix(1000)
        assert _windowed_factor_max(w, 100) <= bound


def test_build_profile_matches_single_word_operations():
    rng = random.Random(77)
    sources = [parse_spec(spec) for spec in ("fib", "periodic:aabab", "U")]
    sources.append(Word(tuple(rng.randrange(4) for _ in range(500))))
    for source in sources:
        prof = build_profile(source, 500)
        w = materialize(source, 500)
        assert prof.pal == list(pal_dp(w)[1].values[1:])
        assert prof.lgpal == [lgpal(w[:m])[0] for m in range(1, 501)]
        assert prof.rgpal == [rgpal(w[:m])[0] for m in range(1, 501)]


def test_left_greedy_profile_is_not_quadratic_on_periodic_words():
    # every position of (ab)^n and (abbb)^n has Theta(n) palindromic suffixes
    # in one series-link group.  A walk along plain suffix links takes minutes
    # on (ab)^n unless it stops past the last cut, and on (abbb)^n even then.
    for period, n in (("ab", 50000), ("abbb", 25000)):
        w = Word(period) * n
        t0 = time.perf_counter()
        lg = lgpal_profile(w)
        elapsed = time.perf_counter() - t0
        assert lg == ([1] + [2] * (len(period) - 1)) * n
        assert elapsed < 2.0, f"({period})^{n}: {elapsed:.2f}s"
