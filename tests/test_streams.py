import pytest

from palfact import (
    CapExceeded,
    EventuallyPeriodic,
    MorphismFixedPoint,
    ParseError,
    Periodic,
    Word,
    closure_power_stream,
    fibonacci_stream,
    is_palindrome,
    mirror,
    multibonacci,
    multibonacci_stream,
    parse_spec,
    u_ladder,
    u_ladder_periodic,
    word_u_component,
    word_u_stream,
)

ALL_KINDS = {
    "periodic": lambda: Periodic(Word("abba")),
    "evper": lambda: EventuallyPeriodic(Word("ab"), Word("abba")),
    "morphism": fibonacci_stream,
    "erasing morphism": lambda: parse_spec("morphism:a>abc,b>,c>a@a"),
    "U": word_u_stream,
    "mbstream": multibonacci_stream,
    "closurepow": closure_power_stream,
    "uladderper": lambda: u_ladder_periodic(3),
}


def test_periodic_prefix_exactness():
    v = Word("abba")
    stream = Periodic(v)
    for k in (1, 2, 5, 9):
        assert stream.prefix(k * len(v)) == v * k
    assert stream.prefix(5) == Word("abbaa")


def test_fibonacci_prefix():
    assert fibonacci_stream().prefix(8) == Word("abaababa")
    assert fibonacci_stream().prefix(0) == Word()


def test_morphism_prolongable_required():
    with pytest.raises(ValueError):
        MorphismFixedPoint({0: (1, 0), 1: (0,)}, 0)  # image does not start with seed
    with pytest.raises(ValueError):
        MorphismFixedPoint({0: (0,)}, 0)  # image too short
    with pytest.raises(ValueError):
        MorphismFixedPoint({0: (0, 1)}, 0)  # letter 1 has no rule


def test_api_built_morphism_images_are_checked_at_construction():
    # every rule is there and the label is given, so only the check of the
    # images can reject these before a prefix is read
    for rules in ({0: (0, -1), -1: (0,)}, {0: (0, 1), 1: (0, 2.5), 2.5: (0,)}):
        with pytest.raises(ValueError, match="non-negative ints"):
            MorphismFixedPoint(rules, 0, name="bad")


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_prefix_is_a_word_equal_to_its_checked_counterpart(kind):
    stream = ALL_KINDS[kind]()
    for n in (0, 1, 17, 500, 40):
        p = stream.prefix(n)
        assert type(p) is Word
        assert p == Word(stream._buf[:n])


def test_word_u_prefix():
    assert word_u_stream().prefix(10) == Word("aabbabaaaa")


def test_word_u_components():
    assert word_u_component(0) == Word("aa")
    u1 = word_u_component(1)
    assert u1 == Word("aabbabaaaa") and len(u1) == 10
    assert len(word_u_component(2)) == 34
    for n in range(5):
        un = word_u_component(n)
        assert len(un) == 4 * 3**n - 2
        assert is_palindrome(un + mirror(un))


def test_multibonacci_words():
    assert multibonacci(1) == Word("1")
    assert multibonacci(2) == Word("121")
    assert multibonacci(3) == Word("1213121")
    for n in range(1, 17):
        m = multibonacci(n)
        assert len(m) == 2**n - 1
        assert is_palindrome(m)
        assert m[-1] == 1


def test_u_ladder_words():
    assert u_ladder(2)[0] == Word("121")
    assert u_ladder(3)[0] == Word("121343121")
    assert u_ladder(4)[0] == Word("121343121565787565121343121")
    for n in range(1, 9):
        u, v = u_ladder(n)
        assert len(u) == 3 ** (n - 1)
        assert is_palindrome(u) and is_palindrome(v)
        # distinct symbol count doubles only across the pair
        assert len(set(u)) == 2 ** (n - 1)
        assert len(set(u + v)) == 2**n


def test_stream_consistency():
    streams = [
        Periodic(Word("ab")),
        Periodic(Word("abba")),
        EventuallyPeriodic(Word("a"), Word("abba")),
        fibonacci_stream(),
        word_u_stream(),
        multibonacci_stream(),
        closure_power_stream(),
        u_ladder_periodic(3),
    ]
    for stream in streams:
        long = stream.prefix(10**4)
        for n in (0, 1, 7, 100, 999, 5000):
            assert long[:n] == stream.prefix(n)


def test_cap_enforced():
    stream = Periodic(Word("ab"), cap=100)
    with pytest.raises(CapExceeded):
        stream.prefix(101)
    assert len(stream.prefix(100)) == 100
    with pytest.raises(CapExceeded):
        multibonacci(40, cap=10**6)
    with pytest.raises(CapExceeded):
        u_ladder(20, cap=10**6)
    with pytest.raises(CapExceeded):
        word_u_component(15, cap=10**6)


def test_parse_spec_finite_forms():
    assert parse_spec("lit:abaab") == Word("abaab")
    assert parse_spec("multibonacci:3") == Word("1213121")
    assert parse_spec("uladder:3") == Word("121343121")


def test_parse_spec_streams():
    assert isinstance(parse_spec("periodic:abba"), Periodic)
    ev = parse_spec("evper:a|abba")
    assert isinstance(ev, EventuallyPeriodic)
    assert ev.prefix(5) == Word("aabba")
    fib = parse_spec("morphism:a>ab,b>a@a")
    assert fib.prefix(8) == Word("abaababa")
    assert parse_spec("fib").prefix(8) == Word("abaababa")
    assert parse_spec("U").prefix(10) == Word("aabbabaaaa")
    assert parse_spec("mbstream").prefix(7) == Word("1213121")
    assert isinstance(parse_spec("uladderper:2"), Periodic)
    assert parse_spec("uladderper:2").prefix(6) == Word("121343")


def test_parse_spec_errors_name_token():
    with pytest.raises(ParseError) as err:
        parse_spec("nonsense:abc")
    assert "nonsense:abc" in str(err.value)
    with pytest.raises(ParseError):
        parse_spec("lit:a!b")
    with pytest.raises(ParseError):
        parse_spec("periodic:")
    with pytest.raises(ParseError):
        parse_spec("morphism:a>ab@a")  # letter b unreachable rule missing
    with pytest.raises(ParseError):
        parse_spec("evper:ab")
    with pytest.raises(ParseError):
        parse_spec("multibonacci:x")


def test_multibonacci_stream_extends_words():
    stream = multibonacci_stream()
    for n in (1, 2, 3, 4):
        m = multibonacci(n)
        assert stream.prefix(len(m)) == m


def test_closure_power_stream_levels():
    # levels: aba, abaaba, abaabaaabaaba, ...
    w = closure_power_stream().prefix(13)
    assert w == Word("abaabaaabaaba")


def test_concurrent_prefix_reads():
    import threading

    stream = fibonacci_stream()
    results = {}

    def reader(n):
        results[n] = stream.prefix(n)

    threads = [threading.Thread(target=reader, args=(n,)) for n in (100, 500, 1000, 250)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    full = stream.prefix(1000)
    for n, got in results.items():
        assert got == full[:n]


def test_threads_drawing_at_once_share_one_exact_buffer():
    import random
    import sys
    import threading

    sizes = random.Random(7).sample(range(1, 6000), 48)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind in sorted(ALL_KINDS):
            stream, got = ALL_KINDS[kind](), {}

            def reader(chunk):
                for n in chunk:
                    got[n] = stream.prefix(n)

            threads = [threading.Thread(target=reader, args=(sizes[i::8],)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            full = ALL_KINDS[kind]().prefix(max(sizes))
            assert len(got) == len(sizes)
            assert all(w == full[:n] for n, w in got.items()), kind
            assert len(stream._buf) == max(sizes), kind
    finally:
        sys.setswitchinterval(interval)


def test_materialize_rejects_a_negative_horizon_on_words_and_streams():
    from palfact.streams import materialize

    assert materialize(Word("abaab"), 3) == Word("aba")
    assert materialize(Word("abaab"), 0) == Word()
    for source in (Word("abaab"), fibonacci_stream()):
        with pytest.raises(ValueError, match="prefix length"):
            materialize(source, -2)


@pytest.mark.parametrize("kind", sorted(ALL_KINDS))
def test_buffer_holds_exactly_the_longest_prefix_asked_for(kind):
    stream = ALL_KINDS[kind]()
    longest = 0
    for n in (0, 7, 3, 30000, 100, 30001, 29999, 30002):
        longest = max(longest, n)
        assert len(stream.prefix(n)) == n
        assert len(stream._buf) == longest


def test_word_u_prefixes_are_its_components():
    stream = word_u_stream()
    for n in (6, 0, 3, 1, 5, 2, 4):
        u = word_u_component(n)
        assert stream.prefix(len(u)) == u
    u6 = word_u_component(6)
    assert stream.prefix(1000) == u6[:1000]


def test_thue_morse_is_popcount_parity():
    stream = parse_spec("morphism:a>ab,b>ba@a")
    assert stream.prefix(5000) == Word(bin(i).count("1") % 2 for i in range(5000))


def test_closure_power_stream_follows_its_recurrence():
    p, k = [0, 1, 0], 0
    while len(p) < 3000:
        p, k = p + [0] * k + p, k + 1
    stream = closure_power_stream()
    for n in (50, 3000, 13, 2999):
        assert stream.prefix(n) == Word(p[:n])


def test_eventually_periodic_is_head_then_period_powers():
    for u, v in (("", "ab"), ("b", "bc"), ("aab", "a"), ("ba", "abba")):
        stream = parse_spec(f"evper:{u}|{v}")
        for k in (5, 0, 3, 40):
            n = len(u) + k * len(v)
            assert stream.prefix(n) == Word(u) + Word(v) * k


def test_erasing_morphism_with_an_infinite_fixed_point():
    # a -> abc, b -> (empty), c -> a; the iterates of a are nested prefixes
    rules = {"a": "abc", "b": "", "c": "a"}
    w = "a"
    while len(w) < 2000:
        w = "".join(rules[ch] for ch in w)
    assert parse_spec("morphism:a>abc,b>,c>a@a").prefix(2000) == Word(w[:2000])


def test_finite_fixed_point_is_reported_with_its_length():
    stream = parse_spec("morphism:a>ab,b>@a")
    assert stream.prefix(2) == Word("ab")
    for _ in range(2):  # the dry source keeps reporting, it never pads
        with pytest.raises(ValueError, match="fixed point of morphism:a>ab,b>@a "
                                             "is finite: it has 2 symbols"):
            stream.prefix(3)
    assert stream.prefix(1) == Word("a")
