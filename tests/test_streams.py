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


def test_word_u_prefix():
    assert word_u_stream().prefix(10) == Word("aabbabaaaa")


def test_word_u_components():
    u0, ok0 = word_u_component(0)
    assert u0 == Word("aa") and ok0
    u1, ok1 = word_u_component(1)
    assert u1 == Word("aabbabaaaa") and len(u1) == 10 and ok1
    u2, ok2 = word_u_component(2)
    assert len(u2) == 34 and ok2
    for n in range(5):
        un, ok = word_u_component(n)
        assert ok
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


def test_materialize_rejects_a_negative_horizon_on_words_and_streams():
    from palfact.streams import materialize

    assert materialize(Word("abaab"), 3) == Word("aba")
    assert materialize(Word("abaab"), 0) == Word()
    for source in (Word("abaab"), fibonacci_stream()):
        with pytest.raises(ValueError, match="prefix length"):
            materialize(source, -2)
