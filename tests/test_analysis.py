import random
import tracemalloc

import pytest

from palfact import (
    AmbiguousHorizon,
    EventuallyPeriodic,
    Periodic,
    Word,
    alphabet_bound_check,
    bound_report,
    classify_bound2,
    enumerate_next,
    fibonacci_stream,
    pal_fast,
    reachable_sets,
    verify_next_closed_forms,
)
from palfact.analysis import validate_next_member
from palfact.eertree import PalindromeIndex
from palfact.oracles import brute_pal_table
from palfact.streams import closure_power_stream, materialize, multibonacci_stream, parse_spec


def w(text):
    return Word(text)


# ---------------------------------------------------------------- reachable


def test_reachable_sets_alternating():
    sets = reachable_sets(Periodic(w("ab")), 2, 7)
    assert sets[0] == {0}
    assert sets[1] == {1, 3, 5, 7}


def test_reachable_sets_fibonacci_min_k():
    sets = reachable_sets(fibonacci_stream(), 4, 80)
    assert 9 not in sets[1] and 9 not in sets[2] and 9 in sets[3]


def test_reachable_sets_match_palindromic_prefixes():
    from palfact import palindromic_prefixes

    for stream in (Periodic(w("ab")), Periodic(w("abba")), fibonacci_stream()):
        sets = reachable_sets(stream, 1, 60)
        assert sets[1] == set(palindromic_prefixes(stream, 60).lengths)


def test_reachable_sets_agree_with_tables_on_varied_streams():
    streams = [
        Periodic(w("a")),
        Periodic(w("ab")),
        Periodic(w("aab")),
        Periodic(w("abba")),
        Periodic(w("abac")),
        Periodic(w("ababa")),
        Periodic(w("aabab")),
        Periodic(w("abc")),
        Periodic(w("aabb")),
        Periodic(w("abcba")),
        Periodic(w("121343")),
        Periodic(w("1213121")),
        EventuallyPeriodic(w("a"), w("abba")),
        EventuallyPeriodic(w("ba"), w("ab")),
        EventuallyPeriodic(w("abb"), w("ba")),
        fibonacci_stream(),
        closure_power_stream(),
        multibonacci_stream(),
        Periodic(w("aaab")),
        EventuallyPeriodic(w("bb"), w("aba")),
    ]
    # reachable_sets raises internally if the minimum-k cross-check fails
    for stream in streams:
        reachable_sets(stream, 5, 120)


def test_reachable_sets_unary_word_lists_no_quadratic_span_table():
    # a^n has n(n+1)/2 palindromic factors; a table of them all by start
    # peaked at 18.8 MB traced for n = 1000
    tracemalloc.start()
    try:
        sets = reachable_sets(Word("a" * 1000), 2, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets[1] == set(range(1, 1001)) and sets[2] == set(range(2, 1001))
    assert peak < 5 * 2**20


# ---------------------------------------------------------------- bounds


def test_bound_report_memberships():
    assert bound_report(EventuallyPeriodic(w("a"), w("abba")), 1000).prefix_max == 2
    assert bound_report(Periodic(w("abba")), 1000).prefix_max == 3
    assert bound_report(Periodic(w("abac")), 1000).prefix_max == 3
    rep = bound_report(Periodic(w("ababa")), 1000, 100)
    assert rep.prefix_max == 2
    assert rep.factor_max == 3


def test_bound_report_window_covers_prefixes():
    rep = bound_report(Periodic(w("abba")), 200, 40)
    # the window includes position 1, so short prefixes are factors too
    assert rep.factor_max >= min(rep.prefix_max, 3)


def test_bound_report_verdicts():
    rep = bound_report(Periodic(w("ab")), 500)
    assert rep.verdicts["bounded_by_2_implies_binary"] == "pass"
    assert rep.verdicts["prefix_gap_monotone"] == "pass"
    rep = bound_report(Periodic(w("abac")), 500)
    assert rep.verdicts["bounded_by_2_implies_binary"] == "inapplicable"


def test_alphabet_bound_check():
    assert alphabet_bound_check(Periodic(w("ab")), 500) == "pass"
    assert alphabet_bound_check(Periodic(w("abac")), 500) == "inapplicable"
    assert alphabet_bound_check(Periodic(w("a")), 500) == "pass"


def bound2_suite_streams():
    """The streams of the bound2 verify suite, closed-family instances
    included, plus three that the suite does not use."""
    streams = [EventuallyPeriodic(w("a"), w("abba")), Periodic(w("abba")),
               Periodic(w("abac")), Periodic(w("ababa")),
               EventuallyPeriodic(w("a"), w("baa")), Periodic(w("ab")), Periodic(w("a"))]
    for i in range(1, 5):
        for j in range(1, 5):
            streams.append(Periodic(w("a") * i + w("b") + w("a") * j))
            streams.append(Periodic(w("a") * i + w("b") * j))
    for i in range(2, 5):
        streams.append(Periodic(w("ab") * i + w("a")))
    return streams + [parse_spec(s) for s in ("fib", "U", "periodic:abc")]


def test_alphabet_bound_check_is_the_bound_report_rule():
    verdicts = set()
    for stream in bound2_suite_streams():
        rule = bound_report(stream, 1000, 100).verdicts["bounded_by_2_implies_binary"]
        assert alphabet_bound_check(stream, 1000) == rule, stream
        verdicts.add(rule)
    assert verdicts == {"pass", "inapplicable"}


@pytest.fixture
def index_builds(monkeypatch):
    """Counts PalindromeIndex constructions from the moment it is requested."""
    builds = []
    init = PalindromeIndex.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PalindromeIndex, "__init__", counting)
    return builds


def test_bound_layer_builds_one_index_per_word(index_builds):
    rng = random.Random(5)
    cases = [(parse_spec("fib"), 300, 30), (Periodic(w("ababa")), 400, 50),
             (Word([rng.randrange(3) for _ in range(120)]), 120, 12)]
    for stream, horizon, window in cases:
        t = tuple(materialize(stream, horizon))
        windows = {t[i : i + window] for i in range(len(t))}
        del index_builds[:]
        bound_report(stream, horizon, window)
        assert len(index_builds) == 1 + len(windows)
        del index_builds[:]
        alphabet_bound_check(stream, horizon)
        assert len(index_builds) == 1


def test_enumerate_next_builds_no_index(index_builds):
    for base, cap in [("aab", 24), ("ab", 32), ("abbab", 20), ("abaab", 5), ("a", 1)]:
        enumerate_next(w(base), cap)
    assert index_builds == []


def test_enumerate_next_base_needing_three_factors_is_empty():
    # the search checks the base on its own branch; the oracle checks it here
    barren = 0
    for n in range(1, 10):
        for bits in range(2**n):
            base = [(bits >> i) & 1 for i in range(n)]
            if max(brute_pal_table(base)) > 2:
                barren += 1
                ns = enumerate_next(base, n + 6)
                assert (ns.palindromes, ns.open_branches) == ((), ()), base
    assert barren > 100


# ---------------------------------------------------------------- next sets


def test_enumerate_next_aab():
    ns = enumerate_next(w("aab"), 12)
    a, b = (0,), (1,)
    expected = set()
    for j in range(1, 9):
        expected.add(a * 2 + b * j + a * 2)
    for k in (1, 2, 3):
        expected.add(a * 2 + (b + a) * k + b + a * 2)
    assert {tuple(p) for p in ns.palindromes} == expected
    assert ns.open_branches  # the families keep growing past any cap


def test_enumerate_next_ab():
    ns = enumerate_next(w("ab"), 12)
    assert [str(p) for p in ns.palindromes] == [
        "aba", "abba", "abbba", "abbbba", "abbbbba", "abbbbbba",
        "abbbbbbba", "abbbbbbbba", "abbbbbbbbba", "abbbbbbbbbba",
    ]


def test_enumerate_next_at_the_base_length_leaves_the_base_open():
    # with max_len equal to the base length the search used to extend past
    # the cap until the interpreter's recursion limit
    for base in ("a", "ab", "aba", "aab"):
        ns = enumerate_next(w(base), len(base))
        assert ns.palindromes == ()
        assert ns.open_branches == (w(base),)
    assert enumerate_next(w("aababb"), 6).open_branches == ()  # needs three


def test_enumerate_next_empty_items_close():
    for base in ("aababaa", "aabbaaa", "aabaabaaa"):
        ns = enumerate_next(w(base), 64)
        assert ns.palindromes == ()
        assert ns.open_branches == ()


def test_enumerate_next_members_validate_independently():
    for base in ("aab", "ab", "abbab", "ababaa", "aabaa"):
        ns = enumerate_next(w(base), 24)
        for member in ns.palindromes:
            assert validate_next_member(w(base), member)


def test_enumerate_next_closures_match_plain_search():
    # definitional reference: breadth-first growth with only the definitional
    # prunes, no closure rules
    def plain_next(base, cap):
        base = tuple(base)
        if any(v > 2 for v in brute_pal_table(base)[1:]):
            return []
        members = []
        frontier = [base]
        while frontier:
            x = frontier.pop()
            for c in (0, 1):
                y = x + (c,)
                if brute_pal_table(y)[-1] > 2:
                    continue
                if y == y[::-1]:
                    if len(y) > len(base):
                        members.append(y)
                    continue
                if len(y) < cap:
                    frontier.append(y)
        return sorted(members)

    rng = random.Random(77)
    bases = [(0, 1), (0, 0, 1), (0, 1, 0), (0, 0, 1, 0, 0)]
    for _ in range(40):
        n = rng.randint(1, 8)
        bases.append(tuple(rng.randrange(2) for _ in range(n)))
    for base in bases:
        for cap in (14, 20):
            if len(base) > cap:
                continue
            got = sorted(tuple(p) for p in enumerate_next(Word(base), cap).palindromes)
            assert got == plain_next(base, cap), (base, cap)


def test_enumerate_next_input_validation():
    with pytest.raises(ValueError):
        enumerate_next(w(""), 10)
    with pytest.raises(ValueError):
        enumerate_next(w("abc"), 10)
    with pytest.raises(ValueError):
        enumerate_next(w("abab"), 2)


def test_verify_next_closed_forms_small_grid():
    verdicts = verify_next_closed_forms(3, 3, 3, 48)
    assert verdicts
    assert all(v.status == "pass" for v in verdicts)
    empty = [v for v in verdicts if v.item in (2, 3, 5)]
    assert empty and all(v.open_count == 0 for v in empty)


def test_verify_next_closed_forms_specific_items():
    verdicts = verify_next_closed_forms(2, 2, 2, 40)
    by = {(v.item, tuple(sorted(v.params.items()))): v for v in verdicts}
    # item 4 singleton
    v = by[(4, (("i", 1), ("j", 2), ("k", 1)))]
    assert [str(p) for p in v.expected] == ["abbabba"]
    # item 8 singleton at k=2
    v = by[(8, (("k", 2),))]
    assert [str(p) for p in v.expected] == ["ababaababa"]
    # item 5 empty at i=2, k=2
    v = by[(5, (("i", 2), ("k", 2)))]
    assert v.expected == () and v.observed == () and v.open_count == 0


# ---------------------------------------------------------------- classify


def test_classify_families():
    cls = classify_bound2(Periodic(w("ababa")), 1000)
    assert cls.family == "((ab)^i a)^w"
    assert cls.params["i"] == 2
    assert cls.bplf2 is None

    cls = classify_bound2(EventuallyPeriodic(w("a"), w("baa")), 1000)
    assert cls.family == "(a^i b a^j)^w"
    assert (cls.params["i"], cls.params["j"]) == (1, 1)
    assert cls.bplf2 == (1, 2)

    cls = classify_bound2(Periodic(w("ab")), 1000)
    assert cls.family == "(a^i b^j)^w"
    assert cls.bplf2 == (1, 1)

    cls = classify_bound2(Periodic(w("abb")), 1000)
    assert cls.family == "(a^i b^j)^w"
    assert (cls.params["i"], cls.params["j"]) == (1, 2)
    assert cls.bplf2 == (0, 2)

    cls = classify_bound2(Periodic(w("a")), 1000)
    assert cls.family == "a^w"


def test_classify_no_closed_form():
    cls = classify_bound2(Periodic(w("abba")), 1000)
    assert cls.family is None
    assert cls.periodic and cls.period == 4
    assert cls.report.prefix_max == 3

    cls = classify_bound2(Periodic(w("aabab")), 1000)
    assert cls.family is None
    assert cls.report.prefix_max == 3

    cls = classify_bound2(fibonacci_stream(), 1000)
    assert cls.family is None
    assert not cls.periodic


def test_classify_ambiguous_horizon():
    with pytest.raises(AmbiguousHorizon):
        classify_bound2(Periodic(w("aaab")), 8)
    # enough horizon resolves it
    cls = classify_bound2(Periodic(w("aaab")), 100)
    assert cls.family == "(a^i b^j)^w"


def test_classify_family_members_stay_bounded():
    # closed-family instances never contradict their bound report; the
    # classifier raises if they would
    for i in range(1, 5):
        for j in range(1, 5):
            classify_bound2(Periodic(w("a") * i + w("b") + w("a") * j), 600)
            classify_bound2(Periodic(w("a") * i + w("b") * j), 600)
    for i in range(2, 5):
        classify_bound2(Periodic(w("ab") * i + w("a")), 600)


def test_family_instances_have_bounded_prefixes():
    from palfact import max_prefix_count

    worst = 0
    streams = [Periodic(w("a"))]
    for i in range(1, 5):
        for j in range(1, 5):
            streams.append(Periodic(w("a") * i + w("b") + w("a") * j))
            streams.append(Periodic(w("a") * i + w("b") * j))
    for i in range(2, 5):
        streams.append(Periodic(w("ab") * i + w("a")))
    for stream in streams:
        worst = max(worst, max_prefix_count(stream, 1000))
    assert worst <= 2


def test_pal_fast_agrees_inside_bound_report():
    rep = bound_report(Periodic(w("abac")), 300, 60)
    assert rep.prefix_max == max(pal_fast(Periodic(w("abac")).prefix(300))[1].values)
