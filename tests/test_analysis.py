import itertools
import random

import pytest

import palfact.analysis
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
    verify_next_closed_forms,
)
from palfact.analysis import validate_next_member
from palfact.eertree import PalindromeIndex
from palfact.engine import palindromic_prefix_lengths
from palfact.oracles import brute_pal_table
from palfact.streams import materialize, parse_spec


def w(text):
    return Word(text)


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


@pytest.mark.parametrize("spec, horizon, window, verdict", [
    # every prefix is in P^2 and there are four palindromic prefixes, but
    # the rule is about infinitely many: aaabaaa c^w has finitely many
    ("evper:aaabaaa|c", 1000, 100, "inapplicable"),
    # a finite word is outside the rule, however many prefixes it has
    ("lit:aaabaaac", 8, 8, "inapplicable"),
    ("lit:abababac", 8, 8, "inapplicable"),
    # (aaabaaac)^w has infinitely many (aaabaaa.c splits its period), and
    # its prefix of length 9 needs three palindromes
    ("periodic:aaabaaac", 8, 8, "horizon-limited"),
    ("periodic:aaabaaac", 9, 9, "inapplicable"),
    # the third letter lies beyond the horizon, but it is in the spec
    ("periodic:abac", 3, 3, "horizon-limited"),
    # a(abba)^w is (aabb)^w; a(baa)^w is (aba)^w
    ("evper:a|abba", 1000, 100, "pass"),
    ("evper:a|baa", 1000, 100, "pass"),
    ("evper:aab|a", 1000, 100, "inapplicable"),
])
def test_binary_rule_needs_infinitely_many_palindromic_prefixes(spec, horizon,
                                                                window, verdict):
    source = parse_spec(spec)
    rep = bound_report(source, horizon, window)
    assert rep.verdicts["bounded_by_2_implies_binary"] == verdict
    assert alphabet_bound_check(source, horizon) == verdict


def test_binary_rule_decides_the_hypothesis_as_the_index_does():
    # a stream has infinitely many palindromic prefixes when one lies in the
    # top half of a long horizon (heads <= 2, periods <= 4, three letters)
    decide = palfact.analysis._infinitely_many_palindromic_prefixes
    for hl in range(3):
        for head in itertools.product(range(3), repeat=hl):
            for pl in range(1, 5):
                for period in itertools.product(range(3), repeat=pl):
                    stream = EventuallyPeriodic(head, period)
                    pp = palindromic_prefix_lengths(
                        PalindromeIndex(stream.prefix(200)).lps)
                    want = bool(pp) and pp[-1] > 100
                    assert decide(head, period) == want, (head, period)


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


class CountedReads(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def test_enumerate_next_reads_few_suffix_links_per_push(monkeypatch):
    # The spine a b^m has m palindromic suffixes.  Walking them all at each
    # push read about 2 million suffix links at max_len 2000, 500 a push.
    links = CountedReads()
    pushes = []

    class CountedTree(palfact.analysis.SharedEertree):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            links.extend(self.link)
            self.link = links

        def push(self, c):
            pushes.append(c)
            return super().push(c)

    monkeypatch.setattr(palfact.analysis, "SharedEertree", CountedTree)
    assert len(enumerate_next([0], 2000)) == 1999
    assert len(pushes) > 3000
    assert links.reads < 2 * len(pushes)


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
