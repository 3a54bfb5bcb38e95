"""The package's public surface: every export resolves, eagerly or on first
use, to the object its module defines."""

import importlib
import pickle

import pytest

import palfact
import palfact.cli
from palfact import experiments

# Every name palfact exports, by defining module.
EXPORTS = {
    "analysis": ["BoundReport", "Classification", "NextSet", "alphabet_bound_check",
                 "bound_report", "classify_bound2", "enumerate_next",
                 "verify_next_closed_forms"],
    "eertree": ["PalindromeIndex"],
    "engine": ["GapSequence", "PalindromicPrefixSeq", "gap_sequence",
               "palindromic_prefixes", "product_of_two_palindromes"],
    "errors": ["AmbiguousHorizon", "CapExceeded", "PalfactError", "ParseError",
               "SearchCapExceeded"],
    "experiments": ["ExperimentResult", "build_gap_word",
                    "deletion_monotonicity_check", "ladder_experiment",
                    "max_prefix_count", "prefix_floor_experiment",
                    "prefix_floor_witness", "run_suites", "search_prefix_floor",
                    "verify_multibonacci", "verify_occurrence_balance",
                    "verify_u_suffixes"],
    "greedy": ["gap_witness", "greedy_profile", "lgpal", "lgpal_profile", "rgpal",
               "rgpal_profile"],
    "pallen": ["MinimalFactorizations", "PalPrefixTable", "first_attainment",
               "minimal_factorizations", "pal_dp", "pal_fast"],
    "profiles": ["PrefixProfile", "build_profile"],
    "streams": ["DEFAULT_CAP", "EventuallyPeriodic", "InfiniteWord",
                "MorphismFixedPoint", "Periodic", "closure_power_stream",
                "fibonacci_stream", "multibonacci", "multibonacci_stream",
                "parse_spec", "u_ladder", "u_ladder_periodic", "word_u_component",
                "word_u_stream"],
    "words": ["Decomposition", "Word", "count_occurrences", "is_palindrome",
              "is_primitive", "mirror", "render", "render_style"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                         for n in names])
def test_each_export_is_its_modules_object(module, name):
    defined = getattr(importlib.import_module(f"palfact.{module}"), name)
    assert getattr(palfact, name) is defined


def test_all_and_dir_list_every_export():
    assert sorted(palfact.__all__) == NAMES
    assert set(NAMES) <= set(dir(palfact))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from palfact import *", namespace)
    assert all(namespace[name] is getattr(palfact, name) for name in NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'primitive_root'"):
        palfact.primitive_root
    assert not hasattr(palfact, "SUITES")


def test_help_suite_names_match_the_suite_tables():
    assert palfact.cli._HELP_SUITES == {
        "verify": tuple(sorted(experiments.SUITES)),
        "experiments": experiments.EXPERIMENTS,
    }


def test_deferred_exports_do_not_keep_a_tracer_wrapper():
    # a deferred export read while the benchmark's tracer was installed used
    # to be cached in the package, and the tracer's undo did not reach it
    from test_tracer import load_tracer

    tracer = load_tracer()
    patches = tracer.install(tracer.Recorder())
    try:
        assert palfact.bound_report is palfact.analysis.bound_report
    finally:
        patches.undo()
    assert palfact.bound_report is palfact.analysis.bound_report
    assert "bound_report" not in vars(palfact)


def test_records_keep_their_constructors_and_pickle():
    # verify's workers return results through a process pool, so the
    # records must survive pickling
    spans = ((1, 3), (4, 4))
    dec = palfact.Decomposition(spans=spans)
    table = palfact.PalPrefixTable(values=(0, 1, 2))
    facts = palfact.MinimalFactorizations(palfact.Word("abaa"), 2, (dec,), False,
                                          left_greedy=dec, right_greedy=dec)
    profile = palfact.PrefixProfile("lit:ab", [1, 2], [1, 2], [1, 2])
    assert profile.first_attainment == {}
    profile.first_attainment[1] = 1
    assert palfact.PrefixProfile("lit:a", [1], [1], [1]).first_attainment == {}
    # the records of bounds and next are plain classes too
    word = palfact.Word("ab")
    report = palfact.BoundReport("lit:ab", 2, 1, 2, 1)
    assert report.verdicts == {}
    report.verdicts["x"] = "pass"
    assert palfact.BoundReport("lit:a", 1, 1, 1, 1).verdicts == {}
    cls = palfact.Classification("lit:ab", 2, True, 2, "a^w", {"a": 0}, (0, 1),
                                 report=report)
    ns = palfact.NextSet(word, 4, (palfact.Word("aba"),), ())
    assert (list(ns), len(ns)) == ([(0, 1, 0)], 1)
    verdict = palfact.analysis.ItemVerdict(item=1, params={"i": 1}, base=word,
                                           expected=(), observed=(), open_count=0,
                                           status="pass")
    assert verdict.counterexample is None
    seq = palfact.PalindromicPrefixSeq("lit:aba", 3, (1, 3))
    assert (list(seq), len(seq)) == ([1, 3], 2)
    gaps = palfact.GapSequence(gaps=(2, 2, 2), monotone=True)
    assert gaps.stabilized_gap() == 2
    for record in (dec, table, facts, profile, report, ns, verdict, seq, gaps):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert all(getattr(copy, name) == getattr(record, name)
                   for name in type(record).__slots__)
    assert dec == palfact.Decomposition(spans) != palfact.Decomposition(spans[:1])
    copy = pickle.loads(pickle.dumps(cls))
    assert copy.report.verdicts == {"x": "pass"}
    assert copy.to_json() == cls.to_json()
