"""Palindromic factorization toolkit.

Minimum and greedy palindromic factor counts of finite words and stream
prefixes, eertree indexing, closed-form classification of streams whose
prefixes stay within two palindromic factors, and verification suites for
the named word families (the doubling words, the shifted-alphabet ladder and
the uniformly recurrent word U).

The exports of ``analysis``, ``engine`` and ``experiments`` resolve on first
use, so importing the package, or the command line, does not load them.
"""

from types import ModuleType as _ModuleType

from .eertree import PalindromeIndex
from .errors import (
    AmbiguousHorizon,
    CapExceeded,
    PalfactError,
    ParseError,
    SearchCapExceeded,
)
from .greedy import (
    gap_witness,
    greedy_profile,
    lgpal,
    lgpal_profile,
    rgpal,
    rgpal_profile,
)
from .pallen import (
    MinimalFactorizations,
    PalPrefixTable,
    first_attainment,
    minimal_factorizations,
    pal_dp,
    pal_fast,
)
from .profiles import PrefixProfile, build_profile
from .streams import (
    DEFAULT_CAP,
    EventuallyPeriodic,
    InfiniteWord,
    MorphismFixedPoint,
    Periodic,
    closure_power_stream,
    fibonacci_stream,
    multibonacci,
    multibonacci_stream,
    parse_spec,
    u_ladder,
    u_ladder_periodic,
    word_u_component,
    word_u_stream,
)
from .words import (
    Decomposition,
    Word,
    count_occurrences,
    is_palindrome,
    is_primitive,
    mirror,
    render,
    render_style,
)

# Exports whose modules load on first use (PEP 562): the module of each name.
_DEFERRED = {
    **dict.fromkeys((
        "BoundReport",
        "Classification",
        "NextSet",
        "alphabet_bound_check",
        "bound_report",
        "classify_bound2",
        "enumerate_next",
        "verify_next_closed_forms",
    ), "analysis"),
    **dict.fromkeys((
        "GapSequence",
        "PalindromicPrefixSeq",
        "gap_sequence",
        "palindromic_prefixes",
        "product_of_two_palindromes",
    ), "engine"),
    **dict.fromkeys((
        "ExperimentResult",
        "prefix_floor_experiment",
        "build_gap_word",
        "max_prefix_count",
        "ladder_experiment",
        "deletion_monotonicity_check",
        "run_suites",
        "search_prefix_floor",
        "verify_occurrence_balance",
        "verify_multibonacci",
        "verify_u_suffixes",
        "prefix_floor_witness",
    ), "experiments"),
}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_DEFERRED))

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # not cached in globals(): a name read while a wrapper is patched into
    # its module would outlive the patch
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DEFERRED.keys())
