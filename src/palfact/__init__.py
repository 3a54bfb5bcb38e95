"""Palindromic factorization toolkit.

Minimum and greedy palindromic factor counts of finite words and stream
prefixes, eertree indexing, closed-form classification of streams whose
prefixes stay within two palindromic factors, and verification suites for
the named word families (the doubling words, the shifted-alphabet ladder and
the uniformly recurrent word U).
"""

from .analysis import (
    BoundReport,
    Classification,
    NextSet,
    alphabet_bound_check,
    bound_report,
    classify_bound2,
    enumerate_next,
    verify_next_closed_forms,
)
from .eertree import PalindromeIndex
from .engine import (
    GapSequence,
    PalindromicPrefixSeq,
    gap_sequence,
    palindromic_prefixes,
    product_of_two_palindromes,
)
from .errors import (
    AmbiguousHorizon,
    CapExceeded,
    PalfactError,
    ParseError,
    SearchCapExceeded,
)
from .experiments import (
    ExperimentResult,
    prefix_floor_experiment,
    build_gap_word,
    max_prefix_count,
    ladder_experiment,
    deletion_monotonicity_check,
    run_suites,
    search_prefix_floor,
    verify_occurrence_balance,
    verify_multibonacci,
    verify_u_suffixes,
    prefix_floor_witness,
)
from .greedy import (
    GreedyProfile,
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
    primitive_root,
    render,
    render_style,
)

__version__ = "0.1.0"
