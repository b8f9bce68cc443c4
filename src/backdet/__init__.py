"""Backward determinization of weak alternating omega-automata.

The central construction turns a weak alternating automaton into an
equivalent backward deterministic automaton whose per-position outputs name
the states accepting each suffix.  Frontends translate LTL formulas,
alternation-free linear-time fixed-point formulas, and nondeterministic
Buchi automata into the weak alternating form; a lasso-word engine computes
final runs and checks them against direct semantic oracles.
"""

from .automata import (
    Alphabet,
    And,
    LetterSet,
    NextState,
    Or,
    SccInfo,
    WeakAlternatingAutomaton,
    dualize,
    is_very_weak,
)
from .construction import INF, BackwardDetAutomaton, TransitionRecord
from .errors import (
    BackdetError,
    FinalRunError,
    FormatError,
    MultipleFinalRunsError,
    NoFinalRunError,
    SemanticError,
    StateSpaceCapError,
)
from .formats import (
    format_bda,
    format_condition,
    format_waa,
    parse_condition,
    parse_lasso,
    parse_nba,
    parse_waa,
)
from .lasso import (
    BackwardRun,
    LassoWord,
    bda_final_run,
    count_final_candidates,
    cross_validate,
    waa_accept_table,
)
from .ltl import ltl_to_waa, parse_ltl
from .nba import NBA, build_rank_formulas, nba_accepts_lasso, nba_to_bda, peel_ranks
from .nutl import (
    dual_nutl,
    nutl_eval_lasso,
    nutl_to_waa,
    nutl_to_waa_optimized,
    parse_nutl,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "And",
    "BackdetError",
    "BackwardDetAutomaton",
    "BackwardRun",
    "FinalRunError",
    "FormatError",
    "INF",
    "LassoWord",
    "LetterSet",
    "MultipleFinalRunsError",
    "NBA",
    "NextState",
    "NoFinalRunError",
    "Or",
    "SccInfo",
    "SemanticError",
    "StateSpaceCapError",
    "TransitionRecord",
    "WeakAlternatingAutomaton",
    "bda_final_run",
    "build_rank_formulas",
    "count_final_candidates",
    "cross_validate",
    "dual_nutl",
    "dualize",
    "format_bda",
    "format_condition",
    "format_waa",
    "is_very_weak",
    "ltl_to_waa",
    "nba_accepts_lasso",
    "nba_to_bda",
    "nutl_eval_lasso",
    "nutl_to_waa",
    "nutl_to_waa_optimized",
    "parse_condition",
    "parse_lasso",
    "parse_ltl",
    "parse_nba",
    "parse_nutl",
    "parse_waa",
    "peel_ranks",
    "waa_accept_table",
]
