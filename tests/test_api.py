"""The names other code binds: the package's public API, and the module
attributes that perfbench/run.py reads or patches.  A rename fails here."""

import dataclasses

import backdet
from backdet import automata, construction, lasso, ltl, nba, nutl
from backdet.automata import Alphabet, NextState, WeakAlternatingAutomaton

PUBLIC = [
    "Alphabet", "And", "BackdetError", "BackwardDetAutomaton", "BackwardRun",
    "FinalRunError", "FormatError", "INF", "LassoWord", "LetterSet",
    "MultipleFinalRunsError", "NBA", "NextState", "NoFinalRunError", "Or",
    "SccInfo", "SemanticError", "StateSpaceCapError", "TransitionRecord",
    "WeakAlternatingAutomaton", "basic_step", "bda_final_run",
    "build_rank_formulas", "count_final_candidates", "cross_validate",
    "dual_nutl", "dualize", "format_bda", "format_condition", "format_nba",
    "format_waa", "is_very_weak", "is_weak", "language_member",
    "ltl_eval_lasso", "ltl_to_waa", "nba_accepts_lasso", "nba_to_bda",
    "nutl_eval_lasso", "nutl_to_waa", "nutl_to_waa_optimized",
    "parse_condition", "parse_lasso", "parse_ltl", "parse_nba", "parse_nutl",
    "parse_waa", "peel_ranks", "validate_weak", "waa_accept_table",
    "waa_accepts_lasso",
]


def test_public_names():
    assert backdet.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(backdet, name), name


def test_backward_run_holds_families_and_acceptance_masks():
    # records are rebuilt on demand through step, outputs decoded from masks
    fields = tuple(f.name for f in dataclasses.fields(backdet.BackwardRun))
    assert fields == ("word", "families", "accepting")
    for method in ("record", "outputs"):
        assert callable(getattr(backdet.BackwardRun, method)), method


def test_benchmark_bound_attributes():
    # the benchmark patches these through the owner's __dict__
    for owner, attr in (
        (automata, "scc_decompose"),
        (construction.BackwardDetAutomaton, "step"),
        (nutl, "nutl_to_waa_optimized"),
        (nutl, "format_nutl"),
        (nba, "build_rank_formulas"),
        (lasso, "waa_accept_table"),
        (ltl, "ltl_truth_vector"),
    ):
        assert callable(owner.__dict__[attr]), attr
    assert isinstance(lasso.DEFAULT_ENUMERATION_CAP, int)


def test_patched_module_globals_are_called(monkeypatch):
    # the traced benchmark replaces these module globals and must see
    # the library's own calls to them
    calls = []

    def wrap(owner, attr):
        inner = getattr(owner, attr)

        def traced(*args):
            calls.append(attr)
            return inner(*args)

        monkeypatch.setattr(owner, attr, traced)

    wrap(automata, "scc_decompose")
    wrap(nutl, "nutl_to_waa_optimized")
    WeakAlternatingAutomaton(Alphabet(("a",)), ["q"], {"q": NextState("q")}, [])
    assert calls == ["scc_decompose"]
    nba.nba_to_bda(nba.NBA(Alphabet(("a",)), ["q"], ["q"], [("q", "a", "q")], ["q"]))
    assert "nutl_to_waa_optimized" in calls
