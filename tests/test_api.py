"""The names other code binds: the package's public API, and the module
attributes that perfbench/run.py reads or patches.  A rename fails here, and
so does a name that a module imports and never reads, or defines and no
code names."""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

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
    "format_waa", "is_very_weak", "ltl_to_waa", "nba_accepts_lasso",
    "nba_to_bda", "nutl_eval_lasso", "nutl_to_waa", "nutl_to_waa_optimized",
    "parse_condition", "parse_lasso", "parse_ltl", "parse_nba", "parse_nutl",
    "parse_waa", "peel_ranks", "waa_accept_table",
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
    # the benchmark binds these package names at import, so dropping one
    # from the API fails here and not only in a benchmark run
    for name in (
        "parse_lasso", "parse_nba", "parse_ltl", "ltl_to_waa", "parse_nutl",
        "nutl_to_waa", "nutl_to_waa_optimized", "nutl_eval_lasso",
        "build_rank_formulas", "nba_to_bda", "peel_ranks", "nba_accepts_lasso",
        "bda_final_run", "cross_validate", "Alphabet", "BackwardDetAutomaton",
        "BackdetError", "NoFinalRunError", "MultipleFinalRunsError",
    ):
        assert callable(getattr(backdet, name)), name
    # and reads or patches these through the owner's __dict__
    for owner, attr in (
        (backdet.BackwardRun, "outputs"),
        (automata, "scc_decompose"),
        (construction.BackwardDetAutomaton, "step"),
        (nutl, "nutl_to_waa_optimized"),
        (nutl, "format_nutl"),
        (nba, "build_rank_formulas"),
        (lasso, "waa_accept_table"),
        (ltl, "ltl_truth_vector"),
    ):
        assert callable(owner.__dict__[attr]), attr
    # there is one fixed-point translation, under both names
    assert nutl.nutl_to_waa_optimized is nutl.nutl_to_waa
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


def test_every_imported_name_is_read():
    # each name an import binds in src/backdet and tests/ is read somewhere
    # in its module, or listed in its __all__; __future__ imports bind none
    root = Path(__file__).resolve().parent.parent
    unread = []
    for path in sorted([*(root / "src" / "backdet").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {
            elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}
        unread += [f"{path.relative_to(root)}:{line} {name}" for name, line in bound.items()
                   if name not in read | exported]
    assert not unread, unread


def test_every_definition_is_named_elsewhere():
    # each top-level function or class in src/backdet, and each method that
    # is not a dunder, is named as a word in src/backdet, tests or perfbench
    # more often than it is defined
    root = Path(__file__).resolve().parent.parent
    words = Counter(word for d in ("src/backdet", "tests", "perfbench") for p in (root / d).glob("*.py")
                    for word in re.findall(r"\w+", p.read_text()))
    defined = {}
    for path in sorted((root / "src" / "backdet").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body
                   if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
        for node in tree.body + methods:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    unnamed = [(name, where) for name, where in defined.items() if words[name] <= len(where)]
    assert not unnamed, unnamed
