import pytest

from backdet import lasso, nutl, validation
from backdet.automata import Alphabet
from backdet.errors import NoFinalRunError
from backdet.lasso import LassoWord
from backdet.nba import QuotientRunDag, nba_accept_table
from backdet.validation import (
    check_dual,
    check_ltl,
    check_nba,
    check_nutl,
    check_uniqueness,
    exhaustive_lassos,
    exhaustive_lassos_total,
    random_nba,
    random_waa,
)

import random

AB = Alphabet(("a", "b"))


def test_exhaustive_lassos_counts():
    # prefixes: 1 + 2 + 4 = 7, periods: 2 + 4 = 6
    words = list(exhaustive_lassos(AB, u_max=2, v_max=2))
    assert len(words) == 7 * 6
    assert len(set(map(str, words))) == len(words)
    assert LassoWord((), ("a",)) in words


def test_exhaustive_lassos_total_counts():
    words = list(exhaustive_lassos_total(AB, total_max=3))
    for w in words:
        assert 1 <= len(w.prefix) + len(w.period) <= 3
    # totals 1..3: 2 + (4+4) + (8+8+8) = 34
    assert len(words) == 34
    # the lassos of exhaustive_lassos that fit the total, in its order
    for total in range(1, 6):
        kept = [w for w in exhaustive_lassos(AB, total - 1, total) if w.positions <= total]
        assert list(exhaustive_lassos_total(AB, total)) == kept


def test_random_waa_is_weak():
    # construction raises SemanticError on a mixed SCC
    rng = random.Random(0)
    for _ in range(20):
        waa = random_waa(rng, AB, rng.randint(1, 5))
        assert waa.initial


def test_random_nba_valid():
    rng = random.Random(0)
    nba = random_nba(rng, AB, 3)
    assert len(nba.states) == 3
    assert nba.initial


def test_sweeps_deterministic_under_seed():
    a = check_dual(seed=5, count=3)
    b = check_dual(seed=5, count=3)
    assert a.cases == b.cases and a.failures == b.failures
    assert a.cases == 3 * 42


def test_dual_sweep_names_each_position_and_state_that_does_not_flip(monkeypatch):
    # with dualization replaced by the identity, every case fails
    monkeypatch.setattr(validation, "dualize", lambda waa: waa)
    r = check_dual(seed=5, count=1)
    assert r.cases == 42
    assert {(f["word"], f["position"]) for f in r.failures} == {
        (str(w), i) for w in exhaustive_lassos(AB, 2, 2) for i in range(w.positions)
    }
    assert {f["reason"] for f in r.failures} == {"dual automaton agrees instead of flipping"}


def test_ltl_sweep_reports_oracle_mismatches_with_their_formula(monkeypatch):
    # an oracle that accepts nowhere differs wherever some state accepts;
    # the formula semantics still agree with the backward outputs
    monkeypatch.setattr(lasso, "waa_accept_table", lambda waa, w: (frozenset(),) * w.positions)
    r = check_ltl(count=2)
    assert r.failures
    for f in r.failures:
        assert f["reason"] == "output differs from automaton oracle"
        assert f["formula"] and f["oracle"] == [] and f["bda"]


def test_nba_sweep_names_each_position_the_buchi_oracle_misses(monkeypatch):
    # an oracle that accepts nowhere differs from the rank formulas and the
    # pipeline at each position where some state accepts, not only at 0
    drawn = []

    def draw(*args):
        drawn.append(random_nba(*args))
        return drawn[-1]

    monkeypatch.setattr(validation, "random_nba", draw)
    monkeypatch.setattr(validation, "nba_accept_table", lambda _, w: (frozenset(),) * w.positions)
    r = check_nba(seed=13, count=1)
    (drawn_nba,) = drawn
    tables = {str(w): nba_accept_table(drawn_nba, w) for w in exhaustive_lassos_total(AB, 4)}
    accepting = {(w, i, q) for w, t in tables.items() for i, s in enumerate(t) for q in s}
    assert any(i > 0 for _, i, _ in accepting)
    by_reason = {}
    for f in r.failures:
        by_reason.setdefault(f["reason"], set()).add((f["word"], f["position"], f.get("state")))
    assert by_reason == {
        "negated top-level formula disagrees with acceptance": accepting,
        "pipeline language differs": {(w, i, None) for w, i, _ in accepting},
    }


def _no_final_run(bda, w):
    raise NoFinalRunError("no final run", word=w)


# each sweep with one oracle answering wrong: the reasons it must report, and
# whether each names a position
SEMANTICS = "backward output differs from formula semantics"
KLEENE = {"dual formula is not the complement": False,
          "backward outputs differ from Kleene semantics": True,
          "optimized translation changes the language": True}
BUCHI = {"negated top-level formula disagrees with acceptance": True,
         "pipeline language differs": True}


@pytest.mark.parametrize("sweep, owner, attr, wrong, reasons", [
    (lambda: check_ltl(count=2), validation, "ltl_truth_vector",
     lambda real: lambda phi, w: [not t for t in real(phi, w)], {SEMANTICS: True}),
    (lambda: check_nutl(count=10), nutl, "nutl_eval_lasso",
     lambda real: lambda fs, w: [frozenset()] * w.positions, KLEENE),
    (lambda: check_nba(count=2), validation, "nba_accept_table",
     lambda real: lambda nba, w: (frozenset(),) * w.positions, BUCHI),
    (lambda: check_uniqueness(count=3), validation, "count_final_candidates",
     lambda real: lambda bda, w: 2, {"2 final candidates": False}),
    (lambda: check_ltl(count=1), validation, "bda_final_run",
     lambda real: _no_final_run, {"no final run": False}),
    (lambda: check_nutl(count=2), validation, "bda_final_run",
     lambda real: _no_final_run, {"no final run": False}),
    (lambda: check_nba(count=1), validation, "bda_final_run",
     lambda real: _no_final_run, {"no final run": False}),
    (lambda: check_nba(count=2), validation, "peel_ranks",
     lambda real: lambda nba, w: QuotientRunDag(
         {v: r + 2 * len(nba.states) for v, r in real(nba, w).ranks.items()}),
     {"rank out of range": False, "rank formula disagrees with peeling": False}),
], ids=["ltl", "nutl", "nba", "uniqueness", "ltl-no-run", "nutl-no-run", "nba-no-run", "nba-ranks"])
def test_sweeps_report_each_failure_with_its_word_reason_and_position(
        monkeypatch, sweep, owner, attr, wrong, reasons):
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    r = sweep()
    assert not r.ok
    assert {f["reason"] for f in r.failures} == set(reasons)
    for f in r.failures:
        assert f["word"]
        assert ("position" in f) == reasons[f["reason"]], f


def test_ltl_sweep_reports_a_translation_that_is_not_very_weak(monkeypatch):
    monkeypatch.setattr(validation, "is_very_weak", lambda waa: False)
    r = check_ltl(count=1)
    assert [f["reason"] for f in r.failures] == ["translation not very weak"]
    assert r.failures[0]["formula"]


def test_small_sweeps_pass():
    assert check_ltl(count=5).ok
    assert check_dual(count=5).ok
    assert check_nutl(count=5).ok
    assert check_uniqueness(count=5).ok
    assert check_nba(count=2).ok


def test_nutl_sweep_at_its_defaults():
    # the defaults draw greatest fixed points and optimized translations,
    # which count=5 does not; the case count pins the sweep's sizes
    r = check_nutl()
    assert r.ok and r.cases == 1080


def test_uniqueness_sweep_at_its_defaults():
    # up to 4 states: every automaton's product space is enumerated, none
    # skipped, so every sampled automaton meets every lasso
    r = check_uniqueness()
    assert r.ok and r.cases == 720
