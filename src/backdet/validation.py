"""Randomized and exhaustive validation sweeps.

Every sweep pits a construction against an independent semantic route and
collects structured counterexamples in a :class:`CheckReport`; the CLI
check command and the acceptance test suite are thin wrappers around these
functions.  The automaton and Buchi oracles answer in the shape of the
run's outputs, one set of accepting states per position, and the Kleene
evaluator one set of true components per position.  The ltl, nutl and nba
sweeps check each final run in :func:`_check_case`, against the automaton
oracle at every state (:func:`cross_validate`) and the frontend's answer.
"""

from __future__ import annotations

import itertools
import random

from .automata import (
    Alphabet,
    And,
    LetterSet,
    NextState,
    Or,
    WeakAlternatingAutomaton,
    dualize,
    is_very_weak,
)
from .construction import INF, BackwardDetAutomaton
from .errors import FinalRunError, SemanticError
from .lasso import (
    CheckReport,
    LassoWord,
    bda_final_run,
    count_final_candidates,
    cross_validate,
    waa_accept_table,
)
from . import ltl, nutl
from .ltl import ltl_to_waa, ltl_truth_vector, random_ltl
from .nba import NBA, build_rank_formulas, nba_accept_table, nba_to_bda, peel_ranks
from .node import Node

AB = Alphabet(("a", "b"))


def exhaustive_lassos(alphabet: Alphabet, u_max: int, v_max: int):
    """All lassos with |u| <= u_max and 1 <= |v| <= v_max."""
    return _lassos(alphabet, u_max, v_max, u_max + v_max)


def exhaustive_lassos_total(alphabet: Alphabet, total_max: int):
    """All lassos with |u| + |v| <= total_max, in :func:`exhaustive_lassos` order."""
    return _lassos(alphabet, total_max - 1, total_max, total_max)


def _lassos(alphabet, u_max, v_max, total_max):
    # |v| is bounded by v_max and by total_max - |u|, so no lasso is built
    # only to be dropped
    letters = list(alphabet)
    for ulen in range(u_max + 1):
        for u in itertools.product(letters, repeat=ulen):
            for vlen in range(1, min(v_max, total_max - ulen) + 1):
                for v in itertools.product(letters, repeat=vlen):
                    yield LassoWord(u, v)


def random_condition(rng, alphabet, states, depth):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            k = rng.randint(0, len(alphabet))
            return LetterSet(frozenset(rng.sample(list(alphabet), k)))
        return NextState(rng.choice(states))
    op = Or if rng.random() < 0.5 else And
    return op(
        random_condition(rng, alphabet, states, depth - 1),
        random_condition(rng, alphabet, states, depth - 1),
    )


def random_waa(rng, alphabet: Alphabet, n_states: int) -> WeakAlternatingAutomaton:
    """Random automaton, polarity assigned per SCC, hence always weak."""
    states = [f"q{i}" for i in range(n_states)]
    delta = {q: random_condition(rng, alphabet, states, depth=2) for q in states}
    skeleton = WeakAlternatingAutomaton(alphabet, states, delta, recurring=())
    recurring = set()
    for scc in skeleton.sccs:
        if rng.random() < 0.5:
            recurring.update(scc.states)
    initial = {rng.choice(states)}
    return WeakAlternatingAutomaton(alphabet, states, delta, recurring, initial)


def random_nba(rng, alphabet: Alphabet, n_states: int) -> NBA:
    states = [f"q{i}" for i in range(n_states)]
    transitions = [
        (q, a, q2)
        for q in states
        for a in alphabet
        for q2 in states
        if rng.random() < 0.5
    ]
    buchi = [q for q in states if rng.random() < 0.5]
    initial = [rng.choice(states)]
    return NBA(alphabet, states, initial, transitions, buchi)


def _check_case(report, waa, bda, w, read, expected, reason, **context):
    """One case: the final run of ``bda`` (built from ``waa``) on ``w``, or its
    error, against the automaton oracle and, read by ``read``, against the
    frontend's ``expected`` answer per position; each failure has ``context``."""
    report.cases += 1
    try:
        run = bda_final_run(bda, w)
    except FinalRunError as e:
        report.fail(**context, word=str(w), reason=str(e))
        return
    for failure in cross_validate(waa, w, bda, run).failures:
        report.fail(**context, **failure)
    for i, (got, want) in enumerate(zip(read(run), expected, strict=True)):
        if got != want:
            report.fail(**context, word=str(w), position=i, reason=reason, got=got, expected=want)


def check_ltl(seed: int = 7, count: int = 200) -> CheckReport:
    """Main-construction sweep over random formulas.

    For every formula the backward automaton's outputs on every lasso and
    position are compared against both the direct automaton oracle and the
    formula semantics; structural bounds are checked along the way.
    """
    rng = random.Random(seed)
    report = CheckReport("ltl")
    lassos = list(exhaustive_lassos(AB, 2, 3))
    for _ in range(count):
        phi = random_ltl(rng, AB, 8)
        text = ltl.format_ltl(phi)
        waa = ltl_to_waa(phi, AB)
        bda = BackwardDetAutomaton(waa)
        if not is_very_weak(waa):
            report.fail(formula=text, reason="translation not very weak")
            continue
        q_phi = next(iter(waa.initial))
        for w in lassos:
            _check_case(report, waa, bda, w, lambda run: [q_phi in out for out in run.outputs(bda)],
                        ltl_truth_vector(phi, w), "backward output differs from formula semantics",
                        formula=text)
    return report


def check_dual(seed: int = 11, count: int = 100) -> CheckReport:
    """Complementation sweep: acceptance flips under dualization for every
    state and position of every sampled automaton; one case per automaton
    and lasso."""
    rng = random.Random(seed)
    report = CheckReport("dual")
    lassos = list(exhaustive_lassos(AB, 2, 2))
    for _ in range(count):
        waa = random_waa(rng, AB, rng.randint(1, 5))
        dual = dualize(waa)
        for w in lassos:
            report.cases += 1
            table = waa_accept_table(waa, w)
            dual_table = waa_accept_table(dual, w)
            for i, (accepted, dual_accepted) in enumerate(zip(table, dual_table)):
                for q in waa.states:
                    if (q in accepted) == (q in dual_accepted):
                        report.fail(word=str(w), position=i, state=q,
                                    reason="dual automaton agrees instead of flipping")
    return report


def random_nutl(rng, alphabet: Alphabet, depth: int = 3, scope=()) -> Node:
    """Random closed guarded formula: variables only occur under a next
    operator, so every dependence cycle crosses one."""
    letters = list(alphabet)
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        name = rng.choice(letters)
        if scope and rng.random() < 0.4:
            return nutl.Next(nutl.Var(rng.choice(scope)))
        return nutl.Letter(name) if rng.random() < 0.7 else nutl.NegLetter(name)
    if roll < 0.55:
        op = nutl.Or if rng.random() < 0.5 else nutl.And
        return op(
            random_nutl(rng, alphabet, depth - 1, scope),
            random_nutl(rng, alphabet, depth - 1, scope),
        )
    if roll < 0.7:
        return nutl.Next(random_nutl(rng, alphabet, depth - 1, scope))
    r = rng.randint(1, 2)
    names = tuple(f"V{rng.randrange(10**6)}_{k}" for k in range(r))
    bodies = tuple(
        random_nutl(rng, alphabet, depth - 1, scope + names) for _ in range(r)
    )
    kind = nutl.MU if rng.random() < 0.5 else nutl.NU
    return nutl.Fix(kind, rng.randrange(r), names, bodies)


def check_nutl(seed: int = 13, count: int = 60) -> CheckReport:
    """Fixed-point frontend sweep: the backward automaton's outputs against
    the automaton oracle (:func:`cross_validate`) and the Kleene semantics,
    and the dual formula against the complement."""
    rng = random.Random(seed)
    report = CheckReport("nutl")
    lassos = list(exhaustive_lassos(AB, 1, 2))
    produced = 0
    while produced < count:
        phi = random_nutl(rng, AB)
        try:
            waa, (init,) = nutl.nutl_to_waa([phi], AB)
        except SemanticError:
            continue
        produced += 1
        text = nutl.format_nutl(phi)
        bda = BackwardDetAutomaton(waa)
        pair = [phi, nutl.dual_nutl(phi)]
        for w in lassos:
            # component 0 is phi and component 1 its dual at each position
            truth = nutl.nutl_eval_lasso(pair, w)
            if any((0 in s) == (1 in s) for s in truth):
                report.fail(formula=text, word=str(w), reason="dual formula is not the complement")
            _check_case(report, waa, bda, w, lambda run: [init in out for out in run.outputs(bda)],
                        [0 in s for s in truth], "backward outputs differ from Kleene semantics",
                        formula=text)
    return report


def check_nba(seed: int = 17, count: int = 50) -> CheckReport:
    """Rank-formula and end-to-end pipeline sweep for small NBAs; the pipeline
    automaton's run is checked against its automaton oracle too."""
    rng = random.Random(seed)
    report = CheckReport("nba")
    lassos = list(exhaustive_lassos_total(AB, 4))
    for _ in range(count):
        n = rng.randint(1, 2)
        nba = random_nba(rng, AB, n)
        table = build_rank_formulas(nba)
        flat = [f for level in table.chi for f in level]
        pipeline = nba_to_bda(nba)
        for w in lassos:
            dag = peel_ranks(nba, w)
            for v, r in dag.ranks.items():
                if r != INF and not r < 2 * n:
                    report.fail(word=str(w), vertex=v, reason="rank out of range", rank=r)
            # one evaluation of the whole table: chi level by level, then
            # the final tuple
            truth = nutl.nutl_eval_lasso(flat + list(table.final_tuple), w)
            for i in range(2 * n):
                for j, q in enumerate(nba.states):
                    chi_val = frozenset(k for k in range(w.positions) if i * n + j in truth[k])
                    expect = frozenset(
                        k for k in range(w.positions) if dag.ranks[(k, q)] <= i
                    )
                    if chi_val != expect:
                        report.fail(word=str(w), level=i, state=q,
                                    reason="rank formula disagrees with peeling",
                                    formula_value=sorted(chi_val), peeling=sorted(expect))
            direct = nba_accept_table(nba, w)
            for k, accepted in enumerate(direct):
                for j, q in enumerate(nba.states):
                    if (len(flat) + j in truth[k]) != (q in accepted):
                        report.fail(word=str(w), position=k, state=q,
                                    reason="negated top-level formula disagrees with acceptance")
            _check_case(report, pipeline.waa, pipeline.bda, w, pipeline.outputs, direct,
                        "pipeline language differs")
    return report


def check_uniqueness(seed: int = 23, count: int = 40) -> CheckReport:
    """Backward-determinism sweep: exhaustive h-cycle enumeration must find
    exactly one final candidate for every automaton and lasso."""
    rng = random.Random(seed)
    report = CheckReport("uniqueness")
    lassos = list(exhaustive_lassos(AB, 1, 2))
    for _ in range(count):
        waa = random_waa(rng, AB, rng.randint(1, 4))
        bda = BackwardDetAutomaton(waa)
        for w in lassos:
            report.cases += 1
            candidates = count_final_candidates(bda, w)
            if candidates != 1:
                report.fail(word=str(w), reason=f"{candidates} final candidates")
    return report
