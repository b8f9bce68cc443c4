"""Acceptance suite: one test per top-level criterion.

Each test prints a single pass/fail line (visible via pytest -rA or -s) and
asserts the criterion at its stated tolerance (all criteria are exact).
"""

import random

from backdet.automata import Alphabet, NextState, WeakAlternatingAutomaton, is_very_weak
from backdet.construction import INF, BackwardDetAutomaton, basic_step
from backdet.formats import parse_lasso
from backdet.lasso import (
    LassoWord,
    bda_final_run,
    count_final_candidates,
    waa_accept_table,
)
from backdet.ltl import _state_names, ltl_to_waa, ltl_truth_vector, random_ltl
from backdet.nba import nba_accept_table, nba_to_bda
from backdet.node import subterms
from backdet.validation import (
    check_dual,
    check_ltl,
    check_nba,
    exhaustive_lassos,
    exhaustive_lassos_total,
    random_nba,
    random_waa,
)

AB = Alphabet(("a", "b"))


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_main_theorem_equivalence():
    # 200 random formulas (size <= 8, 2 letters, fixed seed) x exhaustive
    # lassos |u| <= 2, |v| <= 3: lambda outputs equal the oracle sets at
    # every quotient position; the case count pins the sweep's sizes
    result = check_ltl(seed=7, count=200)
    report(
        1,
        result.ok and result.cases == 19600,
        f"lambda(r(i)) == oracle on {result.cases} formula/lasso cases "
        f"({len(result.failures)} mismatches)",
    )


def test_ltl_final_run_families_are_the_subformula_truth_sets():
    # the repo's reading of claim (2), optimality for LTL; PAPER.md holds
    # only the abstract, so this is not the paper's definition.  In a very
    # weak automaton every SCC is one state with values {1, inf}, so lambda
    # is a bijection from families to output sets: the final-run family at
    # each position must be the one whose output is the set of subformulas
    # true there.  A prefix of criterion 1's formulas, on its lassos.
    rng = random.Random(7)
    lassos = list(exhaustive_lassos(AB, 2, 3))
    for _ in range(40):
        phi = random_ltl(rng, AB, 8)
        waa = ltl_to_waa(phi, AB)
        bda = BackwardDetAutomaton(waa)
        subformula = {q: g for g, q in _state_names(subterms([phi], children_first=True)).items()}
        assert set(subformula) == set(waa.states)
        for w in lassos:
            truth = {q: ltl_truth_vector(g, w) for q, g in subformula.items()}
            for i, family in enumerate(bda_final_run(bda, w).families):
                true_here = {q for q in waa.states if truth[q][i]}
                assert bda.output(family) == true_here, (str(phi), str(w), i)
                assert family == tuple(
                    INF if (q in waa.recurring) == (q in true_here) else 1 for q in waa.states
                ), (str(phi), str(w), i)


def test_criterion_2_backward_determinism():
    # exhaustive h-cycle enumeration on spaces <= 2^12: exactly one final
    # candidate, never zero, never two
    rng = random.Random(23)
    lassos = list(exhaustive_lassos(AB, 1, 2))
    cases = 0
    bad = []
    for _ in range(60):
        waa = random_waa(rng, AB, rng.randint(1, 4))
        bda = BackwardDetAutomaton(waa)
        if bda.state_space_bound > 1 << 12:
            continue
        for w in lassos:
            cases += 1
            n = count_final_candidates(bda, w)
            if n != 1:
                bad.append((str(w), n))
    for _ in range(40):
        phi = random_ltl(rng, AB, 6)
        bda = BackwardDetAutomaton(ltl_to_waa(phi, AB))
        if bda.state_space_bound > 1 << 12:
            continue
        for w in lassos:
            cases += 1
            n = count_final_candidates(bda, w)
            if n != 1:
                bad.append((str(w), n))
    report(2, not bad, f"exactly one final h-cycle on {cases} cases {bad[:3]}")


def test_criterion_3_bounds():
    rng = random.Random(31)
    ok = True
    detail = []
    for _ in range(50):
        waa = random_waa(rng, AB, rng.randint(1, 5))
        bda = BackwardDetAutomaton(waa)
        expected = 1
        for scc in waa.sccs:
            expected *= (scc.size + 1) ** scc.size
        if bda.state_space_bound != expected or len(bda.buchi_indices) != len(waa.states):
            ok = False
            detail.append("random waa bound mismatch")
    for _ in range(50):
        phi = random_ltl(rng, AB, 8)
        waa = ltl_to_waa(phi, AB)
        bda = BackwardDetAutomaton(waa)
        if not is_very_weak(waa) or bda.state_space_bound != 2 ** len(waa.states):
            ok = False
            detail.append("ltl-derived automaton space is not 2^n")
    report(3, ok, "state-space product, Buchi count |Q|, 2^n for LTL " + " ".join(detail[:2]))


def test_criterion_4_complementation():
    # up to 5 states x exhaustive lassos |u| <= 2, |v| <= 2; the case count
    # pins the sweep's sizes
    result = check_dual(seed=11, count=100)
    report(
        4,
        result.ok and result.cases == 4200,
        f"accepted XOR dual-accepted on {result.cases} automaton/lasso cases",
    )


def test_criterion_5_basic_approach_counterexample():
    waa = WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("q")}, [])
    fixed = [
        f
        for f in [(1,), (INF,)]
        if all(basic_step(waa, letter, f) == f for letter in AB)
    ]
    bda = BackwardDetAutomaton(waa)
    unique = True
    for w in exhaustive_lassos(AB, 1, 2):
        if count_final_candidates(bda, w) != 1:
            unique = False
        run = bda_final_run(bda, w)
        if any(out != frozenset() for out in run.outputs(bda)):
            unique = False
    report(
        5,
        len(fixed) >= 2 and unique,
        f"basic step keeps {len(fixed)} constant runs; full construction "
        "yields a unique final run with empty output",
    )


def test_criterion_6_rank_formulas():
    # >= 50 sampled NBAs with n <= 2 x exhaustive lassos |u|+|v| <= 4:
    # chi truth sets equal the peeling ranks, ranks < 2n or infinite, final
    # tuple matches direct acceptance, and so does the pipeline's final run;
    # the case count pins the sweep's sizes
    result = check_nba(seed=17, count=50)
    report(
        6,
        result.ok and result.cases == 4900,
        f"chi == peeling oracle on {result.cases} NBA/lasso cases "
        f"({len(result.failures)} mismatches)",
    )


def predicted_rank_states(nba):
    """States of the rank-formula automaton, predicted from the NBA.

    A state X{i}_{k} is built when a condition names it: X{2n-1}_{k} for
    every k, the tuple components, and otherwise when some edge p -> q_k
    leaves a state p whose level-i body reads level i, that is when i is
    even or p is not Buchi.
    """
    n = len(nba.states)
    index = {q: j for j, q in enumerate(nba.states)}
    named = {(i, index[q]) for p, _, q in nba.transitions for i in range(2 * n)
             if i % 2 == 0 or p not in nba.buchi}
    return {f"X{2 * n - 1}_{k}" for k in range(n)} | {f"X{i}_{k}" for i, k in named}


def predicted_rank_sccs(nba):
    """SCC partition of the rank-formula automaton, predicted from the NBA.

    Variable X{i}_{j} refers to its own level i only along the NBA's edges
    out of state j, and not at all when i is odd and state j is Buchi. So
    level i splits into the mutual-reachability classes of the NBA's edges:
    over all states at even i, over the non-Buchi states at odd i, with each
    Buchi state a singleton at odd i. The partition is restricted to
    :func:`predicted_rank_states`. Computed by transitive closure, apart
    from the library's own SCC code.
    """
    n = len(nba.states)
    index = {q: j for j, q in enumerate(nba.states)}
    edges = {(index[p], index[q]) for p, _, q in nba.transitions}
    states = predicted_rank_states(nba)
    partition = set()
    for i in range(2 * n):
        live = [j for j in range(n) if i % 2 == 0 or nba.states[j] not in nba.buchi]
        reach = {(j, k) for j, k in edges if j in live and k in live}
        for m in live:
            for j in live:
                for k in live:
                    if (j, m) in reach and (m, k) in reach:
                        reach.add((j, k))
        for j in range(n):
            cls = {j} | {k for k in live if (j, k) in reach and (k, j) in reach}
            partition.add(frozenset(f"X{i}_{k}" for k in cls) & states)
    return partition - {frozenset()}


def test_criterion_7_nba_pipeline():
    # same NBA distribution: language equality through the full pipeline and
    # the intermediate automaton's exact shape: the states X{i}_{j} and the
    # SCC partition predicted from the NBA's edges, so every SCC lies inside
    # one level of n states
    rng = random.Random(17)
    lassos = list(exhaustive_lassos_total(AB, 4))
    lang_bad = []
    shape_bad = []
    cases = 0
    for _ in range(50):
        n = rng.randint(1, 2)
        nba = random_nba(rng, AB, n)
        res = nba_to_bda(nba)
        label = (
            f"NBA states={list(nba.states)} buchi={sorted(nba.buchi)} "
            f"transitions={sorted(nba.transitions)}"
        )
        names = predicted_rank_states(nba)
        if set(res.waa.states) != names:
            shape_bad.append(f"{label}: predicted states {sorted(names)}, actual {sorted(res.waa.states)}")
        expect_sccs = predicted_rank_sccs(nba)
        got_sccs = {frozenset(scc.states) for scc in res.waa.sccs}
        if got_sccs != expect_sccs:
            shape_bad.append(
                f"{label}: predicted SCCs {sorted(map(sorted, expect_sccs))}, "
                f"actual {sorted(map(sorted, got_sccs))}"
            )
        for w in lassos:
            cases += 1
            if res.outputs(bda_final_run(res.bda, w)) != nba_accept_table(nba, w):
                lang_bad.append(str(w))
    ok = not lang_bad and not shape_bad
    report(
        7,
        ok,
        f"language equality on {cases} cases ({len(lang_bad)} mismatches); "
        f"structure violations: {len(shape_bad)} e.g. {shape_bad[:2]}",
    )


def test_nba_pipeline_at_four_states():
    # criterion 7 at n = 4, where an SCC of 4 states has 625 local values:
    # language equality on every lasso |u|+|v| <= 3 and the predicted states
    # and SCC partition
    rng = random.Random(4)
    lassos = list(exhaustive_lassos_total(AB, 3))
    largest = 0
    for _ in range(3):
        nba = random_nba(rng, AB, 4)
        res = nba_to_bda(nba)
        assert set(res.waa.states) == predicted_rank_states(nba)
        assert {frozenset(scc.states) for scc in res.waa.sccs} == predicted_rank_sccs(nba)
        largest = max(largest, *(scc.size for scc in res.waa.sccs))
        for w in lassos:
            assert res.outputs(bda_final_run(res.bda, w)) == nba_accept_table(nba, w), str(w)
    assert largest == 4 and len(lassos) == 34


def test_nba_pipeline_at_five_states():
    # criterion 7 at n = 5, where an SCC of 5 states has 6^5 = 7776 local
    # values: language equality on a few lassos and the predicted SCC
    # partition, on one NBA sparse enough that the answers vary
    nba = random_nba(random.Random(11), AB, 5, 0.3)
    res = nba_to_bda(nba)
    assert {frozenset(scc.states) for scc in res.waa.sccs} == predicted_rank_sccs(nba)
    assert max(scc.size for scc in res.waa.sccs) == 5
    answers = set()
    for text in ("; a", "a ; b", "; a b", "b a ; a b b", "; b", "a b ; b a"):
        w = parse_lasso(text, nba.alphabet)
        expect = nba_accept_table(nba, w)
        assert res.outputs(bda_final_run(res.bda, w)) == expect, text
        answers.update(expect)
    assert len(answers) > 3

def test_criterion_8_quotient_soundness():
    rng = random.Random(41)
    ok = True
    detail = ""
    words = [w for w in exhaustive_lassos(AB, 1, 2)]

    def doubled_index(w, i):
        # map a quotient position of (u, v.v) back to the (u, v) quotient
        if i < w.positions:
            return i
        return w.loop_start + (i - w.loop_start) % len(w.period)

    for _ in range(20):
        waa = random_waa(rng, AB, rng.randint(1, 4))
        bda = BackwardDetAutomaton(waa)
        for w in words:
            w2 = LassoWord(w.prefix, w.period * 2)
            t1 = waa_accept_table(waa, w)
            t2 = waa_accept_table(waa, w2)
            for i in range(w2.positions):
                differ = t2[i] ^ t1[doubled_index(w, i)]
                if differ:
                    ok = False
                    detail = f"oracle differs at {w} pos {i} states {sorted(differ)}"
            r1 = bda_final_run(bda, w)
            r2 = bda_final_run(bda, w2)
            for i in range(w2.positions):
                a = bda.output(r2.families[i])
                b = bda.output(r1.families[doubled_index(w, i)])
                if a != b:
                    ok = False
                    detail = f"lambda outputs differ at {w} pos {i}"
    for _ in range(5):
        nba = random_nba(rng, AB, 2)
        for w in words[:10]:
            w2 = LassoWord(w.prefix, w.period * 2)
            t1 = nba_accept_table(nba, w)
            t2 = nba_accept_table(nba, w2)
            for i in range(w2.positions):
                differ = t2[i] ^ t1[doubled_index(w, i)]
                if differ:
                    ok = False
                    detail = f"nba acceptance differs at {w} pos {i} states {sorted(differ)}"
    report(8, ok, "period doubling changes no per-position answer " + detail)
