import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from backdet.automata import Alphabet, And, LetterSet, NextState, Or, WeakAlternatingAutomaton
from backdet.construction import INF, BackwardDetAutomaton
from backdet.dot import period_graph_to_dot
from backdet.errors import FinalRunError, MultipleFinalRunsError, NoFinalRunError
from backdet.formats import format_bda, parse_waa
from backdet.lasso import (
    DEFAULT_ENUMERATION_CAP,
    LassoWord,
    _final_boundaries,
    _final_candidates,
    bda_final_run,
    count_final_candidates,
    cross_validate,
    language_member,
    waa_accept_table,
    waa_accepts_lasso,
)
from backdet.ltl import ltl_to_waa, ltl_truth_vector, parse_ltl, random_ltl
from backdet.nba import nba_accept_table, nba_to_bda
from backdet.validation import exhaustive_lassos, random_nba, random_waa

AB = Alphabet(("a", "b"))


def test_lasso_quotient_mechanics():
    w = LassoWord(("b",), ("a", "b"))
    assert w.positions == 3
    assert w.loop_start == 1
    assert [w.letter(i) for i in range(5)] == ["b", "a", "b", "a", "b"]
    assert w.succ(0) == 1
    assert w.succ(2) == 1
    assert str(w) == "b ; a b"
    with pytest.raises(ValueError):
        LassoWord(("a",), ())


@st.composite
def lassos_and_masks(draw):
    letters = st.sampled_from("ab")
    w = LassoWord(draw(st.lists(letters, max_size=6)), draw(st.lists(letters, min_size=1, max_size=6)))
    return w, draw(st.integers(0, (1 << w.positions) - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lassos_and_masks())
def test_mask_primitives_follow_the_quotient_rule(case):
    # bit i stands for position i; "c" occurs in no word
    w, s = case
    positions = range(w.positions)
    assert w.full == (1 << w.positions) - 1
    for a in "abc":
        assert w.mask(a) == sum(1 << i for i in positions if w.letter(i) == a)
    assert w.pre(s) == sum(1 << i for i in positions if s >> w.succ(i) & 1)


def test_unrolled_same_word():
    w = LassoWord(("b",), ("a",))
    w2 = LassoWord(w.prefix, w.period * 3)
    assert w2.period == ("a", "a", "a")
    assert [w2.letter(i) for i in range(6)] == [w.letter(i) for i in range(6)]


def test_accept_table_eventually():
    waa = ltl_to_waa(parse_ltl("F a", AB), AB)
    w = LassoWord(("b",), ("a", "b"))
    assert waa_accept_table(waa, w) == ({"q_F_a"}, {"q_F_a", "q_a"}, {"q_F_a"})
    assert not waa_accepts_lasso(waa, "q_F_a", LassoWord((), ("b",)), 0)


def test_accept_table_always():
    waa = ltl_to_waa(parse_ltl("G a", AB), AB)
    assert waa_accepts_lasso(waa, "q_G_a", LassoWord((), ("a",)), 0)
    assert not waa_accepts_lasso(waa, "q_G_a", LassoWord(("a",), ("b", "a")), 0)


def test_accepts_lasso_rejects_unknown_position_and_state():
    waa = ltl_to_waa(parse_ltl("G a", AB), AB)
    w = LassoWord((), ("a",))
    with pytest.raises(ValueError, match="position 1 outside quotient range"):
        waa_accepts_lasso(waa, "q_G_a", w, 1)
    with pytest.raises(ValueError, match="unknown state 'q_F_a'"):
        waa_accepts_lasso(waa, "q_F_a", w, 0)


def test_final_run_eventually_frozen_families():
    waa = ltl_to_waa(parse_ltl("F a", AB), AB)
    bda = BackwardDetAutomaton(waa)

    run = bda_final_run(bda, LassoWord((), ("b",)))
    assert run.families == ((INF, INF),)
    assert run.outputs(bda) == (frozenset(),)

    run = bda_final_run(bda, LassoWord(("b",), ("a", "b")))
    assert [bda.format_family(f) for f in run.families] == [
        "q_F_a=1 q_a=inf",
        "q_F_a=1 q_a=1",
        "q_F_a=1 q_a=inf",
    ]
    assert run.outputs(bda) == (
        frozenset({"q_F_a"}),
        frozenset({"q_F_a", "q_a"}),
        frozenset({"q_F_a"}),
    )


def test_final_run_always_frozen_families():
    waa = ltl_to_waa(parse_ltl("G a", AB), AB)
    bda = BackwardDetAutomaton(waa)
    run = bda_final_run(bda, LassoWord(("a",), ("b", "a")))
    assert [bda.format_family(f) for f in run.families] == [
        "q_G_a=1 q_a=1",
        "q_G_a=1 q_a=inf",
        "q_G_a=1 q_a=1",
    ]


def test_self_loop_unique_final_run_empty_output():
    waa = WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("q")}, [])
    bda = BackwardDetAutomaton(waa)
    for w in (LassoWord((), ("a",)), LassoWord(("b",), ("a", "b"))):
        assert count_final_candidates(bda, w) == 1
        run = bda_final_run(bda, w)
        assert all(out == frozenset() for out in run.outputs(bda))


def assert_outputs_and_fired(bda, run):
    """The outputs decoded from the run's acceptance masks are lambda of its
    families, and the loop's transitions fire every Buchi index of every
    SCC (the final cycle has length one)."""
    assert run.outputs(bda) == tuple(bda.output(f) for f in run.families)
    w = run.word
    fired = set().union(*(run.record(bda, i).fired for i in range(w.loop_start, w.positions)))
    assert fired >= set(bda.buchi_indices), (str(w), set(bda.buchi_indices) - fired)


def test_final_run_matches_product_space_search():
    # the SCC-by-SCC search against the whole product space's h-cycles:
    # random weak automata with bound <= 2^12, every lasso |u| <= 2, |v| <= 2
    rng = random.Random(4)
    lassos = list(exhaustive_lassos(AB, 2, 2))
    automata = 0
    while automata < 25:
        waa = random_waa(rng, AB, rng.randint(1, 5))
        bda = BackwardDetAutomaton(waa)
        if bda.state_space_bound > 1 << 12:
            continue
        automata += 1
        for w in lassos:
            (boundary,) = _final_boundaries(bda, w, 1 << 12)
            run = bda_final_run(bda, w)
            cur = boundary
            for i in range(w.positions - 1, -1, -1):
                rec = bda.step(w.letter(i), cur)
                assert run.record(bda, i) == rec, (str(w), i)
                assert run.families[i] == rec.result
                cur = rec.result
            assert cur == run.families[0] and run.families[w.loop_start] == boundary
            assert_outputs_and_fired(bda, run)


def test_no_final_run_error_mentions_word():
    # recurrence violated only when firing is artificially impossible: a
    # recurring self-loop state with delta = X q accepts everywhere, so
    # instead check the error path via a doctored Buchi index set
    waa = WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("q")}, [])
    bda = BackwardDetAutomaton(waa)
    bda.buchi_indices = bda.buchi_indices + ((0, 99),)
    w = LassoWord((), ("a",))
    with pytest.raises(NoFinalRunError) as err:
        bda_final_run(bda, w)
    assert err.value.word == w and err.value.scc == 0
    assert str(w) in str(err.value)


def test_multiple_final_runs_error_names_word_and_scc():
    # without the Buchi indices of q_G_F_a's SCC, which reads q_F_a's SCC
    # below it, both of its constant runs on a^omega (1 and inf) are final
    waa = ltl_to_waa(parse_ltl("G F a", AB), AB)
    bda = BackwardDetAutomaton(waa)
    s = waa.scc_of("q_G_F_a")
    assert s > waa.scc_of("q_F_a")
    bda.buchi_indices = tuple(index for index in bda.buchi_indices if index[0] != s)
    w = LassoWord(("b",), ("a",))
    with pytest.raises(MultipleFinalRunsError) as err:
        bda_final_run(bda, w)
    assert (err.value.word, err.value.scc, err.value.count) == (w, s, 2)
    assert err.value.candidates == ((1,), (INF,))
    assert str(err.value) == f"2 final runs on {w} in SCC {s}: q_G_F_a=1, q_G_F_a=inf"
    assert count_final_candidates(bda, w) == 2


def test_multiple_final_runs_are_listed_in_code_order():
    # one non-recurring SCC of 4 states without its Buchi indices: on a^omega
    # q0 and q2 repeat one value and q1 and q3 another, so 25 constant runs
    # are final, listed in local-code order whatever order the search meets
    # them in
    waa = parse_waa(
        "alphabet: a b\nstates: q0 q1 q2 q3\nrecurring:\n"
        "delta q0 = (X q0 | [a b]) & (X q3 | X q1)\n"
        "delta q1 = ([a b] | [b]) & X q2\n"
        "delta q2 = (X q0 | [a b]) & (X q1 & X q1)\n"
        "delta q3 = X q2 | [b] & [a b]\n"
    )
    bda = BackwardDetAutomaton(waa)
    assert [scc.size for scc in waa.sccs] == [4]
    bda.buchi_indices = ()
    w = LassoWord((), ("a",))
    with pytest.raises(MultipleFinalRunsError) as err:
        bda_final_run(bda, w)
    domain = (1, 2, 3, 4, INF)
    assert err.value.candidates == tuple((x, y, x, y) for x in domain for y in domain)
    assert str(err.value).startswith(
        f"25 final runs on {w} in SCC 0: q0=1 q1=1 q2=1 q3=1, q0=1 q1=2 q2=1 q3=2, q0=1 q1=3 q2=1 q3=3,")
    assert count_final_candidates(bda, w) == 25


def test_final_candidates_answer_a_single_start_directly():
    # every image of h lies among the starts, so a single start is its own
    # image and h's only cycle: it is final iff one period from it fires
    # every needed index; fired values come as int masks (the SCC-by-SCC
    # run) or as sets of Buchi indices (the product-space reference)
    masks = (0b101, 0b111, 0b011)
    sets = (frozenset({(0, 1), (1, 1)}), frozenset({(0, 1), (0, 2), (1, 1)}), frozenset({(0, 1), (0, 2)}))
    for need, fires, misses in (masks, sets):
        for fired, finals in ((fires, ["x"]), (misses, [])):
            got = _final_candidates(["x"], lambda start: (start, fired), need)
            assert got == (finals, {"x": "x"}, [["x"]]), (need, fired)
        assert _final_candidates(["x"], lambda start: (start, misses), type(need)())[0] == ["x"]


def test_cross_validate_mismatch_reporting():
    waa = ltl_to_waa(parse_ltl("F a", AB), AB)
    w = LassoWord((), ("a", "b"))
    report = cross_validate(waa, w)
    assert report.ok and not report.failures and report.cases == 2
    # a run of ; b a has the same quotient length, and q_a accepts at the
    # other position
    bda = BackwardDetAutomaton(waa)
    report = cross_validate(waa, w, bda, bda_final_run(bda, LassoWord((), ("b", "a"))))
    assert report.ok is False and report.cases == 2
    pinned = [{k: f[k] for k in ("word", "position", "oracle", "bda", "family")} for f in report.failures]
    assert pinned == [
        {"word": " ; a b", "position": 0, "oracle": ["q_F_a", "q_a"], "bda": ["q_F_a"],
         "family": "q_F_a=1 q_a=inf"},
        {"word": " ; a b", "position": 1, "oracle": ["q_F_a"], "bda": ["q_F_a", "q_a"],
         "family": "q_F_a=1 q_a=1"},
    ]


def test_language_member_waa_and_bda():
    waa = ltl_to_waa(parse_ltl("F a", AB), AB)
    bda = BackwardDetAutomaton(waa)
    w_yes = LassoWord(("b",), ("a",))
    w_no = LassoWord((), ("b",))
    assert language_member(waa, w_yes)
    assert not language_member(waa, w_no)
    assert language_member(bda, w_yes)
    assert not language_member(bda, w_no)


def test_multiple_final_runs_error_carries_count():
    err = MultipleFinalRunsError("3 final runs on a ; b", 3)
    assert isinstance(err, FinalRunError)
    assert err.count == 3
    assert str(err) == "3 final runs on a ; b"
    assert err.word is None and err.scc is None and err.candidates == ()
    w = LassoWord(("a",), ("b",))
    err = NoFinalRunError("no final run", word=w, scc=2)
    assert (err.word, err.scc, str(err)) == (w, 2, "no final run")


def test_final_runs_above_the_cap_match_the_ltl_semantics():
    # LTL automata of 17-40 states (bound 2^17 and more) on random lassos:
    # every answer exists and agrees with the formula and the WAA oracle
    rng = random.Random(11)
    formulas = 0
    while formulas < 30:
        phi = random_ltl(rng, AB, rng.randint(25, 60))
        waa = ltl_to_waa(phi, AB)
        if not 17 <= len(waa.states) <= 40:
            continue
        formulas += 1
        bda = BackwardDetAutomaton(waa)
        assert bda.state_space_bound > DEFAULT_ENUMERATION_CAP
        (q_phi,) = waa.initial
        for _ in range(8):
            w = _random_lasso(rng, 4, 6)
            run = bda_final_run(bda, w)
            table = waa_accept_table(waa, w)
            outs = run.outputs(bda)
            for i, (out, truth) in enumerate(zip(outs, ltl_truth_vector(phi, w))):
                assert out == table[i], (str(phi), str(w), i)
                assert (q_phi in out) == truth, (str(phi), str(w), i)


def test_final_runs_above_the_cap_match_the_nba_semantics():
    # 3-state Buchi automata through the rank-formula pipeline (18 states,
    # bound above the cap) on random lassos, against the Buchi oracle at
    # every position
    rng = random.Random(12)
    for _ in range(6):
        nba = random_nba(rng, AB, 3)
        res = nba_to_bda(nba)
        assert res.bda.state_space_bound > DEFAULT_ENUMERATION_CAP
        for _ in range(15):
            w = _random_lasso(rng, 3, 5)
            assert res.outputs(bda_final_run(res.bda, w)) == nba_accept_table(nba, w), str(w)


def _random_lasso(rng, u_max, v_max):
    letters = list(AB)
    u = [rng.choice(letters) for _ in range(rng.randint(0, u_max))]
    v = [rng.choice(letters) for _ in range(rng.randint(1, v_max))]
    return LassoWord(u, v)


def test_step_memo_stays_within_its_bound():
    # many lassos on one long-lived automaton, through every path that
    # steps it (final runs, the product-space reference, the transition
    # table, the period graph): each SCC's memo holds at most
    # |alphabet| * 2^(outside states read) rows, one per letter and outside
    # acceptance bits, each of length (m+1)^m, and it is the only memo the
    # automaton keeps; the value tables have one entry per local code
    rng = random.Random(5)
    while True:
        random_bda = BackwardDetAutomaton(random_waa(rng, AB, 5))
        sccs = random_bda.waa.sccs
        if (random_bda.state_space_bound <= 1 << 10 and max(scc.size for scc in sccs) > 1
                and any(random_bda.outside_mask)):
            break
    # q reads r, which reads p, and p accepts where the letter is a: a row
    # key of q that carried p's acceptance would show
    delta = {"p": LetterSet({"a"}), "r": Or(NextState("p"), NextState("r")),
             "q": And(NextState("q"), NextState("r"))}
    chain = BackwardDetAutomaton(WeakAlternatingAutomaton(AB, ["p", "q", "r"], delta, []))
    assert [scc.states for scc in chain.waa.sccs] == [("p",), ("r",), ("q",)]
    for bda in (random_bda, chain):
        for _ in range(400):
            bda_final_run(bda, _random_lasso(rng, 6, 8))
        for _ in range(20):
            w = _random_lasso(rng, 3, 4)
            assert count_final_candidates(bda, w) == 1
            assert period_graph_to_dot(bda, w).startswith("digraph period")
        assert f"families: {bda.state_space_bound}" in format_bda(bda, 1 << 10)
        for s, scc in enumerate(bda.waa.sccs):
            mask = bda.outside_mask[s]
            rows = bda.scc_memo[s]
            assert 0 < len(rows) <= len(AB) * 2 ** bin(mask).count("1")
            for (letter, outside), row in rows.items():
                assert letter in AB.letters and outside & ~mask == 0
                assert len(row) == (scc.size + 1) ** scc.size and None not in row
            assert len(bda.scc_tables[s].values) == (scc.size + 1) ** scc.size
        assert set(vars(bda)) == {"waa", "state_pos", "buchi_indices", "outside_mask", "scc_tables", "scc_memo"}


def test_final_runs_of_random_weak_automata_match_the_oracle():
    # random weak automata of both polarities, SCCs of up to 4 states, on
    # every lasso |u| <= 2, |v| <= 2: the outputs equal the WAA oracle's
    rng = random.Random(6)
    lassos = list(exhaustive_lassos(AB, 2, 2))
    polarities = set()
    automata = 0
    while automata < 150:
        waa = random_waa(rng, AB, rng.randint(1, 5))
        if max(scc.size for scc in waa.sccs) > 4:
            continue
        automata += 1
        polarities |= {scc.recurring for scc in waa.sccs}
        bda = BackwardDetAutomaton(waa)
        for w in lassos:
            report = cross_validate(waa, w, bda)
            assert report.ok, report.failures
    assert polarities == {True, False}


def test_final_runs_above_the_cap_of_five_state_sccs_match_the_oracle():
    # fixed-seed weak automata with one 5-state and one 2-state SCC, so the
    # product space is 6^5 * 3^2 = 69984 families, above the cap; the
    # 5-state SCC comes in both polarities, on every lasso |u| <= 1, |v| <= 2;
    # the families of the final run are a run of step
    rng = random.Random(6)
    lassos = list(exhaustive_lassos(AB, 1, 2))
    polarities = set()
    while len(polarities) < 2:
        waa = random_waa(rng, AB, 7)
        if sorted(scc.size for scc in waa.sccs) != [2, 5]:
            continue
        polarities.add(next(scc.recurring for scc in waa.sccs if scc.size == 5))
        bda = BackwardDetAutomaton(waa)
        assert bda.state_space_bound == 6**5 * 3**2 > DEFAULT_ENUMERATION_CAP
        for w in lassos:
            run = bda_final_run(bda, w)
            for i in range(w.positions):
                assert run.record(bda, i).result == run.families[i], (str(w), i)
            assert_outputs_and_fired(bda, run)
            report = cross_validate(waa, w, bda, run)
            assert report.ok, report.failures


@st.composite
def interleaved_large_scc_automata(draw):
    """A weak automaton with one SCC of 4 or 5 states among SCCs of 1 or 2
    states, its product space above the cap, and one to three lassos.  The
    SCCs are listed lower first, each reads its own and lower SCCs' states
    and the letters; a ring through each SCC's states keeps it one SCC.  The
    large SCC's states take every other place in the sorted state order, so
    they interleave with the states of the others."""
    big = draw(st.integers(4, 5))
    sizes = draw(st.lists(st.integers(1, 2), min_size=big, max_size=big + 2))
    while (big + 1) ** big * math.prod((m + 1) ** m for m in sizes) <= DEFAULT_ENUMERATION_CAP:
        sizes.append(1)
    at = draw(st.integers(0, len(sizes)))
    sizes.insert(at, big)
    first = draw(st.integers(0, 1))
    wide = range(first, first + 2 * big, 2)
    rest = iter(sorted(set(range(sum(sizes))) - set(wide)))
    sccs = [[f"q{i:02d}" for i in (wide if t == at else itertools.islice(rest, m))] for t, m in enumerate(sizes)]
    delta, recurring, lower = {}, [], []
    for states in sccs:
        atoms = [NextState(q) for q in states + lower] + [LetterSet({"a"}), LetterSet({"b"})]
        for j, q in enumerate(states):
            ring = [NextState(states[(j + 1) % len(states)])] if len(states) > 1 else []
            extra = draw(st.lists(st.sampled_from(atoms), min_size=1 - len(ring), max_size=3))
            cond, *others = draw(st.permutations(ring + extra))
            for atom in others:
                cond = draw(st.sampled_from((And, Or)))(cond, atom)
            delta[q] = cond
        if draw(st.booleans()):
            recurring += states
        lower += states
    letters = st.sampled_from("ab")
    words = draw(st.lists(st.builds(LassoWord, st.lists(letters, max_size=2), st.lists(letters, min_size=1, max_size=3)),
                          min_size=1, max_size=3))
    return WeakAlternatingAutomaton(AB, lower, delta, recurring), words


@settings(derandomize=True, max_examples=60, deadline=None)
@given(interleaved_large_scc_automata())
def test_final_runs_on_interleaved_large_sccs_match_the_oracle(case):
    # above the cap, on an SCC of 4 or 5 states whose states interleave with
    # other SCCs' in the family: the run exists, its outputs equal the WAA
    # oracle, and each family it assembles is the step into its position
    waa, words = case
    bda = BackwardDetAutomaton(waa)
    assert bda.state_space_bound > DEFAULT_ENUMERATION_CAP
    (large,) = [scc for scc in waa.sccs if scc.size >= 4]
    places = [waa.states.index(q) for q in large.states]
    assert places == list(range(places[0], places[0] + 2 * large.size, 2))
    for w in words:
        run = bda_final_run(bda, w)
        for i in range(w.positions):
            assert run.families[i] == run.record(bda, i).result, (str(w), i)
        report = cross_validate(waa, w, bda, run)
        assert report.ok, report.failures
