import pytest

from backdet.automata import Alphabet, LetterSet, NextState, Or, WeakAlternatingAutomaton
from backdet.construction import INF, BackwardDetAutomaton, basic_step
from backdet.errors import StateSpaceCapError

AB = Alphabet(("a", "b"))


def eventually_a():
    # single non-recurring state with delta(q) = [a] | X q
    delta = {"q": Or(LetterSet({"a"}), NextState("q"))}
    return WeakAlternatingAutomaton(AB, ["q"], delta, [])


def test_step_examples_eventually():
    bda = BackwardDetAutomaton(eventually_a())

    rec = bda.step("a", (INF,))
    assert rec.result == (1,)
    assert rec.critical == (1,)
    assert rec.fired == {(0, 1)}

    rec = bda.step("b", (INF,))
    assert rec.result == (INF,)
    assert rec.critical == (0,)
    # fires through the no-surviving-finite-value rule
    assert rec.fired == {(0, 1)}

    rec = bda.step("b", (1,))
    assert rec.result == (1,)
    assert rec.critical == (0,)
    assert rec.fired == frozenset()


def test_buchi_count_equals_state_count():
    delta = {
        "q0": NextState("q1"),
        "q1": Or(LetterSet({"a"}), NextState("q0")),
        "q2": Or(LetterSet({"b"}), NextState("q0")),
    }
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1", "q2"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert len(bda.buchi_indices) == 3


def test_state_space_bound_product():
    # one 2-SCC and one singleton: (2+1)^2 * (1+1)^1 = 18
    delta = {
        "q0": NextState("q1"),
        "q1": Or(LetterSet({"a"}), NextState("q0")),
        "q2": Or(LetterSet({"b"}), NextState("q0")),
    }
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1", "q2"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert bda.state_space_bound == 18


def test_two_state_scc_bound_nine():
    delta = {"q0": NextState("q1"), "q1": Or(LetterSet({"a"}), NextState("q0"))}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert bda.state_space_bound == 9
    assert len(bda.buchi_indices) == 2
    assert len(bda.enumerate_state_space(16)) == 9


def test_enumerate_refuses_over_cap():
    bda = BackwardDetAutomaton(eventually_a())
    with pytest.raises(StateSpaceCapError):
        bda.enumerate_state_space(1)


def test_step_range_and_order_preserved():
    delta = {"q0": NextState("q1"), "q1": Or(LetterSet({"a"}), NextState("q0"))}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, [])
    bda = BackwardDetAutomaton(waa)
    for family in bda.enumerate_state_space(16):
        for letter in AB:
            rec = bda.step(letter, family)
            for q, v in zip(waa.states, rec.result):
                size = waa.sccs[waa.scc_of(q)].size
                assert v == INF or 1 <= v <= size


def test_output_function():
    delta = {
        "n": Or(LetterSet({"a"}), NextState("n")),
        "r": Or(LetterSet({"a"}), NextState("r")),
    }
    waa = WeakAlternatingAutomaton(AB, ["n", "r"], delta, ["r"])
    bda = BackwardDetAutomaton(waa)
    assert bda.output((1, INF)) == {"n", "r"}
    assert bda.output((INF, 1)) == frozenset()


def test_rejects_non_weak():
    delta = {"q0": NextState("q1"), "q1": NextState("q0")}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, ["q0"])
    with pytest.raises(ValueError):
        BackwardDetAutomaton(waa)


def test_basic_step_two_fixed_families():
    # delta(q) = X q, non-recurring: the naive two-valued function admits
    # both constant runs, which is the reason the refinement exists
    waa = WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("q")}, [])
    assert basic_step(waa, "a", (1,)) == (1,)
    assert basic_step(waa, "a", (INF,)) == (INF,)
    with pytest.raises(ValueError):
        basic_step(waa, "a", (2,))
