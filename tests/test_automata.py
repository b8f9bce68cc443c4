import pytest

from backdet.automata import (
    Alphabet,
    And,
    LetterSet,
    NextState,
    Or,
    WeakAlternatingAutomaton,
    dual_condition,
    dualize,
    is_very_weak,
    is_weak,
    validate_weak,
)
from backdet.errors import SemanticError
from backdet.node import subterms

AB = Alphabet(("a", "b"))


def test_alphabet_sorted_and_validated():
    assert Alphabet(("b", "a")).letters == ("a", "b")
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_condition_subformulas_children_first():
    c = Or(LetterSet({"a"}), And(NextState("q0"), NextState("q1")))
    subs = subterms([c], children_first=True)
    assert subs[-1] is c
    assert subs.index(NextState("q0")) < subs.index(And(NextState("q0"), NextState("q1")))
    assert c.free == {"q0", "q1"}


def test_dual_condition_involution():
    c = Or(LetterSet({"a"}), And(NextState("q"), LetterSet({"a", "b"})))
    d = dual_condition(c, AB)
    assert isinstance(d, And)
    assert dual_condition(d, AB) == c


def _two_cycle():
    # q0 -> q1 -> q0, both non-recurring
    delta = {"q0": NextState("q1"), "q1": Or(LetterSet({"a"}), NextState("q0"))}
    return WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, [])


def test_scc_single_component():
    waa = _two_cycle()
    assert len(waa.sccs) == 1
    assert waa.sccs[0].states == ("q0", "q1")
    assert waa.sccs[0].recurring is False
    assert not is_very_weak(waa)
    assert is_weak(waa)


def test_scc_topological_order_successors_first():
    delta = {
        "top": NextState("bot"),
        "bot": LetterSet({"a"}),
    }
    waa = WeakAlternatingAutomaton(AB, ["top", "bot"], delta, [])
    # bot is reachable from top so it must come earlier in the SCC list
    names = [scc.states for scc in waa.sccs]
    assert names.index(("bot",)) < names.index(("top",))
    assert waa.scc_of("bot") < waa.scc_of("top")


def test_mixed_scc_detected():
    delta = {"q0": NextState("q1"), "q1": NextState("q0")}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, ["q0"])
    mixed = validate_weak(waa)
    assert len(mixed) == 1
    assert not is_weak(waa)
    with pytest.raises(SemanticError, match="mixed SCC"):
        dualize(waa)


def test_dualize_swaps_polarity_and_conditions():
    waa = _two_cycle()
    dual = dualize(waa)
    assert dual.recurring == frozenset({"q0", "q1"})
    assert isinstance(dual.delta["q1"], And)
    assert dual.delta["q1"].left == LetterSet({"b"})
    assert dualize(dual) == waa


def test_validation_errors():
    with pytest.raises(ValueError):
        WeakAlternatingAutomaton(AB, ["q"], {}, [])
    with pytest.raises(ValueError):
        WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("nope")}, [])
    with pytest.raises(ValueError):
        WeakAlternatingAutomaton(AB, ["q"], {"q": LetterSet({"z"})}, [])
    with pytest.raises(ValueError):
        WeakAlternatingAutomaton(AB, ["q"], {"q": LetterSet({"a"})}, ["nope"])


def test_validation_error_texts():
    undeclared = {"q": Or(LetterSet({"a"}), NextState("nope"))}
    foreign = {"q": NextState("r"), "r": And(LetterSet({"a", "z", "c"}), NextState("q"))}
    for states, delta, text in (
        (["q"], undeclared, "delta(q) references undeclared state nope"),
        (["q", "r"], foreign, "delta(r) uses letters outside the alphabet: ['c', 'z']"),
    ):
        with pytest.raises(ValueError) as e:
            WeakAlternatingAutomaton(AB, states, delta, [])
        assert str(e.value) == text
