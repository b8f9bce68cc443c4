import random

import pytest
from hypothesis import given, settings, strategies as st

from backdet import ltl, nutl
from backdet.automata import Alphabet, LetterSet, NextState, Or, is_very_weak
from backdet.errors import FormatError, SemanticError
from backdet.lasso import LassoWord, waa_accept_table
from backdet.ltl import (
    Always,
    And as LAnd,
    Eventually,
    Letter,
    NegLetter,
    Next,
    Release,
    Until,
    format_ltl,
    ltl_to_waa,
    ltl_truth_vector,
    parse_ltl,
    random_ltl,
)
from backdet.node import subterms
from backdet.validation import exhaustive_lassos, random_nutl

AB = Alphabet(("a", "b"))

# NNF duals (negate): the shared nodes' De Morgan duals, and F/G and U/R
_DUAL = {Eventually: Always, Always: Eventually, Until: Release, Release: Until}
_DUAL.update((c, nutl._SWAP[c]) for c in ltl._TABLE if c not in _DUAL)


def negate(f):
    """The NNF dual of an LTL formula, which complements its language."""
    if type(f) not in _DUAL:
        raise TypeError(f"not an LTL formula: {f!r}")
    dual = _DUAL[type(f)]
    return dual(*map(negate, f.children)) if f.children else dual(f.name)


def test_parser_precedence():
    phi = parse_ltl("a U b | G a & X b", AB)
    # | loosest, then &, then U
    assert phi == parse_ltl("(a U b) | ((G a) & (X b))", AB)


def test_until_right_associative():
    assert parse_ltl("a U b U a", AB) == Until(Letter("a"), Until(Letter("b"), Letter("a")))


def test_parser_errors():
    with pytest.raises(FormatError):
        parse_ltl("c", AB)
    with pytest.raises(FormatError):
        parse_ltl("! (a | b)", AB)  # negation only on letters
    with pytest.raises(FormatError):
        parse_ltl("a U", AB)
    with pytest.raises(FormatError):
        parse_ltl("(a", AB)
    with pytest.raises(FormatError):
        parse_ltl("a b", AB)
    # a letter the parser would read as an operator is rejected up front
    for letter in ("X", "F", "G", "U", "R"):
        with pytest.raises(FormatError) as err:
            parse_ltl("a", Alphabet(("a", letter)))
        assert str(err.value) == f"letter {letter!r} is an LTL operator"


@pytest.mark.parametrize("letter", ["X", "F", "G", "U", "R"])
def test_format_rejects_a_letter_named_like_an_operator(letter):
    # the parser's one rule: X (F) would not parse back
    for phi in (Next(Letter(letter)), LAnd(Letter("a"), NegLetter(letter))):
        with pytest.raises(FormatError) as err:
            format_ltl(phi)
        assert str(err.value) == f"letter {letter!r} is an LTL operator"
    assert format_ltl(Next(Letter(letter + "a"))) == f"X ({letter}a)"


def test_format_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        phi = random_ltl(rng, AB, 7)
        assert parse_ltl(format_ltl(phi), AB) == phi


def test_negate_involution():
    phi = parse_ltl("(a U b) & G (b | X a)", AB)
    assert negate(negate(phi)) == phi
    assert negate(Eventually(Letter("a"))) == Always(NegLetter("a"))


def test_negate_complements_the_truth_vector():
    # a wrong dual in the operator table, such as U to U, fails here
    rng = random.Random(5)
    lassos = list(exhaustive_lassos(AB, 2, 2))
    for _ in range(100):
        phi = random_ltl(rng, AB, 8)
        assert negate(negate(phi)) is phi
        for w in lassos:
            expected = [not t for t in ltl_truth_vector(phi, w)]
            assert ltl_truth_vector(negate(phi), w) == expected, (format_ltl(phi), str(w))


# (text, printed text, printed dual, initial state name) of each operator
OPERATORS = [
    ("a", "a", "!a", "q_a"),
    ("!a", "!a", "a", "q_not_a"),
    ("X a", "X (a)", "X (!a)", "q_X_a"),
    ("F a", "F (a)", "G (!a)", "q_F_a"),
    ("G a", "G (a)", "F (!a)", "q_G_a"),
    ("a U b", "(a U b)", "(!a R !b)", "q_U__a__b"),
    ("a R b", "(a R b)", "(!a U !b)", "q_R__a__b"),
    ("a & b", "(a & b)", "(!a | !b)", "q_and__a__b"),
    ("a | b", "(a | b)", "(!a & !b)", "q_or__a__b"),
]


@pytest.mark.parametrize("text, printed, dual, state", OPERATORS)
def test_operator_text_dual_and_state_name(text, printed, dual, state):
    phi = parse_ltl(text, AB)
    assert format_ltl(phi) == printed
    assert format_ltl(negate(phi)) == dual
    assert ltl_to_waa(phi, AB).initial == {state}


def test_state_names_are_deduplicated():
    # the letter not_a and the negated letter !a both compact to not_a; X
    # names the state of each
    alphabet = Alphabet(("a", "not_a"))
    waa = ltl_to_waa(parse_ltl("X not_a & X !a", alphabet), alphabet)
    assert waa.states == ("q_and__X_not_a__X_not_a", "q_not_a", "q_not_a_")


# letters, next, & and | are shared, so each foreign node holds a variable
# or an LTL temporal operator
@pytest.mark.parametrize("function, node", [
    (format_ltl, nutl.Var("X")),
    (negate, Next(nutl.Var("X"))),
    (nutl.dual_nutl, Eventually(Letter("a"))),
    (nutl.dual_nutl, Next(Until(Letter("a"), Letter("b")))),
])
def test_nodes_of_another_language_raise_type_error(function, node):
    with pytest.raises(TypeError):
        function(node)


def test_translations_raise_type_error_on_nodes_of_another_language():
    with pytest.raises(TypeError):
        ltl_to_waa(LAnd(Letter("a"), Next(nutl.Var("X"))), AB)
    body = Until(Letter("a"), Next(nutl.Var("X")))
    for f in (Eventually(Letter("a")), nutl.Fix(nutl.MU, 0, ("X",), (body,))):
        for function in (nutl.format_nutl, nutl.dual_nutl):
            with pytest.raises(TypeError):
                function(f)
        with pytest.raises(TypeError):
            nutl.nutl_to_waa([f], AB)


def test_lasso_semantics_raise_type_error_on_nodes_of_another_language():
    w = LassoWord(("a",), ("b",))
    with pytest.raises(TypeError):
        nutl.nutl_eval_lasso([Eventually(Letter("a"))], w)
    with pytest.raises(TypeError):
        ltl_truth_vector(nutl.Var("X"), w)


def test_ltl_shares_the_fixed_point_nodes():
    assert parse_ltl("a & X !b", AB) is nutl.parse_nutl("a & O (!b)", AB)


def test_kleene_semantics_agrees_with_ltl_semantics_on_the_shared_fragment():
    # two independent oracles on formulas of letters, X, & and | only
    rng = random.Random(9)
    lassos = list(exhaustive_lassos(AB, 2, 2))
    temporal = (Eventually, Always, Until, Release)
    shared = []
    while len(shared) < 300:
        phi = random_ltl(rng, AB, rng.randint(1, 8))
        if not any(isinstance(g, temporal) for g in subterms([phi])):
            shared.append(phi)
    for phi in shared:
        for w in lassos:
            kleene = [0 in s for s in nutl.nutl_eval_lasso([phi], w)]
            assert kleene == ltl_truth_vector(phi, w), (format_ltl(phi), str(w))


def test_subformulas_distinct_children_first():
    phi = parse_ltl("a | (a & b)", AB)
    subs = subterms([phi], children_first=True)
    assert len(subs) == 4  # a, b, a&b, a|(a&b) -- 'a' only once
    assert subs[-1] == phi


def test_translation_structure_eventually():
    waa = ltl_to_waa(parse_ltl("F a", AB), AB)
    assert waa.states == ("q_F_a",)
    assert waa.recurring == frozenset()
    assert waa.initial == frozenset({"q_F_a"})
    assert waa.delta["q_F_a"] == Or(LetterSet({"a"}), NextState("q_F_a"))
    assert is_very_weak(waa)


def test_translation_recurring_states():
    waa = ltl_to_waa(parse_ltl("(G a) & (b R a)", AB), AB)
    rec = {q for q in waa.states if q in waa.recurring}
    assert rec == {"q_G_a", "q_R__b__a"}


def test_translation_builds_the_formula_state_and_the_states_conditions_name():
    # a U b is named twice, unfolded in the root's condition and under X,
    # and gets one state; its letters are read in the conditions
    phi = parse_ltl("(a U b) | X (a U b)", AB)
    waa = ltl_to_waa(phi, AB)
    assert waa.states == ("q_U__a__b", "q_or__U__a__b__X_U__a__b")
    assert waa.initial == {"q_or__U__a__b__X_U__a__b"}
    assert waa.delta["q_or__U__a__b__X_U__a__b"] == Or(waa.delta["q_U__a__b"], NextState("q_U__a__b"))


def reachable_states(waa):
    """The states reachable from the initial ones through delta[q].free."""
    seen, todo = set(waa.initial), list(waa.initial)
    while todo:
        for r in waa.delta[todo.pop()].free - seen:
            seen.add(r)
            todo.append(r)
    return seen


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 4))
def test_translations_build_only_states_reachable_from_the_initial_states(seed, size, depth):
    # states on demand: each state is a root's or one that a built
    # condition names, so none is unreachable; a state for every subformula
    # would fail here (G a's q_a is read by no condition)
    waa = ltl_to_waa(random_ltl(random.Random(seed), AB, size), AB)
    assert set(waa.states) == reachable_states(waa)
    assert is_very_weak(waa) and len(waa.initial) == 1
    try:
        waa, roots = nutl.nutl_to_waa([random_nutl(random.Random(seed), AB, depth)], AB)
    except SemanticError:  # a draw may alternate fixed-point kinds on a cycle
        return
    assert set(waa.states) == reachable_states(waa)
    assert waa.initial == set(roots)


def test_truth_vector_until():
    phi = parse_ltl("a U b", AB)
    assert ltl_truth_vector(phi, LassoWord((), ("a",))) == [False]
    assert ltl_truth_vector(phi, LassoWord(("a",), ("b",))) == [True, True]
    assert ltl_truth_vector(phi, LassoWord(("b", "a"), ("a", "b"))) == [True, True, True, True]


def test_truth_vector_release_and_always():
    w = LassoWord((), ("a", "b"))
    # release never fires (a and b are exclusive letters), so b R a here
    # degenerates to G a
    assert not ltl_truth_vector(parse_ltl("b R a", AB), w)[0]
    assert ltl_truth_vector(parse_ltl("b R a", AB), LassoWord((), ("a",)))[0]
    assert not ltl_truth_vector(parse_ltl("G a", AB), w)[0]
    assert ltl_truth_vector(parse_ltl("G (a | b)", AB), w)[1]


def test_translation_agrees_with_semantics():
    rng = random.Random(5)
    words = [
        LassoWord((), ("a",)),
        LassoWord((), ("b", "a")),
        LassoWord(("a", "b"), ("b",)),
    ]
    for _ in range(30):
        phi = random_ltl(rng, AB, 6)
        waa = ltl_to_waa(phi, AB)
        q0 = next(iter(waa.initial))
        for w in words:
            table = waa_accept_table(waa, w)
            truth = ltl_truth_vector(phi, w)
            for i in range(w.positions):
                assert (q0 in table[i]) == truth[i], (format_ltl(phi), str(w), i)


def test_random_ltl_respects_size():
    rng = random.Random(1)
    for _ in range(50):
        phi = random_ltl(rng, AB, 8)
        assert len(subterms([phi])) <= 8


def test_strict_next():
    phi = Next(Letter("a"))
    assert ltl_truth_vector(phi, LassoWord((), ("a", "b"))) == [False, True]


def test_name_collision_disambiguated():
    # X (a U b) and a state literally named like the compact form must not clash
    phi = LAnd(Release(Letter("a"), Letter("b")), Until(Letter("a"), Letter("b")))
    waa = ltl_to_waa(phi, AB)
    assert len(set(waa.states)) == len(waa.states)
