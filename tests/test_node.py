import gc
import random

import pytest

from backdet import automata, ltl, node, nutl
from backdet.automata import Alphabet, LetterSet
from backdet.nba import build_rank_formulas
from backdet.validation import random_nba

AB = Alphabet(("a", "b"))


def test_structurally_equal_nodes_are_one_object():
    assert ltl.Until(ltl.Letter("a"), ltl.Next(ltl.NegLetter("b"))) is ltl.Until(
        ltl.Letter("a"), ltl.Next(ltl.NegLetter("b"))
    )
    body = nutl.Or(nutl.Letter("b"), nutl.Next(nutl.Var("X")))
    assert nutl.Fix(nutl.MU, 0, ("X",), (body,)) is nutl.Fix(
        nutl.MU, 0, ("X",), (nutl.Or(nutl.Letter("b"), nutl.Next(nutl.Var("X"))),)
    )
    cond = automata.And(LetterSet({"a"}), automata.NextState("q"))
    assert cond is automata.And(LetterSet(["a"]), automata.NextState("q"))
    assert LetterSet({"a"}) is LetterSet(frozenset({"a"}))
    assert type(cond).__eq__ is object.__eq__ and type(cond).__hash__ is object.__hash__


def test_families_and_classes_never_collide():
    a = ltl.Letter("a")
    assert ltl.Eventually(a) is not ltl.Always(a)
    assert ltl.Eventually(a) != ltl.Always(a)
    assert nutl.Letter("a") is not nutl.Var("a")
    assert ltl.Or(ltl.Letter("a"), ltl.Letter("b")) is not ltl.And(ltl.Letter("a"), ltl.Letter("b"))
    assert ltl.Or(ltl.Letter("a"), ltl.Letter("b")) is not ltl.Until(ltl.Letter("a"), ltl.Letter("b"))
    s = automata.NextState("q")
    assert automata.Or(s, s) is not automata.And(s, s)
    assert automata.Or(s, s) is not ltl.Or(s, s)


def test_nodes_are_immutable():
    f = nutl.Next(nutl.Letter("a"))
    with pytest.raises(AttributeError):
        f.operand = nutl.Letter("b")
    with pytest.raises(AttributeError):
        del f.operand
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(TypeError):
        nutl.Next()


def test_children_are_the_node_fields_in_order():
    x, b = nutl.Var("X"), nutl.Letter("b")
    fix = nutl.Fix(nutl.NU, 1, ("X", "Y"), (b, x))
    assert fix.children == (b, x)
    assert nutl.Or(x, b).children == (x, b)
    assert b.children == ()
    assert LetterSet({"a"}).children == ()
    assert node.subterms([nutl.And(x, fix)]) == [nutl.And(x, fix), x, fix, b]
    assert node.subterms([nutl.And(x, fix)], children_first=True) == [x, b, fix, nutl.And(x, fix)]


def test_parsing_a_printed_formula_returns_the_same_node():
    for f in build_rank_formulas(random_nba(random.Random(3), AB, 2)).final_tuple:
        assert nutl.parse_nutl(nutl.format_nutl(f), AB) is f
    phi = ltl.parse_ltl("G (a U !b) & X F a", AB)
    assert ltl.parse_ltl(ltl.format_ltl(phi), AB) is phi


def test_intern_table_drops_dead_nodes():
    gc.collect()
    before = len(node._interned)
    f = nutl.Letter("leak_probe")
    for k in range(200):
        f = nutl.Or(f, nutl.Next(nutl.Var(f"leak_probe_{k}")))
    assert len(node._interned) >= before + 600
    del f
    gc.collect()
    assert len(node._interned) == before
