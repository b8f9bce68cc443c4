import gc
import random

import pytest

from backdet import automata, ltl, node, nutl
from backdet.automata import Alphabet, LetterSet
from backdet.errors import SemanticError
from backdet.nba import build_rank_formulas
from backdet.validation import random_nba, random_nutl

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
    assert automata.Or is nutl.Or is ltl.Or


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


def _assert_free_names_by_definition(roots):
    """Every node under ``roots`` holds the free names that the plain
    recursion gives: a variable its name, a fix its bodies' names minus its
    vars, a next-state atom its state, any other node the union of its
    children's.  Returns how many nodes have free names."""
    memo = {}

    def free(f):
        if f not in memo:
            if isinstance(f, nutl.Var):
                memo[f] = {f.name}
            elif isinstance(f, automata.NextState):
                memo[f] = {f.state}
            else:
                memo[f] = set().union(*map(free, f.children))
                if isinstance(f, nutl.Fix):
                    memo[f] -= set(f.vars)
        return memo[f]

    nodes = node.subterms(roots)
    for f in nodes:
        assert type(f.free) is frozenset and f.free == free(f), f
    return sum(bool(f.free) for f in nodes)


def test_free_names_of_rank_tables_and_their_automata():
    for n in (2, 3, 4):
        table = build_rank_formulas(random_nba(random.Random(3), AB, n))
        assert _assert_free_names_by_definition([f for level in table.chi for f in level]) > 0
        assert _assert_free_names_by_definition(list(table.final_tuple)) > 0
        waa, _ = nutl.nutl_to_waa(table.final_tuple, AB)
        assert _assert_free_names_by_definition(list(waa.delta.values())) > 0


def test_free_names_of_random_formulas_and_their_automata():
    rng = random.Random(1)
    formulas = [random_nutl(rng, AB) for _ in range(300)]
    assert _assert_free_names_by_definition(formulas) > 0
    translated = 0
    for f in formulas:
        try:
            waa, _ = nutl.nutl_to_waa([f], AB)
        except SemanticError:
            continue
        translated += 1
        _assert_free_names_by_definition(list(waa.delta.values()))
    assert translated > 200

    rng = random.Random(1)
    formulas = [ltl.random_ltl(rng, AB, rng.randint(1, 30)) for _ in range(200)]
    assert _assert_free_names_by_definition(formulas) == 0
    assert sum(_assert_free_names_by_definition(list(ltl.ltl_to_waa(f, AB).delta.values())) for f in formulas) > 0


def test_an_inner_fix_binds_only_its_own_occurrences():
    x, y = nutl.Var("X"), nutl.Var("Y")
    inner = nutl.Fix(nutl.NU, 0, ("X",), (nutl.And(nutl.Next(x), y),))
    body = nutl.Or(nutl.Next(x), inner)
    outer = nutl.Fix(nutl.MU, 0, ("X",), (body,))
    assert (inner.free, body.free, outer.free) == ({"Y"}, {"X", "Y"}, {"Y"})
    assert nutl.Fix(nutl.MU, 0, ("Y",), (outer,)).free == frozenset()
    assert _assert_free_names_by_definition([outer]) == 7
    with pytest.raises(AttributeError):
        outer.free = frozenset()
