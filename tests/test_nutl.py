import random

import pytest

from backdet.automata import Alphabet, LetterSet, NextState
from backdet.construction import BackwardDetAutomaton
from backdet.errors import FormatError, SemanticError
from backdet.lasso import LassoWord, bda_final_run, waa_accept_table
from backdet.nba import build_rank_formulas
from backdet.nutl import (
    And,
    Fix,
    Letter,
    MU,
    NU,
    NegLetter,
    Next,
    Or,
    Var,
    dual_nutl,
    format_nutl,
    nutl_eval_lasso,
    nutl_to_waa,
    parse_nutl,
)
from backdet.node import subterms
from backdet.validation import exhaustive_lassos, exhaustive_lassos_total, random_nba, random_nutl

AB = Alphabet(("a", "b"))

UNTIL = "mu_0 (X).(b | (a & O X))"  # a U b
ALWAYS = "nu_0 (X).(a & O X)"       # G a


@pytest.mark.parametrize("letter", ["O", "mu_0", "nu_12"])
def test_format_rejects_a_letter_named_like_an_operator(letter):
    # the parser's one rule: O (O) would not parse back
    for phi in (Next(Letter(letter)), And(Letter("a"), NegLetter(letter))):
        with pytest.raises(FormatError) as err:
            format_nutl(phi)
        assert str(err.value) == f"letter {letter!r} is a fixed-point operator"


def test_parse_fix_and_vector():
    phi = parse_nutl("mu_1 (X,Y).(O Y; b | O X)", AB)
    assert isinstance(phi, Fix)
    assert phi.kind == MU and phi.index == 1
    assert phi.vars == ("X", "Y")


def test_parse_resolves_letters_vs_vars():
    phi = parse_nutl("mu_0 (X).(a | O X)", AB)
    body = phi.bodies[0]
    assert body == Or(Letter("a"), Next(Var("X")))


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_nutl("! (a)", AB)
    # a letter the parser would read as an operator is rejected up front;
    # format_nutl(Letter("O")) prints "O", which would not parse back
    for letter in ("O", "mu_0", "nu_12"):
        with pytest.raises(FormatError) as err:
            parse_nutl("a", Alphabet(("a", letter)))
        assert str(err.value) == f"letter {letter!r} is a fixed-point operator"
    assert parse_nutl("mu | nu_x | O_1", Alphabet(("mu", "nu_x", "O_1"))) == Or(
        Or(Letter("mu"), Letter("nu_x")), Letter("O_1"))
    assert format_nutl(Or(Letter("mu"), NegLetter("O_1"))) == "(mu | !O_1)"
    # fix-header errors point at the fix token
    for text in (
        "mu_2 (X).(a)",  # index out of range
        "mu_0 (a).(a)",  # variable clashes with letter
        "mu_0 (X,X).(a; b)",  # repeated variable
        "mu_0 (X).(a; b)",  # more bodies than variables
        "mu_0 (X,Y).(a)",  # fewer bodies than variables
    ):
        with pytest.raises(FormatError) as e:
            parse_nutl("a | " + text, AB)
        assert e.value.position == 4, text
    with pytest.raises(ValueError):
        Fix(MU, 0, ("X", "X"), (Var("X"), Var("X")))
    with pytest.raises(ValueError, match="fix kind must be 'mu' or 'nu'"):
        Fix("sigma", 0, ("X",), (Var("X"),))
    # the translation rejects what the parser never builds
    twice = Or(Fix(MU, 0, ("X",), (Next(Var("X")),)), Fix(NU, 0, ("X",), (Letter("a"),)))
    with pytest.raises(SemanticError, match="variable 'X' bound more than once"):
        nutl_to_waa([twice], AB)


def test_format_round_trip():
    for text in (UNTIL, ALWAYS, "mu_0 (X,Y).(O Y; b | (a & O X))", "!a | O b"):
        phi = parse_nutl(text, AB)
        assert parse_nutl(format_nutl(phi), AB) == phi


def test_shared_nodes_print_once_as_definitions():
    phi = parse_nutl("(a & O b) | O (a & O b)", AB)
    text = "@0 = (a & O (b)); (@0 | O (@0))"
    assert format_nutl(phi) == text
    assert parse_nutl(text, AB) is phi
    # a fix counts once per body it holds; a shared leaf is not named
    fix = parse_nutl("mu_0 (X,Y).(a | O X; a | O X)", AB)
    assert format_nutl(fix) == "@0 = (a | O (X)); mu_0 (X,Y).(@0; @0)"
    assert format_nutl(parse_nutl("a | a", AB)) == "(a | a)"


def test_closed_and_free():
    assert not parse_nutl(UNTIL, AB).free
    assert parse_nutl("O Z", AB).free == {"Z"}


def _dependences(f, binders):
    """The dependence successors of ``f``: a fix node and a variable lead to
    the body they select, any other node to its children."""
    if isinstance(f, Fix):
        return [f.bodies[f.index]]
    if isinstance(f, Var):
        fix, j = binders[f.name]
        return [fix.bodies[j]]
    return list(f.children)


def _binders(phi):
    return {name: (f, j) for f in subterms([phi]) if isinstance(f, Fix) for j, name in enumerate(f.vars)}


def _has_unguarded_cycle(phi, binders):
    """Whether some variable reaches itself by dependence edges that pass no
    next-step vertex; the subformula DAG is acyclic, so every dependence
    cycle passes a variable."""
    for v in subterms([phi]):
        if not isinstance(v, Var):
            continue
        seen, todo = set(), _dependences(v, binders)
        while todo:
            f = todo.pop()
            if f is v:
                return True
            if f not in seen and not isinstance(f, Next):
                seen.add(f)
                todo += _dependences(f, binders)
    return False


def _unguard(f, rng):
    """``f`` with some next steps on a variable, ``O X``, replaced by ``X``."""
    if isinstance(f, Next) and isinstance(f.operand, Var) and rng.random() < 0.5:
        return f.operand
    if isinstance(f, Fix):
        return Fix(f.kind, f.index, f.vars, tuple(_unguard(b, rng) for b in f.bodies))
    return type(f)(*(_unguard(c, rng) for c in f.children)) if f.children else f


def _rejected_cycle(phi):
    """The witness cycle of ``nutl_to_waa`` when it rejects ``phi`` as
    unguarded; None when it translates ``phi`` or rejects it otherwise."""
    try:
        nutl_to_waa([phi], AB)
    except SemanticError as e:
        assert (e.cycle is not None) == ("not guarded" in str(e)), str(e)
        return e.cycle
    return None


def _assert_unguarded_witness(cycle, binders):
    assert cycle
    assert not any(isinstance(f, Next) for f in cycle)
    for f, g in zip(cycle, cycle[1:] + cycle[:1]):
        assert g in _dependences(f, binders), (f, g)


def test_guardedness():
    assert _rejected_cycle(parse_nutl(UNTIL, AB)) is None
    assert _rejected_cycle(parse_nutl("mu_0 (X,Y).(O Y; b | O X)", AB)) is None
    unguarded = Fix(MU, 0, ("X",), (Or(Letter("b"), Var("X")),))
    # X and Y call each other unguarded; the O on X's left is off the cycle
    pair = parse_nutl("nu_0 (X,Y).(O a & (b | Y); a & X)", AB)
    for phi in (unguarded, pair):
        _assert_unguarded_witness(_rejected_cycle(phi), _binders(phi))
    # random_nutl puts every variable under a next step; dropping some of
    # those steps makes some formulas unguarded and leaves others guarded
    rng = random.Random(5)
    flagged = 0
    for _ in range(400):
        phi = random_nutl(rng, AB, depth=4)
        assert _rejected_cycle(phi) is None
        psi = _unguard(phi, rng)
        binders = _binders(psi)
        cycle = _rejected_cycle(psi)
        assert (cycle is not None) == _has_unguarded_cycle(psi, binders), format_nutl(psi)
        if cycle is not None:
            flagged += 1
            _assert_unguarded_witness(cycle, binders)
    assert flagged >= 40


def test_alternation_freeness():
    nutl_to_waa([parse_nutl(UNTIL, AB)], AB)
    # nu around mu with the mu body reaching back into the nu variable
    mixed = Fix(
        NU, 0, ("Y",),
        (Fix(MU, 0, ("X",), (Or(Next(Var("Y")), Next(Var("X"))),)),),
    )
    with pytest.raises(SemanticError, match="^formula has a fixed-point alternation on a cycle$") as e:
        nutl_to_waa([mixed], AB)
    assert e.value.cycle is None
    # unguarded and alternating: guardedness is checked first
    with pytest.raises(SemanticError, match="^formula is not guarded; "):
        nutl_to_waa([parse_nutl("nu_0 (Y).(mu_0 (X).(X | O Y))", AB)], AB)


def test_translation_rejects_bad_input():
    with pytest.raises(SemanticError):
        nutl_to_waa([parse_nutl("O Z", AB)], AB)
    unguarded = Fix(MU, 0, ("X",), (Or(Letter("b"), Var("X")),))
    with pytest.raises(SemanticError):
        nutl_to_waa([unguarded], AB)
    # a least and a greatest system bind X twice, though their vectors and
    # bodies agree
    phi = parse_nutl("mu_0 (X).(O X)", AB)
    for roots in ([parse_nutl("mu_0 (X).(O X) | nu_0 (X).(O X)", AB)], [phi, dual_nutl(phi)]):
        with pytest.raises(SemanticError, match="^variable 'X' bound more than once$"):
            nutl_to_waa(roots, AB)


def test_open_formulas_are_rejected_with_their_free_names():
    open_formula = parse_nutl("O X", AB)
    for reject in (
        lambda: nutl_eval_lasso([open_formula], LassoWord(("a",), ("b",))),
        lambda: nutl_to_waa([open_formula], AB),
    ):
        with pytest.raises(SemanticError) as e:
            reject()
        assert str(e.value) == "formula is not closed: free ['X']"


def test_eval_until_and_always():
    until = parse_nutl(UNTIL, AB)
    assert nutl_eval_lasso([until], LassoWord(("a", "a"), ("b",))) == [{0}, {0}, {0}]
    assert nutl_eval_lasso([until], LassoWord((), ("a",))) == [set()]
    always = parse_nutl(ALWAYS, AB)
    assert nutl_eval_lasso([always], LassoWord((), ("a",))) == [{0}]
    assert nutl_eval_lasso([always], LassoWord(("a",), ("b",))) == [set(), set()]


def test_eval_inner_fixed_point_reading_the_outer_variable():
    # the inner system reads X, so every outer iteration solves it again:
    # X = b | O (a U X)
    phi = parse_nutl("mu_0 (X).(b | O (mu_0 (Y).(X | a & O Y)))", AB)
    assert [f.free for f in subterms([phi]) if isinstance(f, Fix)] == [frozenset(), {"X"}]
    waa, inits = nutl_to_waa([phi], AB)
    for w in exhaustive_lassos(AB, 2, 2):
        truth = nutl_eval_lasso([phi], w)
        for i, accepted in enumerate(waa_accept_table(waa, w)):
            assert (inits[0] in accepted) == (0 in truth[i]), (str(w), i)


def eval_in_whole_rounds(phi_tuple, w):
    """The Kleene semantics with Jacobi rounds: every body of a system reads
    the values of the round before, from an environment built for each
    round; closed subformulas and closed systems are kept for the call."""
    full, pre = w.full, w.pre
    closed, systems = {}, {}

    def ev(f, env):
        if f in closed:
            return closed[f]
        t = type(f)
        if t is And:
            got = ev(f.left, env) & ev(f.right, env)
        elif t is Or:
            got = ev(f.left, env) | ev(f.right, env)
        elif t is Var:
            return env[f.name]
        elif t is Next:
            got = pre(ev(f.operand, env))
        elif t is Letter:
            got = w.mask(f.name)
        elif t is NegLetter:
            got = full & ~w.mask(f.name)
        else:
            key = (f.kind, f.vars, f.bodies)
            cur = systems.get(key)
            if cur is None:
                cur = dict.fromkeys(f.vars, 0 if f.kind == MU else full)
                while True:
                    inner = {**env, **cur}
                    nxt = {name: ev(body, inner) for name, body in zip(f.vars, f.bodies)}
                    if nxt == cur:
                        break
                    cur = nxt
                if not f.free:
                    systems[key] = cur
            got = cur[f.vars[f.index]]
        if not f.free:
            closed[f] = got
        return got

    truths = [ev(f, {}) for f in phi_tuple]
    return [frozenset(j for j, m in enumerate(truths) if m >> i & 1) for i in range(w.positions)]


def test_eval_in_place_matches_whole_rounds():
    # rank formulas of random NBAs with 1 to 3 states, asked together and
    # one by one; an inner system reading the outer variable; an inner
    # system rebinding the outer system's name, X = F (G a & b), which
    # holds nowhere on a^omega
    rng = random.Random(5)
    cases = []
    for n in (1, 2, 3):
        for _ in range(2):
            table = build_rank_formulas(random_nba(rng, AB, n))
            roots = [f for level in table.chi for f in level] + list(table.final_tuple)
            cases += [roots] + [[f] for f in roots]
    rebinding = parse_nutl("mu_0 (X).(((nu_0 (X).(a & O X)) & b) | O X)", AB)
    cases += [[parse_nutl("mu_0 (X).(b | O (mu_0 (Y).(X | a & O Y)))", AB)], [rebinding]]
    for roots in cases:
        for w in exhaustive_lassos_total(AB, 4):
            assert nutl_eval_lasso(roots, w) == eval_in_whole_rounds(roots, w), (roots, str(w))
    assert nutl_eval_lasso([rebinding], LassoWord((), ("a",))) == [set()]


def test_eval_vector_components():
    phi = parse_nutl("mu_0 (X,Y).(b | O Y; a & O X)", AB)
    w = LassoWord((), ("a", "b"))
    truth = nutl_eval_lasso([phi, parse_nutl(ALWAYS, AB)], w)
    assert all(isinstance(s, frozenset) for s in truth)
    assert len(truth) == w.positions


def test_dual_is_complement_and_involution():
    for text in (UNTIL, ALWAYS):
        phi = parse_nutl(text, AB)
        dual = dual_nutl(phi)
        assert dual_nutl(dual) == phi
        for w in (LassoWord((), ("a",)), LassoWord(("b",), ("a", "b"))):
            # exactly one of phi (component 0) and its dual holds everywhere
            truth = nutl_eval_lasso([phi, dual], w)
            assert all((0 in s) != (1 in s) for s in truth)


@pytest.mark.parametrize("texts", [
    [UNTIL],
    [ALWAYS],
    ["nu_0 (X,Y).(a & O Y; b | O X)"],
    [UNTIL, "nu_0 (Y).(a & O Y)"],  # ALWAYS on its own variable: one binder per name
], ids=["until", "always", "nu-vector", "tuple"])
def test_translation_matches_semantics(texts):
    roots = [parse_nutl(text, AB) for text in texts]
    waa, inits = nutl_to_waa(roots, AB)
    # a greatest fixed point makes its states recurring
    assert bool(waa.recurring) == any(NU in text for text in texts)
    bda = BackwardDetAutomaton(waa)
    for w in exhaustive_lassos(AB, 2, 2):
        truth = nutl_eval_lasso(roots, w)
        for i, out in enumerate(bda_final_run(bda, w).outputs(bda)):
            got = {j for j, init in enumerate(inits) if init in out}
            assert got == truth[i], (texts, str(w), i)


def _assert_translation_matches_semantics(roots):
    waa, inits = nutl_to_waa(roots, AB)
    for w in exhaustive_lassos(AB, 2, 2):
        truth = nutl_eval_lasso(roots, w)
        for i, accepted in enumerate(waa_accept_table(waa, w)):
            assert {j for j, q in enumerate(inits) if q in accepted} == truth[i], (str(w), i)
    return waa, inits


def test_translation_names_variable_states_after_the_variable():
    waa, inits = _assert_translation_matches_semantics([parse_nutl("mu_0 (X,Y).(b | O Y; a & O X)", AB)])
    assert set(waa.states) == {"X", "Y"}
    assert inits == ["X"]


def test_translation_gives_other_operands_fresh_names():
    # the operand b & O s0 gets the first name s<k> that no variable uses
    waa, inits = _assert_translation_matches_semantics([parse_nutl("mu_0 (s0).(a | O (b & O s0))", AB)])
    assert inits == ["s0"]
    assert set(waa.states) == {"s0", "s1"}
    assert waa.delta["s1"] == And(LetterSet({"b"}), NextState("s0"))


def test_translation_of_operands_that_denote_no_variable():
    # a next-step operand that is a disjunction, and a tuple component that
    # is a letter, each get a state of their own
    waa, _ = _assert_translation_matches_semantics([parse_nutl("mu_0 (X).(b | O (a | X))", AB)])
    assert set(waa.states) == {"X", "s0"}
    waa, inits = _assert_translation_matches_semantics([parse_nutl(UNTIL, AB), parse_nutl("a", AB)])
    assert inits == ["X", "s0"]


def test_recurring_states_follow_binder_kind():
    phi = parse_nutl(ALWAYS, AB)
    waa, _ = nutl_to_waa([phi], AB)
    assert waa.recurring == frozenset({"X"})
    waa_mu, _ = nutl_to_waa([parse_nutl(UNTIL, AB)], AB)
    assert waa_mu.recurring == frozenset()
    # a fresh state on a greatest-fixed-point cycle is recurring too
    waa, _ = nutl_to_waa([parse_nutl("nu_0 (X).(a & O (b | O X))", AB)], AB)
    assert waa.recurring == frozenset({"X", "s0"})


# fix vectors drawn from these, so that binders of one name recur
VECTORS = [("X",), ("Y",), ("X", "Y")]


def _reusing_nutl(rng, depth, scope=()):
    """A random closed guarded formula, as ``random_nutl`` builds, whose fix
    nodes bind the names X and Y only."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if scope and rng.random() < 0.4:
            return Next(Var(rng.choice(scope)))
        name = rng.choice(AB.letters)
        return Letter(name) if rng.random() < 0.7 else NegLetter(name)
    if roll < 0.55:
        op = rng.choice((Or, And))
        return op(_reusing_nutl(rng, depth - 1, scope), _reusing_nutl(rng, depth - 1, scope))
    if roll < 0.7:
        return Next(_reusing_nutl(rng, depth - 1, scope))
    names = rng.choice(VECTORS)
    bodies = tuple(_reusing_nutl(rng, depth - 1, scope + names) for _ in names)
    return Fix(rng.choice((MU, NU)), rng.randrange(len(names)), names, bodies)


def reused_name_differential(draws):
    """Translate ``draws`` random tuples of one or two formulas whose fixes
    reuse the names X and Y; each tuple raises SemanticError, or its final
    runs' outputs equal the Kleene semantics on every lasso |u| <= 1,
    |v| <= 2.  Returns the number translated."""
    rng = random.Random(5)
    lassos = list(exhaustive_lassos(AB, 1, 2))
    translated = 0
    for _ in range(draws):
        roots = [_reusing_nutl(rng, 3) for _ in range(rng.randint(1, 2))]
        try:
            waa, inits = nutl_to_waa(roots, AB)
        except SemanticError:
            continue
        translated += 1
        bda = BackwardDetAutomaton(waa)
        for w in lassos:
            truth = nutl_eval_lasso(roots, w)
            for i, out in enumerate(bda_final_run(bda, w).outputs(bda)):
                got = {j for j, init in enumerate(inits) if init in out}
                assert got == truth[i], ([format_nutl(f) for f in roots], str(w), i)
    return translated


def test_translation_of_reused_names_matches_semantics():
    assert reused_name_differential(3000) > 1000
