import random

import pytest

from backdet import graph
from backdet.automata import Alphabet
from backdet.construction import INF
from backdet.errors import SemanticError
from backdet.lasso import LassoWord, bda_final_run
from backdet.nba import (
    NBA,
    _quotient_graph,
    build_rank_formulas,
    nba_accept_table,
    nba_accepts_lasso,
    nba_to_bda,
    peel_ranks,
)
from backdet.node import subterms
from backdet.nutl import format_nutl, nutl_eval_lasso, parse_nutl
from backdet.validation import exhaustive_lassos_total, random_nba
from test_acceptance import predicted_rank_states

AB = Alphabet(("a", "b"))


def loop_nba():
    # accepting self loop on a; no other transitions
    return NBA(AB, ["q0"], ["q0"], [("q0", "a", "q0")], ["q0"])


def two_state_nba():
    # q0 reads anything and may move to q1; q1 loops on b and is accepting
    return NBA(
        AB,
        ["q0", "q1"],
        ["q0"],
        [
            ("q0", "a", "q0"),
            ("q0", "a", "q1"),
            ("q0", "b", "q0"),
            ("q1", "b", "q1"),
        ],
        ["q1"],
    )


def test_nba_validation():
    with pytest.raises(ValueError):
        NBA(AB, ["q"], ["q"], [("q", "a", "nope")], [])
    with pytest.raises(ValueError):
        NBA(AB, ["q"], ["q"], [("q", "z", "q")], [])
    with pytest.raises(ValueError):
        NBA(AB, ["q"], ["nope"], [], [])
    # a repeated name would give the pipeline one tuple component per copy
    with pytest.raises(ValueError, match="duplicate state ids"):
        NBA(AB, ["q", "q"], ["q"], [("q", "a", "q")], ["q"])


def test_accepts_lasso_oracle():
    nba = two_state_nba()
    assert nba_accepts_lasso(nba, LassoWord(("a",), ("b",)), "q0")
    assert not nba_accepts_lasso(nba, LassoWord((), ("a",)), "q0")
    assert nba_accepts_lasso(nba, LassoWord((), ("b",)), "q1")
    assert not nba_accepts_lasso(nba, LassoWord((), ("a",)), "q1")
    assert any(nba_accepts_lasso(nba, LassoWord(("a", "a"), ("b",)), q) for q in nba.initial)


def test_nba_accepts_lasso_rejects_unknown_position_and_state():
    nba = two_state_nba()
    w = LassoWord((), ("a",))
    with pytest.raises(ValueError, match="position 1 outside quotient range"):
        nba_accepts_lasso(nba, w, "q0", 1)
    with pytest.raises(ValueError, match="unknown state 'nope'"):
        nba_accepts_lasso(nba, w, "nope")


def test_accept_table_is_the_rank_inf_vertices_and_the_per_state_oracle():
    # one search answers every state at every position; it must agree with
    # the peeling residue and with the per-vertex call
    rng = random.Random(3)
    lassos = list(exhaustive_lassos_total(AB, 4))
    for n in (1, 2, 3, 4):
        for _ in range(3):
            nba = random_nba(rng, AB, n)
            for w in lassos:
                table = nba_accept_table(nba, w)
                ranks = peel_ranks(nba, w).ranks
                assert len(table) == w.positions
                for i, accepted in enumerate(table):
                    assert accepted == {q for q in nba.states if ranks[(i, q)] == INF}, (str(w), i)
                    for q in nba.states:
                        assert nba_accepts_lasso(nba, w, q, i) == (q in accepted), (str(w), i, q)


def peel_ranks_on_graphs(nba, w):
    """The ranks by peeling the run DAG as a graph: each round restricts the
    successor lists to the live vertices and runs an SCC search on them."""
    succ = _quotient_graph(nba, w)

    def restrict(alive):
        return {v: [u for u in succ[v] if u in alive] for v in alive}

    def finitary_in(alive):
        sub = restrict(alive)
        cyclic = [v for comp in graph.sccs(alive, sub) if graph.is_cyclic(comp, sub) for v in comp]
        return alive - graph.reaches(alive, sub, cyclic)

    def b_free_in(alive):
        return alive - graph.reaches(alive, restrict(alive), {v for v in alive if v[1] in nba.buchi})

    ranks, alive, rounds = {}, set(succ), 0
    while alive:
        fin = finitary_in(alive)
        alive -= fin
        free = b_free_in(alive)
        alive -= free
        ranks.update(dict.fromkeys(fin, 2 * rounds) | dict.fromkeys(free, 2 * rounds + 1))
        if not fin and not free:
            break
        rounds += 1
    return ranks | dict.fromkeys(alive, INF)


def ladder_nba(rng, n):
    """Edges lead only to the same or a lower state, and no Buchi state
    loops on itself, so Buchi-free and finitary layers alternate and the
    ranks climb."""
    states = [f"q{i}" for i in range(n)]
    buchi = [q for q in states if rng.random() < 0.5]
    transitions = [(q, a, q2) for i, q in enumerate(states) for a in AB for q2 in states[:i + 1]
                   if (q2 != q or q not in buchi) and rng.random() < 0.7]
    return NBA(AB, states, [states[-1]], transitions, buchi)


def test_peeling_on_bit_masks_matches_peeling_on_graphs():
    # random and ladder NBAs of 1 to 4 states, on every lasso |u| + |v| <= 4
    rng = random.Random(8)
    lassos = list(exhaustive_lassos_total(AB, 4))
    seen = set()
    for n in (1, 2, 3, 4):
        for nba in [random_nba(rng, AB, n) for _ in range(4)] + [ladder_nba(rng, n) for _ in range(8)]:
            for w in lassos:
                ranks = peel_ranks(nba, w).ranks
                assert ranks == peel_ranks_on_graphs(nba, w), (n, str(w))
                seen.update(ranks.values())
    assert seen == {0, 1, 2, 3, INF}, seen


def test_rank_formulas_match_peeling_where_ranks_three_and_four_hold():
    # the random NBAs of the nba sweep peel only to rank 2; ladders climb
    # higher, so every level of chi is checked where a vertex first enters it
    rng = random.Random(2)
    lassos = list(exhaustive_lassos_total(AB, 4))
    seen = set()
    for nba in [ladder_nba(rng, 4) for _ in range(8)]:
        n = len(nba.states)
        levels = range(2 * n)
        flat = [f for level in build_rank_formulas(nba).chi for f in level]
        for w in lassos:
            truth = nutl_eval_lasso(flat, w)
            for (p, q), r in peel_ranks(nba, w).ranks.items():
                j = nba.states.index(q)
                assert [i * n + j in truth[p] for i in levels] == [r <= i for i in levels], (str(w), p, q)
                seen.add(r)
    assert {3, 4} <= seen, seen


def test_peel_ranks_loop():
    nba = loop_nba()
    dag = peel_ranks(nba, LassoWord((), ("a",)))
    assert dag.ranks[(0, "q0")] == INF
    dag = peel_ranks(nba, LassoWord((), ("b",)))
    # no transition on b: the vertex is a dead end, rank 0
    assert dag.ranks[(0, "q0")] == 0


def test_peel_ranks_bounded():
    nba = two_state_nba()
    n = len(nba.states)
    for w in (LassoWord((), ("a",)), LassoWord(("a",), ("b",)), LassoWord((), ("a", "b"))):
        dag = peel_ranks(nba, w)
        for v, r in dag.ranks.items():
            assert r == INF or r < 2 * n


def test_rank_matches_acceptance():
    nba = two_state_nba()
    for w in (LassoWord((), ("a",)), LassoWord(("a",), ("b",)), LassoWord((), ("b",))):
        dag = peel_ranks(nba, w)
        for q in nba.states:
            assert (dag.ranks[(0, q)] == INF) == nba_accepts_lasso(nba, w, q)


def test_rank_formula_levels():
    nba = loop_nba()
    table = build_rank_formulas(nba)
    assert len(table.chi) == 2  # 2n blocks for n=1
    w = LassoWord((), ("b",))
    dag = peel_ranks(nba, w)
    truth = nutl_eval_lasso([level[0] for level in table.chi], w)
    for i in range(2):
        got = {k for k, s in enumerate(truth) if i in s}
        assert got == {k for k in range(w.positions) if dag.ranks[(k, "q0")] <= i}


def test_final_tuple_is_acceptance():
    nba = two_state_nba()
    table = build_rank_formulas(nba)
    for w in (LassoWord((), ("a",)), LassoWord(("a",), ("b",))):
        truth = nutl_eval_lasso(list(table.final_tuple), w)
        assert tuple({nba.states[j] for j in s} for s in truth) == nba_accept_table(nba, w)


def test_evaluator_one_formula_per_call_agrees_with_one_batched_call():
    # a batched call shares the closed systems of all its roots; each chi
    # and final-tuple component asked alone must read the same positions
    rng = random.Random(3)
    lassos = list(exhaustive_lassos_total(AB, 4))
    for n in (1, 2, 3):
        for _ in range(3):
            table = build_rank_formulas(random_nba(rng, AB, n))
            roots = [f for level in table.chi for f in level] + list(table.final_tuple)
            for w in lassos:
                batched = nutl_eval_lasso(roots, w)
                for j, f in enumerate(roots):
                    got = [0 in s for s in nutl_eval_lasso([f], w)]
                    assert got == [j in s for s in batched], (n, j, str(w))


def test_successors_are_a_fresh_sorted_list():
    nba = NBA(AB, ["q", "p", "r"], ["q"], [("q", "a", "r"), ("q", "a", "p"), ("r", "b", "q")], [])
    got = nba.successors("q", "a")
    assert got == ["p", "r"] and nba.successors("p", "a") == []
    got.append("q")
    assert nba.successors("q", "a") == ["p", "r"]


def test_rank_formula_disjoint_levels():
    # for fixed j the chi values are nested, so successive differences and
    # the residue partition the positions
    nba = two_state_nba()
    table = build_rank_formulas(nba)
    w = LassoWord((), ("a", "b"))
    truth = nutl_eval_lasso([level[0] for level in table.chi], w)
    prev = set()
    for i in range(len(table.chi)):
        cur = {k for k, s in enumerate(truth) if i in s}
        assert prev <= cur
        prev = cur


def cycle_nba():
    # q0 and q1 swap on every letter; only q1 is accepting
    return NBA(
        AB,
        ["q0", "q1"],
        ["q0"],
        [(p, a, q) for p, q in (("q0", "q1"), ("q1", "q0")) for a in ("a", "b")],
        ["q1"],
    )


def test_pipeline_state_count():
    # level i splits into the NBA's SCCs, with Buchi states cut out as
    # singletons at odd levels (see build_rank_formulas); a state that no
    # condition names is not built
    def levels(*blocks):
        return {frozenset(block.split()) for block in blocks}

    expected = [
        (loop_nba(), levels("X0_0", "X1_0")),
        # q0 -> q1 has no way back, and q1 is Buchi: all singletons
        (two_state_nba(), levels(*(f"X{i}_{j}" for i in range(4) for j in range(2)))),
        # one NBA cycle: whole even levels, split odd levels; only the Buchi
        # q1 moves to q0, so X1_0 is not built
        (cycle_nba(), levels("X0_0 X0_1", "X1_1", "X2_0 X2_1", "X3_0", "X3_1")),
    ]
    for nba, sccs in expected:
        res = nba_to_bda(nba)
        assert set(res.waa.states) == set().union(*sccs) == predicted_rank_states(nba)
        assert {frozenset(scc.states) for scc in res.waa.sccs} == sccs


def test_pipeline_language():
    nba = two_state_nba()
    res = nba_to_bda(nba)
    for w in (
        LassoWord((), ("a",)),
        LassoWord((), ("b",)),
        LassoWord(("a",), ("b",)),
        LassoWord(("b", "a"), ("b",)),
    ):
        assert res.outputs(bda_final_run(res.bda, w)) == nba_accept_table(nba, w), str(w)


def test_rank_table_is_a_dag_linear_in_levels():
    # chi[i] nests chi[i-1], so the table's tree size doubles per level; its
    # distinct nodes grow by the same count every two levels
    n = 5
    nba = random_nba(random.Random(5), AB, n)
    res = nba_to_bda(nba)
    chi = res.formulas.chi
    counts = [len(subterms([f for level in chi[: i + 1] for f in level])) for i in range(2 * n)]
    for i in range(3, 2 * n):
        assert counts[i] - counts[i - 2] == counts[3] - counts[1]
    # dualizing maps distinct nodes to distinct nodes
    assert len(subterms(res.formulas.final_tuple)) == counts[-1]
    assert set(res.waa.states) == predicted_rank_states(nba)


def test_pipeline_result_repr_stays_small():
    # printed as trees, the rank formulas grow exponentially with the
    # levels; the repr leaves them out
    res = nba_to_bda(random_nba(random.Random(5), AB, 5))
    assert len(repr(res)) < 2048
    assert len(repr(res.formulas)) < 2048


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_formulas_print_each_node_once_and_parse_back(n):
    # NBAs drawn as the nba-compile benchmark draws them: n outgoing
    # transitions per state, half of all possible, one initial and one
    # Buchi state
    rng = random.Random(n)
    states = [f"q{i}" for i in range(n)]
    edges = [(a, q) for a in AB for q in states]
    for _ in range(3):
        transitions = [(p, a, q) for p in states for a, q in rng.sample(edges, n)]
        nba = NBA(AB, states, [rng.choice(states)], transitions, [rng.choice(states)])
        for f in build_rank_formulas(nba).final_tuple:
            text = format_nutl(f)
            assert parse_nutl(text, AB) is f
            # 12-17 characters per distinct node for n = 3-6; printed as
            # a tree, n = 3 takes about 500
            assert len(text) <= 20 * len(subterms([f]))


def test_rank_formulas_need_a_state():
    with pytest.raises((SemanticError, ValueError)):
        build_rank_formulas(NBA(AB, [], [], [], []))
