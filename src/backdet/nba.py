"""Nondeterministic Buchi automata and their backward determinization.

The route goes through canonical ranks: the run DAG of an NBA on a word is
peeled round by round (drop vertices with finitely many descendants, then
vertices that see no Buchi state), assigning even/odd ranks; a vertex keeps
rank infinity exactly when some run from it hits the Buchi set infinitely
often.  The rank predicates are definable by vectorial fixed-point
formulas, whose negations feed the weak-alternating-to-backward pipeline.

The oracle :func:`nba_accept_table` answers one frozenset of accepting
states per quotient position, as ``BackwardRun.outputs`` does, from one SCC
search; :func:`peel_ranks` peels on vertex bit masks, checked by that search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import Alphabet
from .construction import INF, BackwardDetAutomaton
from .errors import SemanticError
from .lasso import LassoWord
from . import graph, nutl
from .nutl import Fix, Letter, Next as NNext, Var, dual_nutl


@dataclass(frozen=True)
class NBA:
    alphabet: Alphabet
    states: tuple[str, ...]
    initial: frozenset
    transitions: frozenset
    buchi: frozenset

    def __init__(self, alphabet, states, initial, transitions, buchi):
        alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(tuple(alphabet))
        states = tuple(sorted(states))
        if len(set(states)) != len(states):
            raise ValueError("duplicate state ids")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", frozenset(initial))
        object.__setattr__(self, "transitions", frozenset(tuple(t) for t in transitions))
        object.__setattr__(self, "buchi", frozenset(buchi))
        declared = set(states)
        for q, a, q2 in self.transitions:
            if q not in declared or q2 not in declared:
                raise ValueError(f"transition {q}-{a}->{q2} uses undeclared state")
            if a not in alphabet:
                raise ValueError(f"transition letter {a!r} not in alphabet")
        for name, group in (("initial", self.initial), ("buchi", self.buchi)):
            if not group <= declared:
                raise ValueError(f"{name} set contains undeclared states")
        # derived, not a field: equality and hashing read the fields only
        succ = {}
        for q, a, q2 in sorted(self.transitions):
            succ.setdefault((q, a), []).append(q2)
        object.__setattr__(self, "_succ", succ)

    def successors(self, q: str, a: str) -> list[str]:
        return list(self._succ.get((q, a), ()))


def _quotient_graph(nba: NBA, w: LassoWord):
    """Run-DAG quotient: vertices (position, state), edges by the letter at
    each position; the infinite DAG folds onto it positionwise."""
    succ = {}
    for i in range(w.positions):
        a = w.letter(i)
        j = w.succ(i)
        for q in nba.states:
            succ[(i, q)] = [(j, q2) for q2 in nba.successors(q, a)]
    return succ


def _reaches_cycle(vertices, succ, buchi):
    """Vertices with a path to a cycle through a vertex of a ``buchi`` state."""
    on_cycles = set()
    for comp in graph.sccs(vertices, succ):
        if graph.is_cyclic(comp, succ) and any(state in buchi for (_, state) in comp):
            on_cycles.update(comp)
    return graph.reaches(vertices, succ, on_cycles)


def nba_accept_table(nba: NBA, w: LassoWord) -> tuple:
    """The NBA states accepting the suffix at each quotient position, one
    frozenset per position, the shape of :meth:`BackwardRun.outputs`."""
    succ = _quotient_graph(nba, w)
    accepting = _reaches_cycle(list(succ), succ, nba.buchi)
    return tuple(
        frozenset(q for q in nba.states if (i, q) in accepting) for i in range(w.positions)
    )


def nba_accepts_lasso(nba: NBA, w: LassoWord, q: str, i: int = 0) -> bool:
    """True iff some run from q over the suffix at position i visits the
    Buchi set infinitely often: one vertex of :func:`nba_accept_table`."""
    if not 0 <= i < w.positions:
        raise ValueError(f"position {i} outside quotient range")
    if q not in nba.states:
        raise ValueError(f"unknown state {q!r}")
    succ = _quotient_graph(nba, w)
    return (i, q) in _reaches_cycle(list(succ), succ, nba.buchi)


@dataclass
class QuotientRunDag:
    """``ranks`` maps each (position, state) vertex of the quotient run DAG
    to its canonical rank: a natural number below twice the state count, or
    INF for the vertices that reach a cycle through a Buchi vertex."""

    ranks: dict


def peel_ranks(nba: NBA, w: LassoWord) -> QuotientRunDag:
    """Alternately strip finitary and Buchi-free vertices, ranking them
    2i and 2i+1 per round; what survives is Buchi-recurring (rank INF).
    On vertex bit masks, a round's finitary vertices lie outside the
    greatest live set whose vertices all have a successor in it, and its
    Buchi-free ones outside the least set that holds the live Buchi
    vertices and every live vertex with an edge into it.  An SCC search
    of the whole DAG checks the residue."""
    succ = _quotient_graph(nba, w)
    vertices = list(succ)
    index = {v: b for b, v in enumerate(vertices)}
    out = [sum(1 << index[u] for u in succ[v]) for v in vertices]  # successor masks
    buchi = sum(1 << b for b, (_, q) in enumerate(vertices) if q in nba.buchi)

    def pre(s):  # the vertices with a successor in s
        return sum(1 << b for b, o in enumerate(out) if o & s)

    ranks = dict.fromkeys(vertices, INF)
    alive, rounds = (1 << len(vertices)) - 1, 0
    while alive:
        start = alive
        while (nxt := alive & pre(alive)) != alive:
            alive = nxt
        reach = alive & buchi
        while (nxt := alive & (reach | pre(reach))) != reach:
            reach = nxt
        if reach == start:
            break
        for b, v in enumerate(vertices):
            if (start & ~reach) >> b & 1:
                ranks[v] = 2 * rounds + (alive >> b & 1)  # odd: Buchi-free
        alive, rounds = reach, rounds + 1
    assert rounds <= len(nba.states), "peeling must terminate within n rounds"
    residue = {v for v, r in ranks.items() if r == INF}
    assert residue == _reaches_cycle(vertices, succ, nba.buchi), "peeling residue must be the Buchi-recurring vertices"
    return QuotientRunDag(ranks)


@dataclass
class RankFormulaTable:
    """chi[i][j]: positions where vertex (pos, q_j) has canonical rank <= i.

    ``final_tuple`` holds the negations of the top-level formulas: component
    j is true at a position exactly when q_j accepts the suffix there.
    """

    chi: list
    final_tuple: tuple


def build_rank_formulas(nba: NBA) -> RankFormulaTable:
    """Rank formulas chi[i][j] for the 2n levels i and the n states q_j.

    Level i is one fixed point (least at even i, greatest at odd i) over the
    variables X{i}_{j}.  Each body refers to lower levels through chi[i-1],
    and to its own level only along the NBA's transitions: at even i, and at
    odd i for a non-Buchi q_j, X{i}_{j} reads X{i}_{k} under a next-step
    exactly when some letter moves q_j to q_k.  At odd i a Buchi q_j gets
    the body chi[i-1][j] alone, with no same-level reference, since a Buchi
    vertex has rank <= 2r+1 iff it has rank <= 2r.
    So the SCCs of level i are the NBA's SCCs, taken over all states at even
    i and over the non-Buchi states at odd i, with each Buchi state a
    singleton at odd i; no SCC is larger than n.
    """
    n = len(nba.states)
    if n < 1:
        raise SemanticError("rank formulas need at least one state")
    letters = list(nba.alphabet)

    def var(i, j):
        return f"X{i}_{j}"

    def letter_term(i, j):
        # one disjunct per letter: the letter holds now and every successor
        # satisfies the level-i variable; no successors leaves just the letter
        terms = []
        for a in letters:
            conj = None
            for k, q2 in enumerate(nba.states):
                if (nba.states[j], a, q2) in nba.transitions:
                    atom = NNext(Var(var(i, k)))
                    conj = atom if conj is None else nutl.And(conj, atom)
            term = Letter(a) if conj is None else nutl.And(Letter(a), conj)
            terms.append(term)
        return reduce(nutl.Or, terms)

    chi = []
    for i in range(2 * n):
        names = tuple(var(i, j) for j in range(n))
        bodies = []
        for j in range(n):
            if i == 0:
                body = letter_term(0, j)
            elif i % 2 == 1 and nba.states[j] in nba.buchi:
                body = chi[i - 1][j]
            else:
                body = nutl.Or(chi[i - 1][j], letter_term(i, j))
            bodies.append(body)
        kind = nutl.NU if i % 2 == 1 else nutl.MU
        chi.append([Fix(kind, j, names, tuple(bodies)) for j in range(n)])

    final = tuple(dual_nutl(chi[2 * n - 1][j]) for j in range(n))
    return RankFormulaTable(chi, final)


@dataclass
class NbaPipelineResult:
    nba: NBA
    formulas: RankFormulaTable
    waa: object
    initial_states: list
    bda: BackwardDetAutomaton

    def outputs(self, run) -> tuple:
        """The NBA states accepting at each quotient position, read off the
        final run's outputs; the shape of :func:`nba_accept_table`."""
        return tuple(
            frozenset(q for q, name in zip(self.nba.states, self.initial_states) if name in out)
            for out in run.outputs(self.bda)
        )


def nba_to_bda(nba: NBA) -> NbaPipelineResult:
    """Full pipeline: rank formulas -> optimized translation -> backward
    deterministic automaton.

    The intermediate weak automaton has one state X{i}_{j} per rank-formula
    variable, 2n^2 in all.  Its SCCs are those of ``build_rank_formulas``:
    each lies inside one level and follows the NBA's own SCCs there, with
    Buchi states split off as singletons at odd levels.
    """
    table = build_rank_formulas(nba)
    waa, initial_states = nutl.nutl_to_waa_optimized(list(table.final_tuple), nba.alphabet)
    bda = BackwardDetAutomaton(waa)
    return NbaPipelineResult(nba, table, waa, initial_states, bda)
