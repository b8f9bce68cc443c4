"""Backward determinization of weak alternating automata.

A state of the constructed automaton is a value family: one value per
automaton state, drawn from {1, ..., |SCC|, inf}.  The transition function
works backward (the new family at position i is computed from the letter at
i and the family at i+1) in two stages: per-state evaluation of the
transition condition, then a per-SCC lifting controlled by the critical
value.  An SCC's step reads raw values only from its own states; of the
states below it, it reads only whether they accept (:func:`accepts`).
Acceptance is a generalized transition Buchi condition with one set per
automaton state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .automata import LetterSet, WeakAlternatingAutomaton, fold, validate_weak
from .errors import StateSpaceCapError

INF = math.inf

# A value is an int >= 0 or INF; a family is a value tuple aligned with the
# sorted state order of the underlying weak alternating automaton.
Value = float
ValueFamily = tuple


def accepts(v: Value, recurring: bool) -> bool:
    """The lambda rule: a recurring state accepts where its value is inf, a
    non-recurring one where its value is finite."""
    return (v == INF) == recurring


@dataclass(frozen=True)
class TransitionRecord:
    """One application of the backward transition function.

    ``fired`` holds the generalized Buchi indices (scc index, i) this
    transition belongs to; ``critical`` maps each SCC index to the critical
    value of the transition with respect to that SCC.
    """

    letter: str
    source: ValueFamily
    result: ValueFamily
    fired: frozenset
    critical: tuple


class BackwardDetAutomaton:
    """The backward deterministic automaton derived from a weak automaton.

    A transition is computed SCC by SCC (:meth:`scc_step`): an SCC's next
    values read the raw values of its own states and, of the states outside
    it that its conditions refer to, only whether they accept.  The per-SCC
    step is memoized on (letter, own raw values, those acceptance bits), so
    for an SCC of m states whose conditions read e outside states the memo
    holds at most |alphabet| * (m+1)^m * 2^e entries, however many words
    are asked.  ``scc_memo`` is the only memo the automaton keeps:
    :meth:`step` composes the per-SCC steps on a whole family, and the full
    state space is enumerated afresh on each request.
    """

    def __init__(self, waa: WeakAlternatingAutomaton):
        mixed = validate_weak(waa)
        if mixed:
            raise ValueError(f"automaton is not weak, mixed SCC: {mixed[0].states}")
        self.waa = waa
        self.state_pos = {q: i for i, q in enumerate(waa.states)}
        # Buchi index set: (scc index, i) with 1 <= i <= |S|; one set per state.
        self.buchi_indices = tuple(
            (s, i) for s, scc in enumerate(waa.sccs) for i in range(1, scc.size + 1)
        )
        assert len(self.buchi_indices) == len(waa.states)
        # per SCC: the outside states its conditions read, sorted
        self.outside_states = tuple(
            tuple(sorted(frozenset().union(*map(waa.successors, scc.states)) - set(scc.states)))
            for scc in waa.sccs
        )
        self.scc_memo = [{} for _ in waa.sccs]

    @property
    def state_space_bound(self) -> int:
        """Full state-space size: product over SCCs of (m+1)^m."""
        bound = 1
        for scc in self.waa.sccs:
            bound *= (scc.size + 1) ** scc.size
        return bound

    def eval_condition(self, q: str, letter: str, values) -> Value:
        """Intermediate value of state q after reading ``letter`` backward.

        ``values`` maps each state of q's SCC that delta(q) refers to onto
        its value at the next position, and each other state it refers to
        onto whether that state accepts there.  A letter test or an outside
        state evaluates to inf when its truth equals q's polarity, else to 0.
        May return 0; the lifting in :meth:`scc_step` restores the 1..|S|
        range.
        """
        waa = self.waa
        recurring = waa.is_recurring(q)
        q_scc = waa.scc_of(q)

        def atom(c):
            if isinstance(c, LetterSet):
                holds = letter in c.letters
            elif waa.scc_of(c.state) == q_scc:
                return values[c.state]
            else:
                holds = values[c.state]
            return INF if holds == recurring else 0

        if recurring:
            return fold(waa.delta[q], atom, max, min)
        return fold(waa.delta[q], atom, min, max)

    def scc_step(self, s: int, letter: str, own: tuple, outside: tuple) -> tuple:
        """SCC s's part of one backward transition, memoized.

        ``own`` holds the next position's values of the SCC's states (in
        ``waa.sccs[s].states`` order), ``outside`` for each state of
        ``outside_states[s]`` whether it accepts there (:func:`accepts`).
        Returns (lifted values, fired Buchi indices, critical value).
        """
        memo = self.scc_memo[s]
        key = (letter, own, outside)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._compute_scc_step(s, letter, own, outside)
        return got

    def _compute_scc_step(self, s, letter, own, outside):
        scc = self.waa.sccs[s]
        values = dict(zip(scc.states, own))
        values.update(zip(self.outside_states[s], outside))
        tilde = [self.eval_condition(q, letter, values) for q in scc.states]
        finite = {v for v in tilde if v != INF}
        m = 0
        while m in finite:
            m += 1
        lifted = tilde if m == 0 else [v if v > m else v + 1 for v in tilde]
        # (S,i) fires when the lifting bumps every value at level <= i
        # (i <= m) or no finite value at level >= i survives at all;
        # either way no value chain can sit at level i across this step
        fired = frozenset(
            (s, i)
            for i in range(1, scc.size + 1)
            if i <= m or not any(v != INF and v >= i for v in lifted)
        )
        return tuple(lifted), fired, m

    def step(self, letter: str, family: ValueFamily) -> TransitionRecord:
        """rho(letter, family) together with critical values and fired sets."""
        pos, recurring = self.state_pos, self.waa.recurring
        result = [None] * len(family)
        fired = set()
        critical = []
        for s, scc in enumerate(self.waa.sccs):
            own = tuple([family[pos[q]] for q in scc.states])
            outside = tuple([accepts(family[pos[q]], q in recurring) for q in self.outside_states[s]])
            lifted, scc_fired, m = self.scc_step(s, letter, own, outside)
            for q, v in zip(scc.states, lifted):
                result[pos[q]] = v
            fired |= scc_fired
            critical.append(m)
        return TransitionRecord(letter, family, tuple(result), frozenset(fired), tuple(critical))

    def output(self, family: ValueFamily) -> frozenset:
        """Lambda: finite non-recurring values and infinite recurring ones."""
        waa = self.waa
        return frozenset(q for q, v in zip(waa.states, family) if accepts(v, waa.is_recurring(q)))

    def enumerate_state_space(self, cap: int) -> list[ValueFamily]:
        """All well-formed families; refuses if the bound exceeds ``cap``."""
        bound = self.state_space_bound
        if bound > cap:
            raise StateSpaceCapError(bound, cap)
        domains = []
        for q in self.waa.states:
            size = self.waa.sccs[self.waa.scc_of(q)].size
            domains.append(list(range(1, size + 1)) + [INF])
        return list(itertools.product(*domains))

    def format_family(self, family: ValueFamily) -> str:
        parts = []
        for q, v in zip(self.waa.states, family):
            parts.append(f"{q}={'inf' if v == INF else int(v)}")
        return " ".join(parts)


def basic_step(waa: WeakAlternatingAutomaton, letter: str, family: ValueFamily) -> ValueFamily:
    """The unrefined two-valued transition function.

    Values are restricted to {1, inf}; no lifting, no polarity, no Buchi
    sets.  Kept only to exhibit where the naive construction breaks down.
    """
    pos = {q: i for i, q in enumerate(waa.states)}
    for v in family:
        if v not in (1, INF):
            raise ValueError("basic_step expects values in {1, inf}")

    def atom(c):
        if isinstance(c, LetterSet):
            return 1 if letter in c.letters else INF
        return family[pos[c.state]]

    return tuple(fold(waa.delta[q], atom, min, max) for q in waa.states)
