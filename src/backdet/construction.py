"""Backward determinization of weak alternating automata.

A state of the constructed automaton is a value family: one value per
automaton state, drawn from {1, ..., |SCC|, inf}.  The transition function
works backward (the new family at position i is computed from the letter at
i and the family at i+1) in two stages: per-state evaluation of the
transition condition, then a per-SCC lifting controlled by the critical
value.  Acceptance is a generalized transition Buchi condition with one set
per automaton state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .automata import And, LetterSet, NextState, Or, WeakAlternatingAutomaton, validate_weak
from .errors import StateSpaceCapError

INF = math.inf

# A value is an int >= 0 or INF; a family is a value tuple aligned with the
# sorted state order of the underlying weak alternating automaton.
Value = float
ValueFamily = tuple


def norm(v: Value) -> Value:
    """Collapse finite values to 0, keep inf."""
    return INF if v == INF else 0


def neg(v: Value) -> Value:
    """Swap 0 and inf; only defined on normalized values."""
    if v == INF:
        return 0
    if v == 0:
        return INF
    raise ValueError(f"neg is only defined on 0 and inf, got {v}")


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
    values read the raw values of its own states and only the normalized
    (0/inf) values of the states outside it that its conditions refer to.
    The per-SCC step is memoized on (letter, own raw values, those outside
    values), so for an SCC of m states whose conditions read e outside
    states the memo holds at most |alphabet| * (m+1)^m * 2^e entries,
    however many words are asked.  :meth:`step` composes the per-SCC steps
    on a whole family and is memoized per (letter, family); only the
    reference enumeration and the formatting paths call it.  The full state
    space is only materialized on request.
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
        self._cache = {}
        self._space = None

    @property
    def state_space_bound(self) -> int:
        """Full state-space size: product over SCCs of (m+1)^m."""
        bound = 1
        for scc in self.waa.sccs:
            bound *= (scc.size + 1) ** scc.size
        return bound

    def eval_condition(self, q: str, letter: str, values) -> Value:
        """Intermediate value of state q after reading ``letter`` backward.

        ``values`` maps every state delta(q) refers to onto its value at
        the next position; only the normalized value of a state outside q's
        SCC is read.  May return 0; the lifting in :meth:`scc_step` restores
        the 1..|S| range.
        """
        waa = self.waa
        recurring = waa.is_recurring(q)
        q_scc = waa.scc_of(q)

        def ev(cond):
            if isinstance(cond, LetterSet):
                hit = letter in cond.letters
                if recurring:
                    return INF if hit else 0
                return 0 if hit else INF
            if isinstance(cond, NextState):
                v = values[cond.state]
                if waa.scc_of(cond.state) == q_scc:
                    return v
                v = norm(v)
                if waa.is_recurring(cond.state) != recurring:
                    v = neg(v)
                return v
            if isinstance(cond, Or):
                a, b = ev(cond.left), ev(cond.right)
                return max(a, b) if recurring else min(a, b)
            if isinstance(cond, And):
                a, b = ev(cond.left), ev(cond.right)
                return min(a, b) if recurring else max(a, b)
            raise TypeError(f"not a condition: {cond!r}")

        return ev(waa.delta[q])

    def scc_step(self, s: int, letter: str, own: tuple, outside: tuple) -> tuple:
        """SCC s's part of one backward transition, memoized.

        ``own`` holds the next position's values of the SCC's states (in
        ``waa.sccs[s].states`` order), ``outside`` the normalized values of
        ``outside_states[s]``.  Returns (lifted values, fired Buchi indices,
        critical value).
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
        key = (letter, family)
        rec = self._cache.get(key)
        if rec is None:
            rec = self._cache[key] = self._compute_step(letter, family)
        return rec

    def _compute_step(self, letter, family):
        pos = self.state_pos
        result = [None] * len(family)
        fired = set()
        critical = []
        for s, scc in enumerate(self.waa.sccs):
            own = tuple(family[pos[q]] for q in scc.states)
            outside = tuple(norm(family[pos[q]]) for q in self.outside_states[s])
            lifted, scc_fired, m = self.scc_step(s, letter, own, outside)
            for q, v in zip(scc.states, lifted):
                result[pos[q]] = v
            fired |= scc_fired
            critical.append(m)
        return TransitionRecord(letter, family, tuple(result), frozenset(fired), tuple(critical))

    def output(self, family: ValueFamily) -> frozenset:
        """Lambda: finite non-recurring values and infinite recurring ones."""
        waa = self.waa
        out = set()
        for q, v in zip(waa.states, family):
            if waa.is_recurring(q):
                if v == INF:
                    out.add(q)
            elif v != INF:
                out.add(q)
        return frozenset(out)

    def enumerate_state_space(self, cap: int) -> list[ValueFamily]:
        """All well-formed families; refuses if the bound exceeds ``cap``."""
        bound = self.state_space_bound
        if bound > cap:
            raise StateSpaceCapError(bound, cap)
        if self._space is None:
            domains = []
            for q in self.waa.states:
                size = self.waa.sccs[self.waa.scc_of(q)].size
                domains.append(list(range(1, size + 1)) + [INF])
            self._space = [tuple(f) for f in itertools.product(*domains)]
        return self._space

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

    def ev(cond):
        if isinstance(cond, LetterSet):
            return 1 if letter in cond.letters else INF
        if isinstance(cond, NextState):
            return family[pos[cond.state]]
        if isinstance(cond, Or):
            return min(ev(cond.left), ev(cond.right))
        if isinstance(cond, And):
            return max(ev(cond.left), ev(cond.right))
        raise TypeError(f"not a condition: {cond!r}")

    return tuple(ev(waa.delta[q]) for q in waa.states)
