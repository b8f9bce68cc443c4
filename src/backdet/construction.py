"""Backward determinization of weak alternating automata.

A state of the constructed automaton is a value family: one value per
automaton state, drawn from {1, ..., |SCC|, inf}.  The transition function
works backward (the new family at position i is computed from the letter at
i and the family at i+1) in two stages: per-state evaluation of the
transition condition, then a per-SCC lifting controlled by the critical
value.  An SCC's step reads raw values only from its own states; of the
states below it, it reads only whether they accept (:func:`accepts`).  So
the step of one SCC, for one letter and one acceptance pattern below it, is
a row over the SCC's local values; each row is built whole, both stages at
once for every local value, when it is first asked for, through the one
table that every SCC of its size shares (:func:`lifting_table`).  That
table also holds each local value's acceptance mask per polarity, which an
SCC's own table only scatters to the SCC's positions.
Acceptance is a generalized transition Buchi condition with one set per
automaton state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .automata import LetterSet, WeakAlternatingAutomaton, fold
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


@functools.cache
def lifting_table(size: int) -> tuple:
    """(values, code, own, lift, polar): all that SCCs of ``size`` states share.

    ``values`` lists the tuples over {1, ..., size, inf} in code order (mixed
    radix, ``itertools.product`` order), ``code`` numbers them.  In ``own``
    and ``lift`` values are ints, inf coded as size+1, so max and min act on
    codes as on values.  Column j of ``own`` holds state j's value at each
    code.  Entry k of ``lift``, one of (size+2)^size, lifts the intermediate
    values that are k's digits in base size+2 (the first state most
    significant) around the critical value m, the least natural number
    missing among them, and holds (successor code, fired bits, m).  (S,i)
    fires when no chain sits at level i: the lifting bumps every value at
    level <= i (i <= m) or no finite value reaches level i (i > top; above m
    the lifting moves nothing).  ``polar[recurring]`` holds a true and a
    false atom's columns, the Or and And combines of that polarity, and each
    code's local acceptance mask (bit j where state j accepts).
    """
    full, inf = (1 << size) - 1, size + 1
    own = list(itertools.product(range(1, size + 2), repeat=size))
    infs = [sum(1 << j for j, v in enumerate(t) if v == inf) for t in own]
    code = dict(zip(own, itertools.count()))
    lift = []
    for tilde in itertools.product(range(size + 2), repeat=size):
        finite = set(tilde) - {inf}
        m = next(m for m in itertools.count() if m not in finite)
        top = max(finite, default=0)
        lift.append((code[tuple([v if v > m else v + 1 for v in tilde])], (1 << m) - 1 | full >> top << top, m))
    values = list(itertools.product([*range(1, inf), INF], repeat=size))
    high, zero = [inf] * len(own), [0] * len(own)
    lub, glb = _pointwise(max, high, zero), _pointwise(min, zero, high)
    polar = {True: (high, zero, lub, glb, infs), False: (zero, high, glb, lub, [full ^ k for k in infs])}
    return values, dict(zip(values, itertools.count())), list(zip(*own)), lift, polar


@dataclass(frozen=True)
class TransitionRecord:
    """One application of the backward transition function.

    ``fired`` holds the generalized Buchi indices (scc index, i) this
    transition belongs to; ``critical`` maps each SCC index to the critical
    value of the transition with respect to that SCC.
    """

    result: ValueFamily
    fired: frozenset
    critical: tuple


class SccTable(NamedTuple):
    """One SCC's states' indices in the family, each value tuple's mask of
    accepting states (its polarity's local mask scattered to the positions),
    its states' columns by name and its conditions; the other fields are its
    size's and polarity's, from :func:`lifting_table`."""

    positions: tuple
    values: list
    code: dict
    accepting: list
    own: dict
    yes: list
    no: list
    disj: object
    conj: object
    lift: list
    conditions: list


def _pointwise(f, absorbing, neutral):
    """``f`` entry by entry: an absorbing ``b`` decides (fold stops at an absorbing ``a``), a neutral one drops out."""
    def combine(a, b):
        if b is neutral:
            return a
        if b is absorbing or a is neutral:
            return b
        return list(map(f, a, b))
    return combine


class BackwardDetAutomaton:
    """The backward deterministic automaton derived from a weak automaton.

    A transition is computed SCC by SCC: an SCC's next values read the raw
    values of its own states and, of the states outside it that its
    conditions refer to, only whether they accept.  The per-SCC step is
    memoized in rows: ``scc_memo[s]`` maps (letter, outside bits) to a list
    indexed by local code (:class:`SccTable`, built on first use) of
    (successor code, fired bits, critical value), built whole by
    :meth:`scc_row` when the key is first asked for.  The outside
    bits are the next position's acceptance mask (bit ``state_pos[q]``)
    within ``outside_mask[s]``, so an SCC of m states whose conditions read
    e outside states has at most |alphabet| * 2^e rows of length (m+1)^m,
    however many words are asked.  ``scc_memo`` is the only memo the
    automaton keeps: :meth:`step` composes the same rows on a whole family.
    """

    def __init__(self, waa: WeakAlternatingAutomaton):
        self.waa = waa
        self.state_pos = pos = {q: i for i, q in enumerate(waa.states)}
        # Buchi index set: (scc index, i) with 1 <= i <= |S|; one set per state.
        self.buchi_indices = tuple(
            (s, i) for s, scc in enumerate(waa.sccs) for i in range(1, scc.size + 1)
        )
        assert len(self.buchi_indices) == len(waa.states)
        # per SCC: the outside states its conditions read, as a state mask
        self.outside_mask = tuple(
            sum(1 << pos[q] for q in frozenset().union(*(waa.delta[r].free for r in scc.states)) - set(scc.states))
            for scc in waa.sccs
        )
        self.scc_tables = [None] * len(waa.sccs)
        self.scc_memo = [{} for _ in waa.sccs]

    @property
    def state_space_bound(self) -> int:
        """Full state-space size: product over SCCs of (m+1)^m."""
        return math.prod((scc.size + 1) ** scc.size for scc in self.waa.sccs)

    def scc_table(self, s: int) -> SccTable:
        """SCC s's value table, built on first use."""
        table = self.scc_tables[s]
        if table is None:
            scc = self.waa.sccs[s]
            values, code, own, lift, polar = lifting_table(scc.size)
            *atoms, local = polar[scc.recurring]
            positions = tuple([self.state_pos[q] for q in scc.states])
            scatter = [0]  # local mask -> state mask: bit j to bit positions[j]
            for p in positions:
                scatter += [k | 1 << p for k in scatter]
            table = self.scc_tables[s] = SccTable(
                positions, values, code, list(map(scatter.__getitem__, local)), dict(zip(scc.states, own)),
                *atoms, lift, [self.waa.delta[q] for q in scc.states])
        return table

    def scc_row(self, s: int, letter: str, outside: int) -> list:
        """Build SCC s's step row for ``letter`` and the outside acceptance
        bits ``outside`` (masked to ``outside_mask[s]``) into ``scc_memo[s]``
        (callers look there first): entry ``code`` holds (successor code,
        fired bits, critical value).

        Each state's condition is folded once over the SCC's int-coded value
        columns (:class:`SccTable`, which holds all that does not depend on
        the key), one entry per code.  An atom is a letter test (told by its
        type) or a state, which one ``dict.get`` finds among the own states.
        An own state is its column; a letter test or an outside state is the
        shared column ``yes`` when it holds, else ``no``: ``inf`` when its
        truth equals the state's polarity, else ``zero``, which under max and
        min absorbs the other side or drops out.  So ``yes`` decides an Or
        and ``no`` an And, and the fold does not walk the right side of a
        node whose left side decides it.  Each code's intermediate values, as
        one int, index the table's ``lift``.  A letter outside the alphabet
        raises ValueError, so the memo keeps its bound.
        """
        alphabet, pos = self.waa.alphabet.letters, self.state_pos
        if letter not in alphabet:
            raise ValueError(f"letter {letter!r} not in the alphabet {' '.join(alphabet)}")
        table = self.scc_tables[s] or self.scc_table(s)
        own, yes, no, size = table.own, table.yes, table.no, len(table.positions)
        outside &= self.outside_mask[s]

        def atom(c):
            if type(c) is LetterSet:
                return yes if letter in c.letters else no
            column = own.get(c.state)
            if column is None:
                return yes if outside >> pos[c.state] & 1 else no
            return column

        keys, *rest = [fold(c, atom, table.disj, table.conj, yes, no) for c in table.conditions]
        for column in rest:
            keys = [k * (size + 2) + v for k, v in zip(keys, column)]
        row = self.scc_memo[s][(letter, outside)] = list(map(table.lift.__getitem__, keys))
        return row

    def step(self, letter: str, family: ValueFamily) -> TransitionRecord:
        """rho(letter, family) together with critical values and fired sets;
        ValueError for a family of the wrong length or with a value outside
        its SCC's range, or a letter outside the alphabet."""
        if len(family) != len(self.state_pos):
            raise ValueError(f"family has {len(family)} values, expected {len(self.state_pos)}")
        codes = []
        accepting = 0
        for s, table in enumerate(self.scc_tables):
            table = table or self.scc_table(s)
            own = tuple([family[p] for p in table.positions])
            code = table.code.get(own)
            if code is None:
                scc = self.waa.sccs[s]
                q, v = next(qv for qv in zip(scc.states, own) if qv[1] not in (*range(1, scc.size + 1), INF))
                raise ValueError(f"state {q} has value {v!r}, outside {{1..{scc.size}, inf}}")
            accepting |= table.accepting[code]
            codes.append(code)
        result = [None] * len(family)
        fired = []
        critical = []
        for s, table in enumerate(self.scc_tables):
            outside = accepting & self.outside_mask[s]
            row = self.scc_memo[s].get((letter, outside)) or self.scc_row(s, letter, outside)
            code, bits, m = row[codes[s]]
            for p, v in zip(table.positions, table.values[code]):
                result[p] = v
            fired += [(s, i) for i in range(1, len(table.positions) + 1) if bits >> i - 1 & 1]
            critical.append(m)
        return TransitionRecord(tuple(result), frozenset(fired), tuple(critical))

    def output(self, family: ValueFamily) -> frozenset:
        """Lambda: finite non-recurring values and infinite recurring ones."""
        waa = self.waa
        return frozenset(q for q, v in zip(waa.states, family) if accepts(v, q in waa.recurring))

    def enumerate_state_space(self, cap: int) -> list[ValueFamily]:
        """All well-formed families; refuses if the bound exceeds ``cap``."""
        bound = self.state_space_bound
        if bound > cap:
            raise StateSpaceCapError(bound, cap)
        sizes = [self.waa.sccs[self.waa.scc_of(q)].size for q in self.waa.states]
        return list(itertools.product(*[[*range(1, size + 1), INF] for size in sizes]))

    def format_family(self, family: ValueFamily) -> str:
        return " ".join(f"{q}={'inf' if v == INF else int(v)}" for q, v in zip(self.waa.states, family))


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
