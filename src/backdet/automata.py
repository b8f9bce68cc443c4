"""Weak alternating omega-automata over explicit alphabets.

Transition conditions are positive boolean formulas over letter-set tests
and next-state references, built with the ``Or`` and ``And`` nodes that
formulas share (:mod:`backdet.node`); the free names of a condition
(``cond.free``) are the states it references.  The transition graph of an
automaton has an edge q -> q' whenever a reference to q' occurs in
delta(q); weakness means every strongly connected component of that graph
is polarity-pure (all recurring or all non-recurring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import graph
from .errors import SemanticError
from .node import And, Node, Or, subterms


@dataclass(frozen=True)
class Alphabet:
    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        object.__setattr__(self, "letters", tuple(sorted(self.letters)))

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __len__(self) -> int:
        return len(self.letters)


class LetterSet(Node):
    __slots__ = ("letters",)

    @staticmethod
    def _check(letters):
        return (frozenset(letters),)


class NextState(Node):
    __slots__ = ("state",)

    def _free(self, _):
        return frozenset({self.state})


def fold(cond: Node, atom, disj, conj, or_stop=None, and_stop=None):
    """Bottom-up walk of a condition tree: ``atom`` maps each letter test and
    next-state reference to a value, ``disj`` and ``conj`` combine the values
    of an Or or And node's two children.  An Or whose left value is
    ``or_stop``, or an And whose left value is ``and_stop`` (by identity),
    returns that value without walking its right child, so a caller passes
    only values that decide the combine.  No class subclasses the four node
    classes, so the dispatch compares types."""
    t = type(cond)
    if t is Or:
        left = fold(cond.left, atom, disj, conj, or_stop, and_stop)
        return left if left is or_stop else disj(left, fold(cond.right, atom, disj, conj, or_stop, and_stop))
    if t is And:
        left = fold(cond.left, atom, disj, conj, or_stop, and_stop)
        return left if left is and_stop else conj(left, fold(cond.right, atom, disj, conj, or_stop, and_stop))
    if t is LetterSet or t is NextState:
        return atom(cond)
    raise TypeError(f"not a condition: {cond!r}")


def dual_condition(cond: Node, alphabet: Alphabet) -> Node:
    def atom(c):
        if isinstance(c, LetterSet):
            return LetterSet(frozenset(alphabet.letters) - c.letters)
        return c

    return fold(cond, atom, And, Or)


@dataclass(frozen=True)
class SccInfo:
    """One SCC of the transition graph and its polarity, which weakness
    makes one value for all its states."""

    states: tuple[str, ...]
    recurring: bool

    @property
    def size(self) -> int:
        return len(self.states)


class WeakAlternatingAutomaton:
    """States, total transition function, and recurring/non-recurring split.

    States and letters are kept in sorted order so that every derived
    artifact (SCC enumeration, value families, file output) is reproducible.
    The SCC decomposition is computed once, listed so that every component
    appears after all components it reaches (successors first).  A mixed
    component raises SemanticError, after the structural ValueErrors.
    """

    def __init__(self, alphabet, states, delta, recurring, initial=None):
        self.alphabet = alphabet if isinstance(alphabet, Alphabet) else Alphabet(tuple(alphabet))
        self.states = tuple(sorted(states))
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        self.delta = dict(delta)
        self.recurring = frozenset(recurring)
        self.initial = frozenset(initial or ())
        self._validate()
        self.sccs = scc_decompose(self)
        self._scc_of = {q: idx for idx, scc in enumerate(self.sccs) for q in scc.states}

    def _validate(self):
        declared = set(self.states)
        missing = declared - set(self.delta)
        if missing:
            raise ValueError(f"delta not total, missing: {sorted(missing)}")
        extra = set(self.delta) - declared
        if extra:
            raise ValueError(f"delta defined for undeclared states: {sorted(extra)}")
        for q, cond in self.delta.items():
            if cond.free - declared:
                raise ValueError(f"delta({q}) references undeclared state {min(cond.free - declared)}")
        for sub in subterms(list(self.delta.values())):
            kind = type(sub)
            if kind is Or or kind is And or kind is NextState:
                continue
            bad = sorted(sub.letters.difference(self.alphabet.letters)) if kind is LetterSet else None
            if bad or kind is not LetterSet:
                q = next(q for q, cond in self.delta.items() if sub in subterms([cond]))
                if bad:
                    raise ValueError(f"delta({q}) uses letters outside the alphabet: {bad}")
                raise ValueError(f"delta({q}) holds a {kind.__name__} node, which is not a condition")
        if not self.recurring <= declared:
            raise ValueError("recurring set contains undeclared states")
        if not self.initial <= declared:
            raise ValueError("initial set contains undeclared states")

    def scc_of(self, q: str) -> int:
        """Index of q's SCC in the topologically sorted SCC list."""
        return self._scc_of[q]

    def __eq__(self, other):
        if not isinstance(other, WeakAlternatingAutomaton):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.states == other.states
            and self.delta == other.delta
            and self.recurring == other.recurring
            and self.initial == other.initial
        )

    def __repr__(self):
        return f"<WAA {len(self.states)} states, {len(self.sccs)} SCCs>"


def scc_decompose(waa: WeakAlternatingAutomaton) -> list[SccInfo]:
    """SCCs of the transition graph with their polarity.

    Components are emitted sinks-first, i.e. a component appears after every
    component it reaches.  A singleton without a self-edge is its own SCC.
    The first polarity-mixed component raises :class:`SemanticError`.
    """
    succ = {q: sorted(waa.delta[q].free) for q in waa.states}
    out = []
    for comp in graph.sccs(waa.states, succ):
        members = tuple(sorted(comp))
        rec = {q in waa.recurring for q in members}
        if len(rec) > 1:
            raise SemanticError(f"automaton is not weak, mixed SCC: {members}")
        out.append(SccInfo(members, rec.pop()))
    return out


def is_very_weak(waa: WeakAlternatingAutomaton) -> bool:
    return all(scc.size == 1 for scc in waa.sccs)


def dualize(waa: WeakAlternatingAutomaton) -> WeakAlternatingAutomaton:
    """Complement automaton: dual conditions, polarities swapped.  The
    transition graph is unchanged, so the complement is weak too."""
    delta = {q: dual_condition(c, waa.alphabet) for q, c in waa.delta.items()}
    recurring = frozenset(waa.states) - waa.recurring
    return WeakAlternatingAutomaton(waa.alphabet, waa.states, delta, recurring, waa.initial)
