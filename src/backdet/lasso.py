"""Ultimately periodic words and run computation on them.

A lasso word u.v^omega is finitely represented by its prefix and period;
all per-position questions are answered on the quotient positions
0 .. |u|+|v|-1, where the successor of the last position wraps back to |u|.
:class:`LassoWord` owns this quotient rule.  The semantic oracles read it
through three primitives over position sets held as int bit masks (bit i
for position i): ``full``, ``mask(letter)`` and ``pre(s)``.

This module contains the two semantic routes that every construction is
checked against: a fixed-point acceptance oracle evaluated directly on the
weak alternating automaton, and the final-run computation for the derived
backward deterministic automaton.  The oracle answers in the shape of the
run's outputs (:meth:`BackwardRun.outputs`), one set of accepting states
per quotient position, and :func:`cross_validate` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from . import graph
from .automata import And, NextState, Or, WeakAlternatingAutomaton
from .construction import INF, BackwardDetAutomaton, TransitionRecord
from .errors import MultipleFinalRunsError, NoFinalRunError

DEFAULT_ENUMERATION_CAP = 1 << 16


@dataclass(frozen=True)
class LassoWord:
    """The word prefix.period^omega on its quotient positions.

    ``positions`` is |u|+|v|, ``loop_start`` is |u|, and ``full`` is the
    mask of all positions.
    """

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("lasso period must be non-empty")
        prefix, period = tuple(self.prefix), tuple(self.period)
        masks = {}
        for i, a in enumerate(prefix + period):
            masks[a] = masks.get(a, 0) | 1 << i
        n = len(prefix) + len(period)
        fields = {"prefix": prefix, "period": period, "positions": n,
                  "loop_start": len(prefix), "full": (1 << n) - 1, "_masks": masks}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def succ(self, i: int) -> int:
        return i + 1 if i + 1 < self.positions else self.loop_start

    def mask(self, letter: str) -> int:
        """The positions that carry ``letter``."""
        return self._masks.get(letter, 0)

    def pre(self, s: int) -> int:
        """The positions whose successor is in ``s``: every bit moves down
        one place, and the bit of the loop start wraps to the last position."""
        return (s >> 1) | ((s >> self.loop_start) & 1) << (self.positions - 1)

    def __str__(self):
        return " ".join(self.prefix) + " ; " + " ".join(self.period)


def waa_accept_table(waa: WeakAlternatingAutomaton, w: LassoWord) -> tuple:
    """The states accepting at each quotient position, one frozenset per
    position, the shape of :meth:`BackwardRun.outputs`.

    Each state holds a position mask.  The SCCs, each of one polarity, are
    evaluated in topological order (successors first): a non-recurring
    SCC's masks start empty and rise to the least fixed point, a recurring
    SCC's start full and fall to the greatest, updated in place.  A
    condition reads letters at the current position and states at the
    successor position (``w.pre``), and lower SCCs are settled by then: one
    evaluation settles a lone state that reads none of its own.  The masks
    become per-position sets at the end.
    """
    full, pre = w.full, w.pre
    val = {}

    def ev(cond):
        t = type(cond)
        if t is NextState:
            return pre(val[cond.state])
        if t is And:
            left = ev(cond.left)
            return left and left & ev(cond.right)
        if t is Or:
            left = ev(cond.left)
            return left if left == full else left | ev(cond.right)
        # a LetterSet, the one node class left after validation
        got = 0
        for a in cond.letters:
            got |= w.mask(a)
        return got

    for scc in waa.sccs:
        q = scc.states[0]
        if len(scc.states) == 1 and q not in waa.delta[q].free:
            val[q] = ev(waa.delta[q])
            continue
        val.update(dict.fromkeys(scc.states, full if scc.recurring else 0))
        changed = True
        while changed:
            changed = False
            for q in scc.states:
                got = ev(waa.delta[q])
                if got != val[q]:
                    val[q] = got
                    changed = True
    return tuple(frozenset(q for q, m in val.items() if m >> i & 1) for i in range(w.positions))


@dataclass(frozen=True)
class BackwardRun:
    """The unique final run of a backward deterministic automaton on a lasso.

    ``families[i]`` is the automaton state at quotient position i,
    assembled once from each SCC's column of value tuples, and
    ``accepting[i]`` its lambda as a state mask (bit ``bda.state_pos[q]``).
    :meth:`record` rebuilds the transition into position i by ``bda.step``.
    """

    word: LassoWord
    families: tuple
    accepting: tuple

    def record(self, bda: BackwardDetAutomaton, i: int) -> TransitionRecord:
        return bda.step(self.word.letter(i), self.families[self.word.succ(i)])

    def outputs(self, bda: BackwardDetAutomaton) -> tuple:
        """Each distinct mask decoded once, by its set bits (bit p is the
        state ``bda.waa.states[p]``)."""
        states, decoded = bda.waa.states, {}
        for mask in set(self.accepting):
            got, m = [], mask
            while m:
                got.append(states[(m & -m).bit_length() - 1])
                m &= m - 1
            decoded[mask] = frozenset(got)
        return tuple(map(decoded.__getitem__, self.accepting))


def _final_candidates(starts, period, need):
    """One period from every start, and the starts on final h-cycles.

    ``period(start)`` maps a value at a period boundary to its image under h,
    the value one period earlier, and to the Buchi indices fired on the way,
    as a set or as a bit mask like ``need``.  Returns the starts on the
    h-cycles that fire every index in ``need`` (each rotation of a final
    cycle is a distinct candidate run), the image of every start, and the
    h-cycles.  Every image must lie among the starts.
    """
    image, fired = {}, {}
    for start in starts:
        image[start], fired[start] = period(start)
    cycles = graph.functional_cycles(image)
    finals = [f for cyc in cycles if need & reduce(or_, map(fired.__getitem__, cyc)) == need for f in cyc]
    return finals, image, cycles


def bda_final_run(bda: BackwardDetAutomaton, w: LassoWord) -> BackwardRun:
    """Compute the unique final run on a lasso, SCC by SCC.

    An SCC's next values read only its own values and whether the states of
    lower SCCs accept, so the SCCs are settled successors first, each by a
    search of its own values.  For SCC s, h composes the per-SCC step over
    one period, reading the settled lower SCCs' acceptance, and maps s's
    value code at a period boundary to its code one period earlier.  An
    infinite backward run pins the boundary values to an infinite chain of
    h-preimages, which on a finite function graph only exists along cycles
    of h; they lie in the image of h, inside the image of the row h applies
    last, so the search starts from that image (:func:`_final_candidates`).
    A cycle of length k yields k candidates (one per rotation); a candidate
    is final iff every Buchi index of s in ``bda.buchi_indices`` fires
    within the cycle.  Exactly one candidate per SCC may pass: none raises
    :class:`NoFinalRunError`, more than one :class:`MultipleFinalRunsError`
    (its candidates in local-code order), both naming the word and the SCC.

    SCC s fetches its n step rows once from ``bda.scc_memo[s]``; a missing
    row is built whole, all (m+1)^m entries
    (:meth:`BackwardDetAutomaton.scc_row`), and kept.  Its settle pass walks
    the n rows back from the boundary value, adds to one acceptance mask per
    position (``BackwardRun.accepting``) and records its value tuples in one
    column; the families are assembled once, at the end, from the columns.
    An image of one code is h's only cycle, the single candidate, so it
    needs no search: the settle pass starts from it and ORs the bits fired
    at the loop positions, one period, which must cover the SCC's indices.
    ``BackwardRun.record`` rebuilds fired sets and critical values.  A period
    is then |v| list indexings, and the search a sum over SCCs of at most
    (m+1)^m * |v| indexings, not a product;
    :func:`count_final_candidates` is the product-space reference.
    """
    waa = bda.waa
    n, loop = w.positions, w.loop_start
    letters = [w.letter(i) for i in range(n)]
    succ = [w.succ(i) for i in range(n)]
    by_state = [None] * len(waa.states)  # each state's value at each position
    accepting = [0] * n  # the settled states that accept at each position
    need = [0] * len(waa.sccs)
    for s, i in bda.buchi_indices:
        need[s] |= 1 << (i - 1)

    def period(code):  # one period of the current SCC's rows, period_steps
        got = 0
        for row in period_steps:
            code, bits, _ = row[code]
            got |= bits
        return code, got

    for s, scc in enumerate(waa.sccs):
        table, memo, mask = bda.scc_tables[s] or bda.scc_table(s), bda.scc_memo[s], bda.outside_mask[s]
        # the row of the step into each position
        outside = [accepting[j] & mask for j in succ] if mask else [0] * n
        steps = [memo.get(k) or bda.scc_row(s, *k) for k in zip(letters, outside)]
        finals, checked = {e[0] for e in steps[loop]}, 1  # one image code is h's only cycle
        if len(finals) > 1:
            period_steps = steps[loop:][::-1]
            finals, _, cycles = _final_candidates(sorted(finals), period, need[s])
            checked = len(cycles)
        if len(finals) > 1:
            candidates = tuple(table.values[code] for code in sorted(finals))
            detail = ", ".join(
                " ".join(f"{q}={'inf' if v == INF else v}" for q, v in zip(scc.states, own))
                for own in candidates
            )
            raise MultipleFinalRunsError(
                f"{len(finals)} final runs on {w} in SCC {s}: {detail}",
                len(finals), word=w, scc=s, candidates=candidates,
            )
        column, values, own_accepting, fired = [None] * n, table.values, table.accepting, 0
        for code in finals:  # h's only cycle, the one final candidate, or none
            for i in range(n - 1, -1, -1):
                code, bits, _ = steps[i][code]
                if i >= loop:
                    fired |= bits
                accepting[i] |= own_accepting[code]
                column[i] = values[code]
        if need[s] & fired != need[s]:
            raise NoFinalRunError(
                f"no final run on {w}: SCC {s} has no final candidate "
                f"({checked} h-cycles checked)",
                word=w, scc=s,
            )
        for p, state_column in zip(table.positions, zip(*column)):
            by_state[p] = state_column
    return BackwardRun(w, tuple(zip(*by_state)) or ((),) * n, tuple(accepting))


def count_final_candidates(bda, w) -> int:
    """Number of final candidate runs over the whole product space.

    The reference for :func:`bda_final_run`: h composes the full backward
    transition function over one period, every cycle of its functional
    graph on all families is found, and each rotation of a cycle that fires
    every Buchi index counts once.  Raises :class:`StateSpaceCapError` when
    the state space exceeds ``DEFAULT_ENUMERATION_CAP`` (2^16 families).
    """
    return len(_final_boundaries(bda, w))


def _final_boundaries(bda, w) -> list:
    """The loop-start family of every final candidate in the capped product space."""
    families = bda.enumerate_state_space(DEFAULT_ENUMERATION_CAP)
    return _final_candidates(families, _period_map(bda, w), set(bda.buchi_indices))[0]


def _period_map(bda, w):
    """h on whole families: a family at the loop start maps to the family
    one period earlier and the Buchi indices fired on the way."""

    def period(family):
        fired = set()
        for i in range(w.positions - 1, w.loop_start - 1, -1):
            rec = bda.step(w.letter(i), family)
            family = rec.result
            fired |= rec.fired
        return family, fired

    return period


@dataclass
class CheckReport:
    """Cases checked and one dict per failure, each naming what failed."""

    mode: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **info):
        self.failures.append(info)

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.mode}: {status} ({self.cases} cases, {len(self.failures)} failures)"


def cross_validate(waa: WeakAlternatingAutomaton, w: LassoWord, bda: BackwardDetAutomaton,
                   run: BackwardRun) -> CheckReport:
    """Lambda on ``run``, the final run on ``w`` of ``bda`` built from
    ``waa``, at each position against the direct oracle; one case per
    position, one failure per position that differs."""
    report = CheckReport("cross_validate", w.positions)
    for i, (oracle, family) in enumerate(zip(waa_accept_table(waa, w), run.families, strict=True)):
        got = bda.output(family)
        if oracle != got:
            report.fail(word=str(w), position=i, reason="output differs from automaton oracle",
                        oracle=sorted(oracle), bda=sorted(got), family=bda.format_family(family))
    return report
