"""Ultimately periodic words and run computation on them.

A lasso word u.v^omega is finitely represented by its prefix and period;
all per-position questions are answered on the quotient positions
0 .. |u|+|v|-1, where the successor of the last position wraps back to |u|.

This module contains the two semantic routes that every construction is
checked against: a fixed-point acceptance oracle evaluated directly on the
weak alternating automaton, and the final-run computation for the derived
backward deterministic automaton.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import And, LetterSet, NextState, Or, WeakAlternatingAutomaton
from .construction import BackwardDetAutomaton
from .errors import MultipleFinalRunsError, NoFinalRunError, SemanticError

DEFAULT_ENUMERATION_CAP = 1 << 16


@dataclass(frozen=True)
class LassoWord:
    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("lasso period must be non-empty")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))

    @property
    def positions(self) -> int:
        return len(self.prefix) + len(self.period)

    @property
    def loop_start(self) -> int:
        return len(self.prefix)

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def succ(self, i: int) -> int:
        return i + 1 if i + 1 < self.positions else self.loop_start

    def unrolled(self, copies: int) -> "LassoWord":
        """Same word with the period repeated ``copies`` times."""
        return LassoWord(self.prefix, self.period * copies)

    def __str__(self):
        return " ".join(self.prefix) + " ; " + " ".join(self.period)


def waa_accept_table(waa: WeakAlternatingAutomaton, w: LassoWord) -> dict:
    """(position, state) -> accepted, for all quotient positions and states.

    Evaluated SCC by SCC in topological order (successors first): boolean
    least fixed point for non-recurring components, greatest fixed point for
    recurring ones, reading letters at the current position and values of
    already-settled components at the successor position.
    """
    npos = w.positions
    table = {}
    for scc in waa.sccs:
        if scc.recurring is None:
            raise SemanticError(f"automaton is not weak, mixed SCC: {scc.states}")
        members = set(scc.states)
        init = bool(scc.recurring)
        cur = {(i, q): init for i in range(npos) for q in scc.states}

        def ev(cond, i):
            if isinstance(cond, LetterSet):
                return w.letter(i) in cond.letters
            if isinstance(cond, NextState):
                j = w.succ(i)
                if cond.state in members:
                    return cur[(j, cond.state)]
                return table[(j, cond.state)]
            if isinstance(cond, Or):
                return ev(cond.left, i) or ev(cond.right, i)
            if isinstance(cond, And):
                return ev(cond.left, i) and ev(cond.right, i)
            raise TypeError(f"not a condition: {cond!r}")

        changed = True
        while changed:
            changed = False
            for i in range(npos):
                for q in scc.states:
                    val = ev(waa.delta[q], i)
                    if val != cur[(i, q)]:
                        cur[(i, q)] = val
                        changed = True
        table.update(cur)
    return table


def waa_accepts_lasso(waa: WeakAlternatingAutomaton, q: str, w: LassoWord, i: int) -> bool:
    if not 0 <= i < w.positions:
        raise ValueError(f"position {i} outside quotient range")
    return waa_accept_table(waa, w)[(i, q)]


@dataclass(frozen=True)
class BackwardRun:
    """The unique final run of a backward deterministic automaton on a lasso.

    ``families[i]`` is the automaton state at quotient position i and
    ``records[i]`` the transition producing it from the successor position.
    """

    word: LassoWord
    families: tuple
    records: tuple
    cycle_length: int

    def output(self, bda: BackwardDetAutomaton, i: int) -> frozenset:
        return bda.output(self.families[i])

    def outputs(self, bda: BackwardDetAutomaton) -> list:
        return [bda.output(f) for f in self.families]


def _period_step(bda, w, family):
    """One backward pass over the period: family at the next period boundary
    in, family at this boundary out, with the records of the |v| steps."""
    records = []
    cur = family
    for i in range(w.positions - 1, w.loop_start - 1, -1):
        rec = bda.step(w.letter(i), cur)
        records.append(rec)
        cur = rec.result
    return cur, records


def _functional_graph_cycles(h, nodes):
    """All cycles of the functional graph f -> h(f) restricted to ``nodes``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)
    cycles = []
    for start in nodes:
        if color[start] != WHITE:
            continue
        path = []
        pos_in_path = {}
        v = start
        while True:
            if color.get(v, BLACK) == BLACK:
                break
            if color[v] == GRAY:
                cycles.append(path[pos_in_path[v]:])
                break
            color[v] = GRAY
            pos_in_path[v] = len(path)
            path.append(v)
            v = h(v)
        for u in path:
            color[u] = BLACK
    return cycles


def _iterate_to_cycle(h, seed):
    seen = {}
    path = []
    v = seed
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = h(v)
    return path[seen[v]:]


def bda_final_run(
    bda: BackwardDetAutomaton,
    w: LassoWord,
    cap: int = DEFAULT_ENUMERATION_CAP,
    exhaustive: bool | None = None,
) -> BackwardRun:
    """Compute the unique final run on a lasso by h-cycle enumeration.

    h composes the backward transition function over one period, mapping the
    family at a period boundary to the family one period earlier.  An
    infinite backward run pins the boundary families to an infinite chain of
    h-preimages, which on a finite function graph only exists along cycles
    of h, so enumerating h-cycles finds every candidate periodic run.  A
    cycle of length k yields k candidate runs (one per rotation); a
    candidate is final iff every generalized Buchi set fires within the
    cycle.  Exactly one candidate may pass.

    With ``exhaustive`` (the default whenever the state space fits in
    ``cap``) the whole functional graph of h is decomposed, which makes the
    uniqueness check complete.  Otherwise cycles are only searched from a
    seed set, which finds the final run for well-formed constructions but
    cannot prove global uniqueness.
    """
    auto = exhaustive is None
    if auto:
        cached = bda.final_boundary_cache.get(w.period)
        if cached is not None:
            return _assemble_run(bda, w, cached, 1)
        exhaustive = bda.state_space_bound <= cap

    def h(f):
        return _period_step(bda, w, f)[0]

    if exhaustive:
        nodes = bda.enumerate_state_space(cap)
        cycles = _functional_graph_cycles(h, nodes)
    else:
        seen_cycles = set()
        cycles = []
        for seed in (bda.all_inf_family(),):
            cyc = _iterate_to_cycle(h, seed)
            key = frozenset(cyc)
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append(cyc)

    finals = []
    for cyc in cycles:
        fired = set()
        for f in cyc:
            _, records = _period_step(bda, w, f)
            for rec in records:
                fired |= rec.fired
        if fired >= set(bda.buchi_indices):
            # each rotation of a final cycle is a distinct final run
            for f in cyc:
                finals.append((f, len(cyc)))

    if not finals:
        raise NoFinalRunError(
            f"no final run on {w} ({len(cycles)} h-cycles checked, "
            f"exhaustive={exhaustive})"
        )
    if len(finals) > 1:
        detail = ", ".join(bda.format_family(f) for f, _ in finals)
        raise MultipleFinalRunsError(f"{len(finals)} final runs on {w}: {detail}", len(finals))

    boundary, cycle_len = finals[0]
    bda.final_boundary_cache[w.period] = boundary
    return _assemble_run(bda, w, boundary, cycle_len)


def _assemble_run(bda, w, boundary, cycle_len):
    families = [None] * w.positions
    records = [None] * w.positions
    cur = boundary
    for i in range(w.positions - 1, -1, -1):
        rec = bda.step(w.letter(i), cur)
        records[i] = rec
        families[i] = rec.result
        cur = rec.result
    # loop wrap consistency: the family at loop start must close the cycle
    assert families[w.loop_start] == boundary
    return BackwardRun(w, tuple(families), tuple(records), cycle_len * len(w.period))


def count_final_candidates(bda, w, cap=DEFAULT_ENUMERATION_CAP) -> int:
    """Number of final candidate runs under exhaustive h-cycle enumeration."""
    try:
        bda_final_run(bda, w, cap=cap, exhaustive=True)
        return 1
    except NoFinalRunError:
        return 0
    except MultipleFinalRunsError as e:
        return e.count


@dataclass
class ValidationReport:
    ok: bool
    mismatches: list

    def __bool__(self):
        return self.ok


def cross_validate(waa: WeakAlternatingAutomaton, w: LassoWord, bda=None, run=None) -> ValidationReport:
    """Check lambda outputs of the final run against the direct oracle."""
    if bda is None:
        bda = BackwardDetAutomaton(waa)
    if run is None:
        run = bda_final_run(bda, w)
    table = waa_accept_table(waa, w)
    mismatches = []
    for i in range(w.positions):
        expected = frozenset(q for q in waa.states if table[(i, q)])
        got = bda.output(run.families[i])
        if expected != got:
            mismatches.append(
                {
                    "word": str(w),
                    "position": i,
                    "oracle": sorted(expected),
                    "bda": sorted(got),
                    "family": bda.format_family(run.families[i]),
                }
            )
    return ValidationReport(not mismatches, mismatches)


def language_member(automaton, w: LassoWord, bda: BackwardDetAutomaton | None = None) -> bool:
    """Membership from the declared initial set.

    For a weak alternating automaton: some initial state accepts at
    position 0.  For a backward deterministic automaton (pass the carrier
    WAA's initial set via the wrapped automaton): the lambda output at
    position 0 meets the initial set.
    """
    if isinstance(automaton, BackwardDetAutomaton):
        waa = automaton.waa
        if waa.initial is None:
            raise SemanticError("automaton has no initial set")
        run = bda_final_run(automaton, w)
        return bool(waa.initial & automaton.output(run.families[0]))
    waa = automaton
    if waa.initial is None:
        raise SemanticError("automaton has no initial set")
    table = waa_accept_table(waa, w)
    return any(table[(0, q)] for q in waa.initial)
