"""Seeded input text for the benchmark workloads.

Every input is produced here as text (LTL formulas, NBA files, lasso words)
from ``random.Random(seed)``, without the library's own random generators,
so that no change to the library can change what a workload runs.  A spec is
one formula or automaton together with the lassos it is queried on.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

LETTERS = ("a", "b")


@dataclass(frozen=True)
class Spec:
    kind: str  # "ltl" or "nba"
    text: str
    lassos: tuple[str, ...]

    def fingerprint_text(self) -> str:
        return f"{self.kind}\n{self.text}\n" + "\n".join(self.lassos) + "\n\n"


def fingerprint(specs) -> str:
    h = hashlib.sha256()
    for spec in specs:
        h.update(spec.fingerprint_text().encode())
    return h.hexdigest()


def lasso_text(prefix, period) -> str:
    return " ".join(prefix) + " ; " + " ".join(period)


def all_lassos(u_max: int, v_max: int) -> tuple[str, ...]:
    """Every lasso with |u| <= u_max and 1 <= |v| <= v_max."""
    out = []
    for ulen in range(u_max + 1):
        for u in itertools.product(LETTERS, repeat=ulen):
            for vlen in range(1, v_max + 1):
                for v in itertools.product(LETTERS, repeat=vlen):
                    out.append(lasso_text(u, v))
    return tuple(out)


def random_lasso(rng, u_max: int, v_max: int) -> str:
    u = [rng.choice(LETTERS) for _ in range(rng.randint(0, u_max))]
    v = [rng.choice(LETTERS) for _ in range(rng.randint(1, v_max))]
    return lasso_text(u, v)


def random_ltl(rng, size: int, subformulas: set) -> str:
    """Random NNF formula with at most ``size`` nodes; collects the text of
    every distinct subformula into ``subformulas`` (one automaton state each)."""
    if size <= 1:
        letter = rng.choice(LETTERS)
        text = rng.choice((letter, "!" + letter))
    else:
        kind = rng.choice("XFGUR&|" if size >= 3 else "XFG")
        if kind in "XFG":
            text = f"{kind} ({random_ltl(rng, size - 1, subformulas)})"
        else:
            left = rng.randint(1, size - 2)
            text = (f"({random_ltl(rng, left, subformulas)} {kind} "
                    f"{random_ltl(rng, size - 1 - left, subformulas)})")
    subformulas.add(text)
    return text


def random_nba(rng, n: int, out: int) -> str:
    """NBA file text: n states, each with exactly ``out`` outgoing
    transitions, one initial state and one Buchi state."""
    states = [f"q{i}" for i in range(n)]
    edges = [(a, q2) for a in LETTERS for q2 in states]
    chosen = sorted((q, a, q2) for q in states for a, q2 in rng.sample(edges, out))
    lines = [
        "alphabet: " + " ".join(LETTERS),
        "states: " + " ".join(states),
        "initial: " + rng.choice(states),
        "buchi: " + rng.choice(states),
    ]
    lines += [f"trans {q} {a} {q2}" for q, a, q2 in chosen]
    return "\n".join(lines) + "\n"


SWEEP_LASSOS = all_lassos(2, 3)
NBA_CHECK_LASSOS = all_lassos(2, 2)


def ltl_sweep(rng):
    """Size-8 formulas, each on every lasso |u| <= 2, |v| <= 3 (criterion 1)."""
    while True:
        yield Spec("ltl", random_ltl(rng, 8, set()), SWEEP_LASSOS)


def ltl_large(rng, lassos_per_spec: int = 12):
    """Formulas with 17 to 45 distinct subformulas, each on fresh lassos."""
    while True:
        subs = set()
        text = random_ltl(rng, rng.randint(25, 60), subs)
        if not 17 <= len(subs) <= 45:
            continue
        lassos = tuple(random_lasso(rng, 4, 8) for _ in range(lassos_per_spec))
        yield Spec("ltl", text, lassos)


def nba_check(rng):
    """NBAs with 2 states of 2 outgoing transitions each (half of all
    possible), each on every lasso |u| <= 2, |v| <= 2."""
    while True:
        yield Spec("nba", random_nba(rng, 2, 2), NBA_CHECK_LASSOS)


def nba_compile(rng, lassos_per_spec: int = 50):
    """NBAs with 3 states of 3 outgoing transitions each (half of all
    possible), each on a few fresh lassos."""
    while True:
        text = random_nba(rng, 3, 3)
        lassos = tuple(random_lasso(rng, 3, 6) for _ in range(lassos_per_spec))
        yield Spec("nba", text, lassos)


STREAMS = {
    "ltl-sweep": ltl_sweep,
    "ltl-large": ltl_large,
    "nba-check": nba_check,
    "nba-compile": nba_compile,
}


def spec_stream(workload: str, seed: int):
    """The workload's endless, deterministic sequence of specs."""
    # the workload name is mixed in so that one seed gives unrelated
    # inputs to different workloads
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))
