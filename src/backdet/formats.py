"""Textual formats for automata and lasso words.

Automaton files hold one item per line; '#' starts a comment.  A header
line is 'name: items', whose items are the whitespace-separated words after
the first ':' (the space after the colon is optional, and a header given
twice keeps its last line).  WAA files:

    alphabet: a b
    states: q0 q1
    recurring: q1
    initial: q0          # optional
    delta q0 = [a] | (X q1 & X q0)

Conditions: '[a b]' tests letter membership ('[]' is never true, a set
listing the whole alphabet is always true), 'X q' refers to the value of q
at the next position, '&' binds tighter than '|'.

NBA files:

    alphabet: a b
    states: q0 q1
    initial: q0
    buchi: q1
    trans q0 a q1

Lassos are written 'u ; v' with space-separated letters; the prefix may be
empty ('; a b').
"""

from __future__ import annotations

from .automata import Alphabet, And, LetterSet, NextState, Or, WeakAlternatingAutomaton
from .cursor import TokenCursor
from .errors import FormatError
from .lasso import LassoWord
from .nba import NBA
from .node import Node


class _CondParser(TokenCursor):
    token = r"[\[\]()&|]|[^\s\[\]()&|]+"
    what = "condition"

    def __init__(self, text, alphabet, states):
        super().__init__(text, alphabet)
        self.states = states

    def operand(self):
        at = self.pos()
        tok = self.take()
        if tok == "(":
            c = self.parse_or()
            self.take(")")
            return c
        if tok == "[":
            letters = []
            while self.peek() not in ("]", None):
                at = self.pos()
                a = self.take()
                if a not in self.alphabet:
                    raise FormatError(f"letter {a!r} not in alphabet", at)
                letters.append(a)
            self.take("]")
            return LetterSet(frozenset(letters))
        if tok == "X":
            at = self.pos()
            q = self.take()
            if q not in self.states:
                raise FormatError(f"unknown state {q!r} in condition", at)
            return NextState(q)
        raise FormatError(f"unexpected token in condition: {tok!r}", at)


def parse_condition(text: str, alphabet: Alphabet, states) -> Node:
    return _CondParser(text, alphabet, set(states)).parse()


def format_condition(cond: Node, parent_and: bool = False) -> str:
    if isinstance(cond, LetterSet):
        return "[" + " ".join(sorted(cond.letters)) + "]"
    if isinstance(cond, NextState):
        return f"X {cond.state}"
    if isinstance(cond, (And, Or)):
        conj = isinstance(cond, And)
        right = format_condition(cond.right, conj)
        if type(cond.right) is type(cond):  # a chain groups to the left
            right = f"({right})"
        text = f"{format_condition(cond.left, conj)} {'&' if conj else '|'} {right}"
        return f"({text})" if parent_and and not conj else text
    raise TypeError(f"not a condition: {cond!r}")


def _split_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_file(text, required, optional, keyword):
    """Header items and body lines of an automaton file.

    A header line is 'name: item item ...' for a name in ``required`` or
    ``optional``; its items are the words after the first ':'.  A body line
    is '<keyword> ...'; it is returned as (line number, text after the
    keyword).  Any other line, or a missing required header, is an error.
    """
    headers = {}
    body = []
    for lineno, line in _split_lines(text):
        name, colon, items = line.partition(":")
        if colon and (name in required or name in optional):
            headers[name] = items.split()
        elif line.startswith(keyword + " "):
            body.append((lineno, line[len(keyword) + 1:]))
        else:
            raise FormatError(f"unrecognized line: {line!r}", f"line {lineno}")
    for name in required:
        if name not in headers:
            raise FormatError(f"missing '{name}:' line")
    return headers, body


def parse_waa(text: str) -> WeakAlternatingAutomaton:
    headers, body = _read_file(text, ("alphabet", "states", "recurring"), ("initial",), "delta")
    alphabet = Alphabet(tuple(headers["alphabet"]))
    states = headers["states"]
    delta = {}
    for lineno, line in body:
        if "=" not in line:
            raise FormatError("delta line needs '='", f"line {lineno}")
        q, cond_text = line.split("=", 1)
        q = q.strip()
        if q in delta:
            raise FormatError(f"duplicate delta for {q}", f"line {lineno}")
        try:
            delta[q] = parse_condition(cond_text.strip(), alphabet, states)
        except FormatError as e:
            raise FormatError(e.reason, f"line {lineno}, condition offset {e.position}") from None
    return WeakAlternatingAutomaton(alphabet, states, delta, headers["recurring"], headers.get("initial"))


def format_waa(waa: WeakAlternatingAutomaton) -> str:
    lines = [
        "alphabet: " + " ".join(waa.alphabet.letters),
        "states: " + " ".join(waa.states),
        "recurring: " + " ".join(sorted(waa.recurring)),
    ]
    if waa.initial:
        lines.append("initial: " + " ".join(sorted(waa.initial)))
    for q in waa.states:
        lines.append(f"delta {q} = {format_condition(waa.delta[q])}")
    return "\n".join(lines) + "\n"


def parse_nba(text: str) -> NBA:
    headers, body = _read_file(text, ("alphabet", "states", "initial", "buchi"), (), "trans")
    transitions = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError("trans line needs 'trans q a q2'", f"line {lineno}")
        transitions.append(tuple(parts))
    return NBA(headers["alphabet"], headers["states"], headers["initial"], transitions, headers["buchi"])


def format_nba(nba: NBA) -> str:
    lines = [
        "alphabet: " + " ".join(nba.alphabet.letters),
        "states: " + " ".join(nba.states),
        "initial: " + " ".join(sorted(nba.initial)),
        "buchi: " + " ".join(sorted(nba.buchi)),
    ]
    for q, a, q2 in sorted(nba.transitions):
        lines.append(f"trans {q} {a} {q2}")
    return "\n".join(lines) + "\n"


def parse_lasso(text: str, alphabet: Alphabet) -> LassoWord:
    """The lasso 'u ; v'; each of its letters must be in ``alphabet``."""
    u_text, sep, v_text = text.partition(";")
    if not sep:
        raise FormatError("lasso must be written 'u ; v'")
    if ";" in v_text:
        raise FormatError("lasso has a second ';'", text.index(";", len(u_text) + 1))
    prefix = tuple(u_text.split())
    period = tuple(v_text.split())
    if not period:
        raise FormatError("lasso period must be non-empty")
    for a in prefix + period:
        if a not in alphabet:
            raise FormatError(f"letter {a!r} not in alphabet")
    return LassoWord(prefix, period)


def format_bda(bda, enumerate_cap: int | None = None) -> str:
    """BDA header (SCC table and Buchi index) plus, when a cap is given,
    the fully enumerated transition table."""
    waa = bda.waa
    lines = ["# backward deterministic automaton"]
    lines.append("alphabet: " + " ".join(waa.alphabet.letters))
    lines.append(f"state-space-bound: {bda.state_space_bound}")
    for s, scc in enumerate(waa.sccs):
        polarity = "recurring" if scc.recurring else "nonrecurring"
        lines.append(f"scc {s}: {polarity} size {scc.size}: " + " ".join(scc.states))
    lines.append(
        "buchi-sets: " + " ".join(f"({s},{i})" for s, i in bda.buchi_indices)
    )
    if enumerate_cap is not None:
        families = bda.enumerate_state_space(enumerate_cap)
        lines.append(f"families: {len(families)}")
        for family in families:
            for a in waa.alphabet:
                rec = bda.step(a, family)
                fired = " ".join(f"({s},{i})" for s, i in sorted(rec.fired))
                crit = " ".join(str(m) for m in rec.critical)
                lines.append(
                    f"trans [{bda.format_family(family)}] --{a}--> "
                    f"[{bda.format_family(rec.result)}] critical: {crit} fired: {fired}"
                )
    return "\n".join(lines) + "\n"
