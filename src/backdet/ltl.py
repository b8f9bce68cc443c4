"""LTL in negation normal form: parsing, translation, lasso semantics.

Formulas are built over the letters of an explicit alphabet; negation is
only allowed directly on letters.  The translation produces a very weak
alternating automaton with one state per distinct subformula.
"""

from __future__ import annotations

import functools

from .automata import Alphabet, And as CAnd, LetterSet, NextState, Or as COr, WeakAlternatingAutomaton
from .cursor import TokenCursor
from .errors import FormatError
from .lasso import LassoWord
from .node import Node, subterms


class LtlFormula(Node):
    __slots__ = ()


class Letter(LtlFormula):
    __slots__ = ("name",)


class NegLetter(LtlFormula):
    __slots__ = ("name",)


class Or(LtlFormula):
    __slots__ = ("left", "right")


class And(LtlFormula):
    __slots__ = ("left", "right")


class Next(LtlFormula):
    __slots__ = ("operand",)


class Eventually(LtlFormula):
    __slots__ = ("operand",)


class Always(LtlFormula):
    __slots__ = ("operand",)


class Until(LtlFormula):
    __slots__ = ("left", "right")


class Release(LtlFormula):
    __slots__ = ("left", "right")


_UNARY = {"X": Next, "F": Eventually, "G": Always}
_BINARY = {"U": Until, "R": Release}


class _LtlParser(TokenCursor):
    """Precedence (loosest first): |, &, U/R (right-assoc), unary X F G."""

    token = r"[()!&|]|[A-Za-z_][A-Za-z0-9_]*"
    Or, And = Or, And

    def operand(self):
        f = self.parse_unary()
        if self.peek() in _BINARY:
            op = _BINARY[self.take()]
            return op(f, self.operand())
        return f

    def parse_unary(self):
        tok = self.peek()
        if tok in _UNARY:
            self.take()
            return _UNARY[tok](self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            f = self.parse_or()
            self.take(")")
            return f
        if tok == "!":
            at = self.pos()
            self.take()
            name = self.peek()
            if name is None or name in _UNARY or name in _BINARY or not name.isidentifier():
                raise FormatError("negation is only allowed on letters", at)
            self.take()
            if name not in self.alphabet:
                raise FormatError(f"unknown letter {name!r}", at)
            return NegLetter(name)
        if tok in _UNARY or tok in _BINARY or tok in (")", "&", "|"):
            raise FormatError(f"unexpected token {tok!r}", self.pos())
        at = self.pos()
        self.take()
        if tok not in self.alphabet:
            raise FormatError(f"unknown letter {tok!r}", at)
        return Letter(tok)


def parse_ltl(text: str, alphabet: Alphabet) -> LtlFormula:
    return _LtlParser(text, alphabet).parse()


def format_ltl(f: LtlFormula) -> str:
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, NegLetter):
        return f"!{f.name}"
    if isinstance(f, Next):
        return f"X ({format_ltl(f.operand)})"
    if isinstance(f, Eventually):
        return f"F ({format_ltl(f.operand)})"
    if isinstance(f, Always):
        return f"G ({format_ltl(f.operand)})"
    if isinstance(f, Or):
        return f"({format_ltl(f.left)} | {format_ltl(f.right)})"
    if isinstance(f, And):
        return f"({format_ltl(f.left)} & {format_ltl(f.right)})"
    if isinstance(f, Until):
        return f"({format_ltl(f.left)} U {format_ltl(f.right)})"
    if isinstance(f, Release):
        return f"({format_ltl(f.left)} R {format_ltl(f.right)})"
    raise TypeError(f"not an LTL formula: {f!r}")


def subformulas(f: LtlFormula) -> list[LtlFormula]:
    """Distinct subformulas, children before parents."""
    return subterms([f], children_first=True)


def negate(f: LtlFormula) -> LtlFormula:
    """NNF dual; test helper, not part of the surface language."""
    if isinstance(f, Letter):
        return NegLetter(f.name)
    if isinstance(f, NegLetter):
        return Letter(f.name)
    if isinstance(f, Or):
        return And(negate(f.left), negate(f.right))
    if isinstance(f, And):
        return Or(negate(f.left), negate(f.right))
    if isinstance(f, Next):
        return Next(negate(f.operand))
    if isinstance(f, Eventually):
        return Always(negate(f.operand))
    if isinstance(f, Always):
        return Eventually(negate(f.operand))
    if isinstance(f, Until):
        return Release(negate(f.left), negate(f.right))
    if isinstance(f, Release):
        return Until(negate(f.left), negate(f.right))
    raise TypeError(f"not an LTL formula: {f!r}")


def _compact(f: LtlFormula) -> str:
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, NegLetter):
        return f"not_{f.name}"
    if isinstance(f, Next):
        return f"X_{_compact(f.operand)}"
    if isinstance(f, Eventually):
        return f"F_{_compact(f.operand)}"
    if isinstance(f, Always):
        return f"G_{_compact(f.operand)}"
    ops = {Or: "or", And: "and", Until: "U", Release: "R"}
    return f"{ops[type(f)]}__{_compact(f.left)}__{_compact(f.right)}"


def ltl_to_waa(phi: LtlFormula, alphabet: Alphabet) -> WeakAlternatingAutomaton:
    """One state per distinct subformula; the result is very weak.

    Eventually/until states are non-recurring, always/release states
    recurring; states that lie on no cycle are fixed to non-recurring.
    """
    subs = subformulas(phi)
    names = {}
    used = set()
    for g in subs:
        name = "q_" + _compact(g)
        while name in used:
            name += "_"
        used.add(name)
        names[g] = name

    @functools.cache
    def build(g):
        if isinstance(g, Letter):
            return LetterSet(frozenset({g.name}))
        if isinstance(g, NegLetter):
            return LetterSet(frozenset(alphabet.letters) - {g.name})
        if isinstance(g, Or):
            return COr(build(g.left), build(g.right))
        if isinstance(g, And):
            return CAnd(build(g.left), build(g.right))
        if isinstance(g, Next):
            return NextState(names[g.operand])
        if isinstance(g, Eventually):
            return COr(build(g.operand), NextState(names[g]))
        if isinstance(g, Always):
            return CAnd(build(g.operand), NextState(names[g]))
        if isinstance(g, Until):
            return COr(build(g.right), CAnd(build(g.left), NextState(names[g])))
        if isinstance(g, Release):
            return CAnd(build(g.right), COr(build(g.left), NextState(names[g])))
        raise TypeError(f"not an LTL formula: {g!r}")

    delta = {names[g]: build(g) for g in subs}
    recurring = {names[g] for g in subs if isinstance(g, (Always, Release))}
    return WeakAlternatingAutomaton(
        alphabet, names.values(), delta, recurring, initial={names[phi]}
    )


def ltl_eval_lasso(phi: LtlFormula, w: LassoWord, i: int) -> bool:
    """Direct semantics on the lasso quotient; non-strict F/G/U/R, strict X."""
    if not 0 <= i < w.positions:
        raise ValueError(f"position {i} outside quotient range")
    return ltl_truth_vector(phi, w)[i]


def ltl_truth_vector(phi: LtlFormula, w: LassoWord) -> list[bool]:
    """Truth of phi at every quotient position.

    Each subformula denotes a position mask (bit i for position i).  F and
    U iterate their one-step unfolding b | (a & next X) up from no
    position, G and R iterate b & (a | next X) down from every position.
    """
    full, pre = w.full, w.pre

    @functools.cache
    def vec(f):
        if isinstance(f, Letter):
            return w.mask(f.name)
        if isinstance(f, NegLetter):
            return full & ~w.mask(f.name)
        if isinstance(f, Or):
            return vec(f.left) | vec(f.right)
        if isinstance(f, And):
            return vec(f.left) & vec(f.right)
        if isinstance(f, Next):
            return pre(vec(f.operand))
        if isinstance(f, (Eventually, Until)):
            a, b = (full, vec(f.operand)) if isinstance(f, Eventually) else (vec(f.left), vec(f.right))
            cur, last = 0, None
            while cur != last:
                cur, last = b | (a & pre(cur)), cur
            return cur
        if isinstance(f, (Always, Release)):
            a, b = (0, vec(f.operand)) if isinstance(f, Always) else (vec(f.left), vec(f.right))
            cur, last = full, None
            while cur != last:
                cur, last = b & (a | pre(cur)), cur
            return cur
        raise TypeError(f"not an LTL formula: {f!r}")

    truth = vec(phi)
    return [bool(truth >> i & 1) for i in range(w.positions)]


def random_ltl(rng, alphabet: Alphabet, size: int) -> LtlFormula:
    """Random NNF formula with at most ``size`` operator/letter nodes."""
    letters = list(alphabet.letters)
    if size <= 1:
        name = rng.choice(letters)
        return rng.choice([Letter(name), NegLetter(name)])
    # binary nodes need at least 3 nodes of budget (node + two leaves)
    kinds = ["X", "F", "G", "U", "R", "&", "|"] if size >= 3 else ["X", "F", "G"]
    kind = rng.choice(kinds)
    if kind in ("X", "F", "G"):
        sub = random_ltl(rng, alphabet, size - 1)
        return {"X": Next, "F": Eventually, "G": Always}[kind](sub)
    left_size = rng.randint(1, size - 2)
    left = random_ltl(rng, alphabet, left_size)
    right = random_ltl(rng, alphabet, size - 1 - left_size)
    return {"U": Until, "R": Release, "&": And, "|": Or}[kind](left, right)
