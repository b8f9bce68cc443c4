"""LTL in negation normal form: parsing, translation, lasso semantics.

Formulas are built over the letters of an explicit alphabet; negation is
only allowed directly on letters.  LTL is a fragment of the fixed-point
calculus of :mod:`backdet.nutl`: its letter, negated-letter and next-step
nodes are the ones declared there, its ``|`` and ``&`` nodes the ones that
formulas and conditions share (:mod:`backdet.node`), and this module
declares only F, G, U and R.  The fixed-point frontend's translator builds
a very weak automaton with states on demand: the formula's and those its
conditions name, nearly the temporal subformulas and the initial formula
of Gastin and Oddoux (CAV 2001); F, G, U and R unfold one step ahead.
"""

from __future__ import annotations

from .automata import Alphabet, NextState, WeakAlternatingAutomaton
from .cursor import TokenCursor
from .errors import FormatError
from .lasso import LassoWord
from .node import And, Node, Or, subterms
from .nutl import Letter, NegLetter, Next, _translate


class Eventually(Node):
    __slots__ = ("operand",)


class Always(Node):
    __slots__ = ("operand",)


class Until(Node):
    __slots__ = ("left", "right")


class Release(Node):
    __slots__ = ("left", "right")


# Each node class: its symbol (parser, format_ltl) and state-name tag
# (_state_names).  A letter prefixes its name with both; operators come in
# random_ltl's choice order.
_TABLE = {
    Letter: ("", ""),
    NegLetter: ("!", "not_"),
    Next: ("X", "X"),
    Eventually: ("F", "F"),
    Always: ("G", "G"),
    Until: ("U", "U"),
    Release: ("R", "R"),
    And: ("&", "and"),
    Or: ("|", "or"),
}
_OPERATORS = {sym: c for c, (sym, _) in _TABLE.items() if c not in (Letter, NegLetter)}
_UNARY = {sym: c for sym, c in _OPERATORS.items() if c.__slots__ == ("operand",)}
_BINARY = {sym: c for sym, c in _OPERATORS.items() if c not in (*_UNARY.values(), And, Or)}


def _entry(f):
    if type(f) not in _TABLE:
        raise TypeError(f"not an LTL formula: {f!r}")
    return _TABLE[type(f)]


class _LtlParser(TokenCursor):
    """Precedence (loosest first): |, &, U/R (right-assoc), unary X F G."""

    token = r"[()!&|]|[A-Za-z_][A-Za-z0-9_]*"

    def operand(self):
        f = self.parse_unary()
        if self.peek() in _BINARY:  # U and R; the shared grammar reads | and &
            return _BINARY[self.take()](f, self.operand())
        return f

    def parse_unary(self):
        if self.peek() in _UNARY:
            return _UNARY[self.take()](self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        tok, at = self.peek(), self.pos()
        if tok == "(":
            self.take()
            f = self.parse_or()
            self.take(")")
            return f
        negated = tok == "!"
        if negated:
            self.take()
            tok = self.peek()
            if tok is None or tok in _OPERATORS or not tok.isidentifier():
                raise FormatError("negation is only allowed on letters", at)
        elif tok in _OPERATORS or tok == ")":
            raise FormatError(f"unexpected token {tok!r}", at)
        self.take()
        if tok not in self.alphabet:
            raise FormatError(f"unknown letter {tok!r}", at)
        return (NegLetter if negated else Letter)(tok)


def _require_letter(name: str) -> str:
    """The name of a letter that the parser (and so the printer) can take."""
    if name in _OPERATORS:
        raise FormatError(f"letter {name!r} is an LTL operator")
    return name


def parse_ltl(text: str, alphabet: Alphabet) -> Node:
    for a in alphabet:
        _require_letter(a)
    return _LtlParser(text, alphabet).parse()


def format_ltl(f: Node) -> str:
    sym = _entry(f)[0]
    if len(f.children) == 2:
        return f"({format_ltl(f.left)} {sym} {format_ltl(f.right)})"
    if f.children:
        return f"{sym} ({format_ltl(f.operand)})"
    return sym + _require_letter(f.name)


def _state_names(subs) -> dict:
    """The state name of each subformula in ``subs``, children first:
    ``q_`` and a stem built from the node's tag and its children's stems,
    with ``_`` appended until the name is unused."""
    stems, names, used = {}, {}, set()
    for g in subs:
        tag = _entry(g)[1]
        if len(g.children) == 2:
            stems[g] = f"{tag}__{stems[g.left]}__{stems[g.right]}"
        elif g.children:
            stems[g] = f"{tag}_{stems[g.operand]}"
        else:
            stems[g] = tag + g.name
        name = "q_" + stems[g]
        while name in used:
            name += "_"
        used.add(name)
        names[g] = name
    return names


def ltl_to_waa(phi: Node, alphabet: Alphabet) -> WeakAlternatingAutomaton:
    """States on demand (:func:`nutl._translate`): phi's, and each next-step
    operand's and F, G, U or R subformula's that a built condition names,
    with its name from :func:`_state_names`; the result is very weak.
    Always/release states are recurring, all others non-recurring.
    """
    names = _state_names(subterms([phi], children_first=True))

    def unfold(g, build, state_of):
        here = NextState(state_of(g))
        if isinstance(g, Eventually):
            return Or(build(g.operand), here)
        if isinstance(g, Always):
            return And(build(g.operand), here)
        if isinstance(g, Until):
            return Or(build(g.right), And(build(g.left), here))
        # Release: _state_names has rejected every class outside _TABLE
        return And(build(g.right), Or(build(g.left), here))

    return _translate(alphabet, [phi], lambda g: (names[g], g), unfold,
                      lambda g: isinstance(g, (Always, Release)))[0]


def ltl_truth_vector(phi: Node, w: LassoWord) -> list[bool]:
    """Truth of phi at every quotient position; non-strict F/G/U/R, strict X.

    Each subformula denotes a position mask (bit i for position i).  F and
    U iterate their one-step unfolding b | (a & next X) up from no
    position, G and R iterate b & (a | next X) down from every position.
    """
    full, pre, memo = w.full, w.pre, {}

    def vec(f):  # a dict, not functools.cache, which wraps anew per call
        return memo[f] if f in memo else memo.setdefault(f, build(f))

    def build(f):
        t = type(f)
        if t is Letter:
            return w.mask(f.name)
        if t is NegLetter:
            return full & ~w.mask(f.name)
        if t is Or:
            return vec(f.left) | vec(f.right)
        if t is And:
            return vec(f.left) & vec(f.right)
        if t is Next:
            return pre(vec(f.operand))
        if t is Eventually or t is Until:
            a, b = (full, vec(f.operand)) if t is Eventually else (vec(f.left), vec(f.right))
            cur, last = 0, None
            while cur != last:
                cur, last = b | (a & pre(cur)), cur
            return cur
        if t is Always or t is Release:
            a, b = (0, vec(f.operand)) if t is Always else (vec(f.left), vec(f.right))
            cur, last = full, None
            while cur != last:
                cur, last = b & (a | pre(cur)), cur
            return cur
        raise TypeError(f"not an LTL formula: {f!r}")

    truth = vec(phi)
    return [bool(truth >> i & 1) for i in range(w.positions)]


def random_ltl(rng, alphabet: Alphabet, size: int) -> Node:
    """Random NNF formula with at most ``size`` operator/letter nodes."""
    if size <= 1:
        name = rng.choice(alphabet.letters)
        return rng.choice([Letter(name), NegLetter(name)])
    # binary nodes need at least 3 nodes of budget (node + two leaves)
    kind = rng.choice(list((_OPERATORS if size >= 3 else _UNARY).values()))
    if kind in _UNARY.values():
        return kind(random_ltl(rng, alphabet, size - 1))
    left_size = rng.randint(1, size - 2)
    left = random_ltl(rng, alphabet, left_size)
    right = random_ltl(rng, alphabet, size - 1 - left_size)
    return kind(left, right)
