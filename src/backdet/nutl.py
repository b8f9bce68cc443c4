"""Vectorial linear-time fixed-point formulas (alternation-free fragment).

Formulas are built from letters, negated letters, variables, a next-step
operator, boolean connectives, and vectorial least/greatest fixed points
``mu_i (X0,...,Xr-1).(phi0; ...; phir-1)`` selecting component i.  This
module declares those nodes, except ``|`` and ``&``, which formulas and
transition conditions share (:mod:`backdet.node`).  LTL is a fragment of
this calculus (Vardi, POPL 1988): :mod:`backdet.ltl` uses the letter,
negated-letter and next-step nodes declared here and adds only F, G, U and
R, and one translator, with states on demand, serves both.

Nodes are hash-consed (:mod:`backdet.node`): structurally identical
subformulas are one object, and equality is identity.  A variable may
appear bound by several fix nodes as long as they bind it in one system:
they agree on the kind, the variable vector and the bodies (they may
differ in the selected component).  This keeps the rank-formula tables
compact: each vector level binds its variables once, and a table is a DAG
whose distinct nodes grow linearly with its levels.

The text prints that DAG, not its tree: each subformula with two or more
parents is written once, as a definition in front of the formula, and
named after it, as in a hierarchical equation system (Cleaveland and
Steffen, FMSD 1993).  ``@0 = (a & O (b)); (@0 | O (@0))`` is
``(a & O b) | O (a & O b)``.  A definition uses only names defined before
it, and a text without definitions is read as before.

One check (:func:`_analyse`) admits a tuple to :func:`nutl_to_waa`.  It
builds one table from each fix node and variable to what it denotes, its
system's kind, the variable and the body, and reads everything else from
it: the dependence graph leads from each entry to its body, guardedness
requires a next-step vertex on every cycle, alternation-freeness forbids
cycles through entries of both kinds, and the translation names and
unfolds states from it.

:func:`nutl_eval_lasso` is the Kleene semantics on a lasso: a formula
denotes a position mask of the lasso quotient (:class:`LassoWord`).  Each
closed subformula, and each closed system that fix nodes share, is solved
once per call, its bodies updated in place, as in the alternation-free
model checking of Emerson and Lei (LICS 1986).  Whether a subformula is
closed is read from the node, which holds its free variables (``free``).
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter

from .automata import Alphabet, LetterSet, NextState, WeakAlternatingAutomaton
from . import graph
from .cursor import TokenCursor
from .errors import FormatError, SemanticError
from .lasso import LassoWord
from .node import And, Node, Or, subterms

MU = "mu"
NU = "nu"


class Letter(Node):
    __slots__ = ("name",)


class NegLetter(Node):
    __slots__ = ("name",)


class Var(Node):
    __slots__ = ("name",)

    def _free(self, _):
        return frozenset({self.name})


class Next(Node):
    __slots__ = ("operand",)


class Fix(Node):
    __slots__ = ("kind", "index", "vars", "bodies")

    @staticmethod
    def _check(kind, index, vars, bodies):
        if kind not in (MU, NU):
            raise ValueError(f"fix kind must be '{MU}' or '{NU}'")
        if len(vars) != len(bodies):
            raise ValueError(f"{len(vars)} fix variables but {len(bodies)} bodies")
        if len(set(vars)) != len(vars):
            raise ValueError("fix variables must be distinct")
        if not 0 <= index < len(vars):
            raise ValueError(f"fix index {index} out of range for {len(vars)} variables")
        return kind, index, vars, bodies

    def _free(self, names):
        return names.difference(self.vars)


_FIX_NAME = re.compile(r"^(mu|nu)_(\d+)$")


class _NutlParser(TokenCursor):
    token = r"[().;,|&!=]|@\d+|[A-Za-z_][A-Za-z0-9_]*"

    def parse(self):
        """Definitions ``@k = <formula>;``, then the formula."""
        self.defs = {}
        while self.peek() and self.peek()[0] == "@" and self.tokens[self.i + 1][0] == "=":
            at, name = self.pos(), self.take()
            if name in self.defs:
                raise FormatError(f"{name} is defined twice", at)
            self.take("=")
            self.defs[name] = self.parse_or()
            self.take(";")
        return super().parse()

    def operand(self):
        at = self.pos()
        tok = self.take()
        if tok[0] == "@":
            if self.peek() == "=":
                raise FormatError(f"definition of {tok} inside the formula", at)
            if tok not in self.defs:
                kinds = [t for t, _ in self.tokens]
                if (tok, "=") in zip(kinds, kinds[1:]):
                    raise FormatError(f"{tok} is used before its definition", at)
                raise FormatError(f"undefined name {tok}", at)
            return self.defs[tok]
        if tok == "(":
            f = self.parse_or()
            self.take(")")
            return f
        if tok == "!":
            name = self.take()
            if name not in self.alphabet:
                raise FormatError(f"negation is only allowed on letters, got {name!r}", at)
            return NegLetter(name)
        if tok == "O":
            return Next(self.operand())
        m = _FIX_NAME.match(tok)
        if m:
            return self.parse_fix(m.group(1), int(m.group(2)), at)
        if not tok.isidentifier():
            raise FormatError(f"unexpected token {tok!r}", at)
        if tok in self.alphabet:
            return Letter(tok)
        return Var(tok)

    def name(self):
        """A fix variable: an identifier that is neither ``O`` nor a fix name."""
        at, tok = self.pos(), self.take()
        if not tok.isidentifier() or tok == "O" or _FIX_NAME.match(tok):
            raise FormatError(f"expected a variable, got {tok!r}", at)
        return tok

    def parse_fix(self, kind, index, at):
        self.take("(")
        names = [self.name()]
        while self.peek() == ",":
            self.take()
            names.append(self.name())
        self.take(")")
        self.take(".")
        self.take("(")
        bodies = [self.parse_or()]
        while self.peek() == ";":
            self.take()
            bodies.append(self.parse_or())
        self.take(")")
        for name in names:
            if name in self.alphabet:
                raise FormatError(f"variable {name!r} clashes with an alphabet letter", at)
        try:
            return Fix(kind, index, tuple(names), tuple(bodies))
        except ValueError as e:
            raise FormatError(str(e), at) from None


def _require_letter(name: str) -> str:
    """The name of a letter that the parser (and so the printer) can take."""
    if name == "O" or _FIX_NAME.match(name):
        raise FormatError(f"letter {name!r} is a fixed-point operator")
    return name


def parse_nutl(text: str, alphabet: Alphabet) -> Node:
    for a in alphabet:
        _require_letter(a)
    return _NutlParser(text, alphabet).parse()


def format_nutl(f: Node) -> str:
    """The text of ``f``: each non-leaf node with two or more parents (a
    fix counts once per body it holds) is printed once, as a definition
    ``@k = <formula>;`` in front of the formula, and named ``@k`` after."""
    nodes = subterms([f], children_first=True)
    parents = Counter(c for g in nodes for c in g.children)
    defs, text = [], {}
    for g in nodes:
        text[g] = _format_node(g, text)
        if g.children and parents[g] > 1:
            name = f"@{len(defs)}"
            defs.append(f"{name} = {text[g]}; ")
            text[g] = name
    return "".join(defs) + text[f]


def _format_node(f, text) -> str:
    """The text of ``f`` given the texts of its children."""
    if isinstance(f, Letter):
        return _require_letter(f.name)
    if isinstance(f, NegLetter):
        return f"!{_require_letter(f.name)}"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Next):
        return f"O ({text[f.operand]})"
    if isinstance(f, Or):
        return f"({text[f.left]} | {text[f.right]})"
    if isinstance(f, And):
        return f"({text[f.left]} & {text[f.right]})"
    if isinstance(f, Fix):
        bodies = "; ".join(text[b] for b in f.bodies)
        return f"{f.kind}_{f.index} ({','.join(f.vars)}).({bodies})"
    raise TypeError(f"not a nutl formula: {f!r}")


def _require_closed(roots):
    for f in roots:
        if f.free:
            raise SemanticError(f"formula is not closed: free {sorted(f.free)}")


def _analyse(roots) -> tuple[dict, set]:
    """The one check of a fixed-point tuple: SemanticError unless it is
    closed, binds each name in one system, is guarded and is
    alternation-free, tested in that order.  Fix nodes bind a name in one
    system when they agree on kind, variable vector and bodies (they may
    select different components); a least and a greatest fixed point are two
    systems.  Returns the table from each fix node and variable to what it
    denotes, ``(kind, variable, body)``, and the nodes on cyclic components
    of greatest fixed points only.  In the dependence graph a node of that
    table leads to the body it denotes, any other node to its children; an
    unguarded tuple's error holds a ``cycle`` with no next-step vertex."""
    _require_closed(roots)
    nodes = subterms(roots)  # preorder: a variable comes after its binder
    systems, denotes = {}, {}
    for f in nodes:
        if isinstance(f, Fix):
            system = (f.kind, f.vars, f.bodies)
            for name in f.vars:
                if systems.setdefault(name, system) != system:
                    raise SemanticError(f"variable {name!r} bound more than once")
            denotes[f] = (f.kind, f.vars[f.index], f.bodies[f.index])
        elif isinstance(f, Var):
            kind, names, bodies = systems[f.name]
            denotes[f] = (kind, f.name, bodies[names.index(f.name)])
    succ = {f: [denotes[f][2]] if f in denotes else list(f.children) for f in nodes}
    # the graph without its next-step vertices has a cycle exactly when
    # some dependence cycle avoids them
    sub = {f: [w for w in succ[f] if not isinstance(w, Next)] for f in nodes if not isinstance(f, Next)}
    for comp in graph.sccs(list(sub), sub):
        if graph.is_cyclic(comp, sub):
            # each member has a successor inside; following the first
            # such successor from every member walks into a cycle
            members = set(comp)
            cycle = graph.functional_cycles({f: next(w for w in sub[f] if w in members) for f in comp})[0]
            raise SemanticError(
                "formula is not guarded; cycle without a next-step operator: "
                + " -> ".join(format_nutl(f) for f in cycle[:6]),
                cycle=cycle,
            )
    on_nu = set()
    for comp in graph.sccs(nodes, succ):
        if graph.is_cyclic(comp, succ):
            kinds = {denotes[f][0] for f in comp if f in denotes}
            if kinds == {MU, NU}:
                raise SemanticError("formula has a fixed-point alternation on a cycle")
            if kinds == {NU}:
                on_nu.update(comp)
    return denotes, on_nu


def _translate(alphabet, roots, denote, unfold, recurring):
    """The automaton of both frontends, with states on demand: each root and
    each next-step operand f that a built condition names has the state q of
    ``denote(f) == (q, g)`` (one q, one g), with g's condition, recurring iff
    ``recurring(g)``.  A condition tests letters, names next-step operands'
    states, joins ``|`` and ``&``, and is ``unfold(g, build, state_of)`` for
    any other node g.  Returns the automaton and the roots' (initial) states."""
    names, todo = {}, []  # operand -> state name; (state name, denoted node) in build order

    def state_of(f):
        if f not in names:
            todo.append(denote(f))
            names[f] = todo[-1][0]
        return names[f]

    @functools.cache
    def build(f):
        if isinstance(f, Letter):
            return LetterSet(frozenset({f.name}))
        if isinstance(f, NegLetter):
            return LetterSet(frozenset(alphabet.letters) - {f.name})
        if isinstance(f, Next):
            return NextState(state_of(f.operand))
        if isinstance(f, (Or, And)):
            return type(f)(build(f.left), build(f.right))
        return unfold(f, build, state_of)

    initial = [state_of(f) for f in roots]
    delta = {q: build(g) for q, g in todo}  # the worklist: building appends the states named
    on = {q for q, g in todo if recurring(g)}
    return WeakAlternatingAutomaton(alphabet, list(delta), delta, on, initial=set(initial)), initial


def nutl_to_waa(phi_tuple, alphabet: Alphabet) -> tuple[WeakAlternatingAutomaton, list[str]]:
    """States on demand (:func:`_translate`): one for each tuple component
    and each next-step operand that a built condition names.  A variable,
    and a fix that selects one, share the state of the body they denote in
    :func:`_analyse`'s table and unfold to, named after the variable; any
    other operand gets a fresh name ``s<k>`` that no such state uses.  A
    state is recurring when the node it denotes lies on a cyclic component
    of greatest fixed points only.  Returns the automaton and the tuple
    components' states, its initial set.
    """
    roots = list(phi_tuple)
    denotes, on_nu = _analyse(roots)
    named = {name for _, name, _ in denotes.values()}
    fresh = (f"s{k}" for k in itertools.count() if f"s{k}" not in named)

    def denote(f):
        return denotes[f][1:] if f in denotes else (next(fresh), f)

    def unfold(f, build, _):
        if f not in denotes:
            raise TypeError(f"not a nutl formula: {f!r}")
        return build(denotes[f][2])

    return _translate(alphabet, roots, denote, unfold, on_nu.__contains__)


# the one translation under its former second name, which the benchmark
# harness (perfbench/run.py) binds and patches
nutl_to_waa_optimized = nutl_to_waa


# De Morgan duals: of each node class that keeps its fields, and of each fixed-point kind
_SWAP = {Letter: NegLetter, NegLetter: Letter, Or: And, And: Or, Next: Next, MU: NU, NU: MU}


def dual_nutl(f: Node) -> Node:
    """De Morgan dual: complements the defined language; an involution.
    Each distinct subformula is dualized once.  The dual keeps the variable
    names in systems of the other kind, so ``nutl_to_waa([phi,
    dual_nutl(phi)])`` finds each name bound twice and rejects the tuple,
    even where the bodies are self-dual, as in ``mu_0 (X).(O X)``."""

    @functools.cache
    def dual(f):
        swap = _SWAP.get(type(f))
        if swap is not None:
            return swap(*map(dual, f.children)) if f.children else swap(f.name)
        if isinstance(f, Var):
            return f
        if isinstance(f, Fix):
            return Fix(_SWAP[f.kind], f.index, f.vars, tuple(dual(b) for b in f.bodies))
        raise TypeError(f"not a nutl formula: {f!r}")

    return dual(f)


def nutl_eval_lasso(phi_tuple, w: LassoWord) -> list[frozenset]:
    """Per-position truth sets: position i maps to the set of component
    indices whose formula holds on the suffix from i.

    Kleene iteration over position masks (bit i for position i): a fix
    node iterates its body vector from no position (mu) or every position
    (nu) in place, each body reading the values its system's earlier bodies
    got in the same round (Gauss-Seidel; the bodies are monotone, so the
    fixed point is the same).  One environment serves the call; a system
    restores any outer binding of its names when it is solved.  ``&`` stops
    at no position and ``|`` at every position.  Each closed subformula is
    evaluated once per call, and each closed system (fix nodes alike but
    for ``index``) is solved once per call, for all its components.
    """
    roots = list(phi_tuple)
    _require_closed(roots)
    full, pre = w.full, w.pre
    closed, systems, env = {}, {}, {}

    def ev(f):
        got = closed.get(f)
        if got is not None:
            return got
        t = type(f)
        if t is And:
            got = ev(f.left)
            got = got and got & ev(f.right)
        elif t is Or:
            got = ev(f.left)
            got = got if got == full else got | ev(f.right)
        elif t is Var:
            return env[f.name]
        elif t is Next:
            got = pre(ev(f.operand))
        elif t is Letter:
            got = w.mask(f.name)
        elif t is NegLetter:
            got = full & ~w.mask(f.name)
        elif t is Fix:
            # one key means one set of free names: a hit is a closed system
            key = (f.kind, f.vars, f.bodies)
            values = systems.get(key)
            if values is None:
                outer = [env.get(name) for name in f.vars]
                env.update(dict.fromkeys(f.vars, 0 if f.kind == MU else full))
                for _ in range(w.positions * len(f.vars) + 2):
                    changed = False
                    for name, body in zip(f.vars, f.bodies):
                        got = ev(body)
                        if got != env[name]:
                            env[name], changed = got, True
                    if not changed:
                        break
                else:
                    raise AssertionError("fixed-point iteration failed to converge")
                values = [env[name] for name in f.vars]
                env.update(zip(f.vars, outer))
                if not f.free:
                    systems[key] = values
            got = values[f.index]
        else:
            raise TypeError(f"not a nutl formula: {f!r}")
        if not f.free:
            closed[f] = got
        return got

    truths = [[] for _ in range(w.positions)]
    for j, f in enumerate(roots):
        m = ev(f)
        while m:
            truths[(m & -m).bit_length() - 1].append(j)
            m &= m - 1
    return list(map(frozenset, truths))
