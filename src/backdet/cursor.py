"""Tokenizer, token cursor and the ``|``/``&`` grammar shared by the
recursive-descent parsers.

All three languages (LTL formulas, fixed-point formulas, transition
conditions) are a ``|``-chain of ``&``-chains of operands, read from tokens
over an alphabet, and all three build the one :class:`~backdet.node.Or` and
:class:`~backdet.node.And` node classes.  A parser subclasses
:class:`TokenCursor` and supplies only what differs: its token pattern and
its operand grammar.
"""

from __future__ import annotations

import re

from .errors import FormatError
from .node import And, Or


class TokenCursor:
    """The tokens of one text over ``alphabet``, read front to back.

    A subclass sets ``token``, the regular expression of one token; it is
    compiled once per class, as ``\\s*(?:(token)|(\\S))``.  Whitespace
    separates tokens and is skipped; at every other position ``token`` must
    match a non-empty token, or the text is rejected.  Positions are
    character offsets of token starts.  An end token ``(None, len(text))``
    closes the list, so :meth:`peek` returns None there; ``what`` names the
    text in end-of-input errors.

    :meth:`parse` reads the whole text as a ``|``-chain of ``&``-chains of
    the subclass's ``operand()``, grouped to the left into ``Or`` and ``And``
    nodes, and rejects input left over.
    """

    what = "formula"

    def __init_subclass__(cls):
        cls.scan = re.compile(rf"\s*(?:({cls.token})|(\S))").finditer

    def __init__(self, text: str, alphabet):
        self.alphabet = alphabet
        self.tokens = tokens = []
        for m in self.scan(text):
            tok = m[1]
            if not tok:  # no token starts here, or the token is empty
                at = max(m.start(1), m.start(2))
                if at < len(text):
                    raise FormatError(f"unexpected character {text[at]!r}", at)
            else:
                tokens.append((tok, m.start(1)))
        tokens.append((None, len(text)))
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self, expect: str | None = None) -> str:
        """The next token, which must be ``expect`` when that is given."""
        tok, at = self.tokens[self.i]
        if tok is None:
            raise FormatError(f"unexpected end of {self.what}", at)
        if expect is not None and tok != expect:
            raise FormatError(f"expected {expect!r}, got {tok!r}", at)
        self.i += 1
        return tok

    def chain(self, op: str, operand, make):
        """``operand (op operand)*``, grouped to the left by ``make``."""
        f = operand()
        while self.tokens[self.i][0] == op:
            self.i += 1
            f = make(f, operand())
        return f

    def parse(self):
        f = self.parse_or()
        tok, at = self.tokens[self.i]
        if tok is not None:
            raise FormatError(f"trailing input {tok!r}", at)
        return f

    def parse_or(self):
        return self.chain("|", self.parse_and, Or)

    def parse_and(self):
        return self.chain("&", self.operand, And)
