"""Tokenizer and token cursor shared by the recursive-descent parsers.

Each language (LTL formulas, fixed-point formulas, transition conditions)
supplies its own token pattern and grammar; this module only splits a text
into tokens and hands them out one at a time.
"""

from __future__ import annotations

import re

from .errors import FormatError

_SPACE = re.compile(r"\s*")


class TokenCursor:
    """The tokens of one text, read front to back.

    Whitespace separates tokens and is skipped; at every other position
    ``pattern`` must match a non-empty token, or the text is rejected.
    Positions are character offsets of token starts; the end of the text
    has position ``len(text)``.  ``what`` names the text in end-of-input
    errors.
    """

    def __init__(self, text: str, pattern: re.Pattern, what: str):
        self.text = text
        self.what = what
        self.tokens = []
        pos = _SPACE.match(text).end()
        while pos < len(text):
            m = pattern.match(text, pos)
            if not m or not m.group():
                raise FormatError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.group(), pos))
            pos = _SPACE.match(text, m.end()).end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expect: str | None = None) -> str:
        """The next token, which must be ``expect`` when that is given."""
        tok = self.peek()
        if tok is None:
            raise FormatError(f"unexpected end of {self.what}", self.pos())
        if expect is not None and tok != expect:
            raise FormatError(f"expected {expect!r}, got {tok!r}", self.pos())
        self.i += 1
        return tok

    def chain(self, op: str, operand, make):
        """``operand (op operand)*``, grouped to the left by ``make``."""
        f = operand()
        while self.peek() == op:
            self.take()
            f = make(f, operand())
        return f

    def end(self):
        """Reject tokens left over after a complete parse."""
        if self.peek() is not None:
            raise FormatError(f"trailing input {self.peek()!r}", self.pos())
