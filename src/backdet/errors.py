"""Exception types shared across the package."""


class BackdetError(Exception):
    pass


class FormatError(BackdetError):
    """Malformed input text (automata files, formulas, lassos).

    ``reason`` is the message without ``position``, which is an offset into
    the text or a line reference.
    """

    def __init__(self, message, position=None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)


class SemanticError(BackdetError):
    """Well-formed input failing a semantic check (weakness, guardedness, ...);
    ``cycle`` is an unguarded fixed-point tuple's witness: subformulas, none a
    next step, each leading to the next and the last back to the first."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class StateSpaceCapError(BackdetError):
    """Requested enumeration exceeds the configured cap."""

    def __init__(self, bound, cap):
        super().__init__(f"state space has {bound} families, exceeding cap {cap}")
        self.bound = bound
        self.cap = cap


class FinalRunError(BackdetError):
    """The backward automaton violated the exactly-one-final-run guarantee.

    ``word`` is the lasso word and ``scc`` the index of the SCC whose
    search failed, when known.
    """

    def __init__(self, message, word=None, scc=None):
        super().__init__(message)
        self.word = word
        self.scc = scc


class NoFinalRunError(FinalRunError):
    pass


class MultipleFinalRunsError(FinalRunError):
    """More than one candidate run is final; ``count`` says how many, and
    ``candidates`` holds the SCC's final local value tuples when known."""

    def __init__(self, message, count, word=None, scc=None, candidates=()):
        super().__init__(message, word, scc)
        self.count = count
        self.candidates = candidates
