"""Exception types shared across the package."""


class BackdetError(Exception):
    pass


class FormatError(BackdetError):
    """Malformed input text (automata files, formulas, lassos)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)
        self.position = position


class SemanticError(BackdetError):
    """Well-formed input failing a semantic check (weakness, guardedness, ...)."""


class StateSpaceCapError(BackdetError):
    """Requested enumeration exceeds the configured cap."""

    def __init__(self, bound, cap):
        super().__init__(f"state space has {bound} families, exceeding cap {cap}")
        self.bound = bound
        self.cap = cap


class FinalRunError(BackdetError):
    """The backward automaton violated the exactly-one-final-run guarantee."""


class NoFinalRunError(FinalRunError):
    pass


class MultipleFinalRunsError(FinalRunError):
    """More than one candidate run is final; ``count`` says how many."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count
