"""Exception types shared across the package."""


class FinspaceError(Exception):
    pass


class CycleDetected(FinspaceError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"relation contains a cycle: {' < '.join(self.cycle)} < {self.cycle[0]}")


class DuplicateElement(FinspaceError):
    pass


class UnknownElement(FinspaceError):
    pass


class UnknownSimplex(FinspaceError):
    pass


class UnknownMember(FinspaceError):
    pass


class EmptySpace(FinspaceError):
    pass


class EmptyComplex(FinspaceError):
    pass


class EmptyObject(FinspaceError):
    pass


class TargetNotInduced(FinspaceError):
    pass


class NotOrderPreserving(FinspaceError):
    pass


class MismatchedSpaces(FinspaceError):
    pass


class MalformedSpec(FinspaceError):
    pass


class InvalidCover(FinspaceError):
    pass


class NotAChain(FinspaceError):
    pass


class GenerationExhausted(FinspaceError):
    pass


class InvariantViolation(FinspaceError):
    """An internal consistency check failed: a bug, not bad input."""
