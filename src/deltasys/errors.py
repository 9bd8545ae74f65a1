"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """An argument violates an operation's stated precondition."""


class UniformityError(ParameterError):
    """An operation restricted to a fixed uniformity received another one."""


class PreconditionError(ParameterError):
    """A completion/construction precondition fails for the given witness."""


class AdmissibilityError(ParameterError):
    """Design parameters fail the divisibility conditions for existence."""


class FormatError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConstructionError(RuntimeError):
    """A construction search exhausted its options without a result."""


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before finishing."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"node budget exhausted after {nodes} nodes")
