"""Exception types shared across the package, and the one check of an
integer parameter."""

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


def check_int(name: str, value, low: int | None, high: int | None = None) -> int:
    """Return `value` when it is an int, and not a bool, in `low`..`high`;
    otherwise raise ParameterError naming `name`. `low` None leaves the
    range open below and is not given with a `high`; `high` None leaves it
    open above."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or low is not None and value < low or high is not None and value > high):
        span = ("" if low is None else f" at least {low}" if high is None
                else f" in {low}..{high}")
        raise ParameterError(f"{name} must be an integer{span}, got {value!r}")
    return value
