"""Shared plumbing for the exact searches: outcomes and node budgets."""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import BudgetExceeded, ParameterError

ENV_BUDGET = "DELTASYS_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 10**8


def default_budget() -> int:
    """Node budget from the environment, else the package default."""
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_BUDGET} must be an integer, got {raw!r}")
    if value < 1:
        raise ParameterError(f"{ENV_BUDGET} must be positive, got {value}")
    return value


class SearchStatus(str, Enum):
    FOUND = "found"
    NONE = "none"
    BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded exact search.

    status FOUND carries a witness; NONE means the search space was exhausted;
    BUDGET means the node budget ran out before either answer was reached.
    """

    status: SearchStatus
    witness: Any | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class NodeCounter:
    """Counts search nodes and raises BudgetExceeded past the limit, which
    defaults to `default_budget()`."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = default_budget()
        if limit < 1:
            raise ParameterError(f"node budget must be positive, got {limit}")
        self.nodes = 0
        self.limit = limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(self.nodes)
