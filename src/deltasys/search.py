"""Shared plumbing for the exact searches and the reports: outcomes, node
budgets and named checks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .errors import BudgetExceeded, check_int

DEFAULT_NODE_BUDGET = 10**8


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


@dataclass(frozen=True)
class Check:
    """A named claim about a result and whether it holds. `detail` says what
    was measured; `witness` is what breaks the claim."""

    name: str
    ok: bool
    claim: str
    detail: str | None = None
    witness: Any | None = None

    def to_json(self) -> dict:
        """The check as a report entry; `detail` and `witness` only when set."""
        out = {"name": self.name, "verdict": "pass" if self.ok else "fail",
               "claim": self.claim}
        if self.detail:
            out["detail"] = self.detail
        if self.witness:
            out["witness"] = self.witness
        return out


class NodeCounter:
    """Counts search nodes and raises BudgetExceeded past the limit, which
    defaults to `DEFAULT_NODE_BUDGET`."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None = None):
        self.nodes = 0
        self.limit = DEFAULT_NODE_BUDGET if limit is None else check_int("node budget", limit, 1)

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(self.nodes)

    def add(self, count: int) -> None:
        """`count` ticks at once; past the limit it stops at limit + 1, where
        ticking one at a time would have stopped."""
        self.nodes += count
        if self.nodes > self.limit:
            self.nodes = self.limit + 1
            raise BudgetExceeded(self.nodes)


def bounded(budget: int | None, search: Callable[[NodeCounter], Any]) -> SearchOutcome:
    """Run `search` on a fresh `NodeCounter(budget)`: FOUND with the value it
    returns, NONE when that is None, BUDGET once the counter runs out."""
    counter = NodeCounter(budget)
    try:
        value = search(counter)
    except BudgetExceeded:
        return SearchOutcome(SearchStatus.BUDGET, None, counter.nodes)
    if value is None:
        return SearchOutcome(SearchStatus.NONE, None, counter.nodes)
    return SearchOutcome(SearchStatus.FOUND, value, counter.nodes)
