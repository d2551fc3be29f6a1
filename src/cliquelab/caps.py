"""Safety caps for exact enumeration and graph size, and the search budget.

All enumeration-style oracles estimate their work up front and refuse to run
past the cap instead of hanging.  CLIQUELAB_CAP overrides the enumeration cap.
Wall-clock budgets are cooperative: every search polls check_budget() at each
recursive step, so an overrun stops the search on the thread that runs it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .errors import BudgetExceeded, CapExceeded

# Packed adjacency rows stay cheap up to this many vertices.
VERTEX_CAP = 4096

DEFAULT_ENUM_CAP = 10**8

# Exact big-integer results larger than this many bits are refused.
BIGINT_BIT_CAP = 2**33

# (monotonic deadline, budget in ms, what runs) of the budget scope in force
_DEADLINE: ContextVar[tuple | None] = ContextVar("cliquelab_deadline", default=None)


def enum_cap() -> int:
    raw = os.environ.get("CLIQUELAB_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapExceeded(f"CLIQUELAB_CAP must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise CapExceeded(f"CLIQUELAB_CAP must be positive, got {value}")
    return value


def check_enum(count: int, what: str) -> None:
    """Refuse enumerations whose size estimate exceeds the cap."""
    cap = enum_cap()
    if count > cap:
        raise CapExceeded(
            f"{what} needs {count} enumeration steps, above the cap {cap} "
            f"(override with CLIQUELAB_CAP)"
        )


@contextmanager
def budget(budget_ms: int | None, what: str) -> Iterator[None]:
    """Give the searches run in this scope budget_ms of wall-clock time.

    None opens no budget; a nested scope keeps the earlier deadline.
    """
    if budget_ms is None:
        yield
        return
    limit = (time.monotonic() + budget_ms / 1000.0, budget_ms, what)
    token = _DEADLINE.set(min(_DEADLINE.get() or limit, limit))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_budget() -> None:
    """Raise BudgetExceeded once the deadline of the current scope has passed."""
    limit = _DEADLINE.get()
    if limit is not None and time.monotonic() > limit[0]:
        raise BudgetExceeded(
            f"{limit[2]} exceeded the {limit[1]} ms budget; no verdict reached"
        )
