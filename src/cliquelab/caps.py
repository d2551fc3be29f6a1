"""Every cap, and the one way each refuses a job (CapExceeded).

VERTEX_CAP bounds the vertices of a packed-adjacency structure, refused by
check_vertices() before it is built or sampled.  SLOW_BIT_CAP bounds an exact
big integer, refused by check_bits() before it is materialized.  The node cap
(CLIQUELAB_CAP) bounds the one search budget: a budget scope counts the nodes
its searches expand, the set pairs the disperser's pair sweep unions and the
sets it samples, and may hold a wall-clock deadline (BudgetExceeded).  Every search polls
check_budget() as it goes, so either overrun stops it on the thread that runs
it, and no search is refused on an up-front estimate.
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

# Exact big integers larger than this many bits are refused: big-int pow and
# iroot on results beyond ~10^7 bits take minutes to hours.
SLOW_BIT_CAP = 10**7

# (what runs, (monotonic deadline, budget in ms, what set it) or None, node cap,
# [nodes expanded]) of the budget scope in force; nested scopes share the list,
# and so do trials that verify runs on pool threads.  Its increment takes no
# lock, which every poll would pay for; an update lost to a thread switch only
# lets the cap trip a node later.
_SCOPE: ContextVar[tuple | None] = ContextVar("cliquelab_budget", default=None)


def check_vertices(n: int) -> None:
    """Refuse a structure on n vertices above VERTEX_CAP; n must be >= 0."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n > VERTEX_CAP:
        raise CapExceeded(f"{n} vertices exceeds the vertex cap {VERTEX_CAP}")


def check_bits(bits: int, what: str) -> None:
    """Refuse an exact big integer of about `bits` bits above SLOW_BIT_CAP."""
    if bits > SLOW_BIT_CAP:
        raise CapExceeded(f"{what} needs ~{bits} bits (cap {SLOW_BIT_CAP})")


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


@contextmanager
def budget(budget_ms: int | None, what: str) -> Iterator[None]:
    """Count the nodes the searches in this scope expand; give them budget_ms.

    The outermost scope reads enum_cap() and owns the count; a nested scope
    shares it and keeps the earlier deadline.  None sets no deadline.
    """
    _, limit, cap, nodes = _SCOPE.get() or (None, None, enum_cap(), [0])
    if budget_ms is not None:
        mine = (time.monotonic() + budget_ms / 1000.0, budget_ms, what)
        limit = min(limit or mine, mine)
    token = _SCOPE.set((what, limit, cap, nodes))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def check_budget(steps: int = 1) -> None:
    """Count steps nodes in the scope in force, if any; raise once past its
    cap (CapExceeded) or its deadline (BudgetExceeded)."""
    scope = _SCOPE.get()
    if scope is None:
        return
    what, limit, cap, nodes = scope
    nodes[0] += steps
    if nodes[0] > cap:
        raise CapExceeded(
            f"{what} passed the cap of {cap} search nodes (override with CLIQUELAB_CAP)"
        )
    if limit is not None and time.monotonic() > limit[0]:
        raise BudgetExceeded(
            f"{limit[2]} exceeded the {limit[1]} ms budget; no verdict reached"
        )
