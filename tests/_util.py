"""Helpers shared across test modules; kept out of conftest for plain imports."""

from __future__ import annotations

import itertools
import json
import random
import sys
from contextlib import contextmanager
from typing import Iterator

from cliquelab.graph import Graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Plain stdlib sampler, independent of the package's own ensembles."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def clique_rich_graph(kind: str, n: int, p: float, rng: random.Random) -> Graph:
    """A G(n, p) sample, the same with a clique planted on a random vertex
    subset, or disjoint cliques on random blocks of the vertices."""
    if kind == "random":
        return random_graph(n, p, rng)
    if kind == "planted":
        g = random_graph(n, p, rng)
        members = sorted(rng.sample(range(n), rng.randint(0, n)))
        return Graph(n, set(g.edges()) | set(itertools.combinations(members, 2)))
    block = [rng.randrange(max(1, n // 4)) for _ in range(n)]
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if block[u] == block[v]])


@contextmanager
def shallow_stack(headroom: int = 200) -> Iterator[None]:
    """Allow only headroom more Python frames than the caller's depth, so that
    a search recursing once per level fails well before it could answer."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


STEINER = {
    "type": "steiner-k-forest", "n": 3, "edges": [[0, 1], [1, 2]],
    "weights": ["1", "2"], "demands": [[0, 2]], "k": 1,
}
DSN = {"type": "dsn", "n": 3, "arcs": [[0, 1, "1"], [1, 2, "2"]], "demands": [[0, 2]]}


def _with(base: dict, **fields) -> str:
    """base as JSON text, with fields replaced; a field set to ... is dropped."""
    fields = {**base, **fields}
    return json.dumps({key: value for key, value in fields.items() if value is not ...})


# (problem, instance text, the start of the refusal's message), each id'd
BAD_INSTANCES = {
    "not-an-object": ("steiner-k-forest", "[1, 2]", "expected a JSON object, got list"),
    "missing-k": ("steiner-k-forest", _with(STEINER, k=...), "missing field 'k'"),
    "missing-arcs": ("dsn", _with(DSN, arcs=...), "missing field 'arcs'"),
    "float-k": ("steiner-k-forest", _with(STEINER, k=1.0), "field 'k' must be an integer"),
    "bool-n": ("steiner-k-forest", _with(STEINER, n=True), "field 'n' must be an integer"),
    "dsn-bool-n": ("dsn", _with(DSN, n=True), "field 'n' must be an integer"),
    "float-endpoint": (
        "steiner-k-forest", _with(STEINER, edges=[[0, 1], [1, 2.0]]), "field 'edges' must be"
    ),
    "float-arc-end": ("dsn", _with(DSN, arcs=[[0, 1.0, "1"]]), "field 'arcs' must be"),
    "bool-demand-end": (
        "steiner-k-forest", _with(STEINER, demands=[[0, True]]), "field 'demands' must be"
    ),
    "float-demand-end": ("dsn", _with(DSN, demands=[[0, 2.0]]), "field 'demands' must be"),
    "int-weight": (
        "steiner-k-forest", _with(STEINER, weights=[1, "2"]), "field 'weights' must be"
    ),
    "float-arc-weight": (
        "dsn", _with(DSN, arcs=[[0, 1, 0.1], [1, 2, "0.2"]]), "field 'arcs' must be"
    ),
    "edge-twice": (
        "steiner-k-forest", _with(STEINER, edges=[[0, 1], [0, 1]]), "edge (0, 1) listed twice"
    ),
    "edge-twice-reversed": (
        "steiner-k-forest", _with(STEINER, edges=[[1, 2], [2, 1]]), "edge (1, 2) listed twice"
    ),
    **{
        f"weight-{name}": ("dsn", _with(DSN, arcs=[[0, 1, w]]), f"invalid weight {w!r}")
        for name, w in [
            ("underscore", "1_0"), ("arabic-indic", "\u0661"), ("blanks", " 1/2 "),
            ("exponent", "1e3"), ("over-zero", "1/0"),
        ]
    },
}
