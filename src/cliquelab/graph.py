"""Core graph types: undirected graphs, weighted digraphs, hypergraphs.

Undirected graphs are immutable and store adjacency as one Python-int bitmask
per vertex, so clique and neighborhood tests are single AND operations.
Densities and weights are exact (fractions.Fraction), never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .caps import check_vertices


class Graph:
    """Simple undirected graph on vertices 0..n-1 with no self-loops."""

    __slots__ = ("n", "_rows", "_m", "_np_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertices(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)
        self._m = sum(r.bit_count() for r in rows) // 2
        self._np_cache = None

    @classmethod
    def _from_rows(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        g = cls.__new__(cls)
        g.n = n
        g._rows = rows
        g._m = sum(r.bit_count() for r in rows) // 2
        g._np_cache = None
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        check_vertices(n)
        full = (1 << n) - 1
        return cls._from_rows(n, tuple(full & ~(1 << u) for u in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(u, (u + 1) % n) for u in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(u, u + 1) for u in range(n - 1)])

    @classmethod
    def from_bool_matrix(cls, adj: np.ndarray) -> "Graph":
        """Build from a symmetric boolean adjacency matrix with a zero diagonal."""
        n = adj.shape[0]
        check_vertices(n)
        if adj.shape != (n, n):
            raise ValueError("adjacency matrix must be square")
        if adj.dtype != np.bool_:
            adj = adj.astype(bool)
        if np.any(adj.diagonal()):
            raise ValueError("self-loop on the diagonal")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix must be symmetric")
        return cls._from_rows(n, tuple(bit_rows(adj)))

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    @property
    def rows(self) -> tuple[int, ...]:
        """Every vertex's neighborhood as a bitmask, row u for vertex u."""
        return self._rows

    def row(self, u: int) -> int:
        """Neighborhood of u as a bitmask."""
        return self._rows[u]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self._rows[u].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no degrees")
        return min(r.bit_count() for r in self._rows)

    def neighbors(self, u: int) -> list[int]:
        return _bits(self._rows[u])

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with u < v."""
        return [
            (u, v) for u, row in enumerate(self._rows) for v in _bits(row >> (u + 1) << (u + 1))
        ]

    def to_bool_matrix(self) -> np.ndarray:
        if self._np_cache is None:
            nbytes = (self.n + 7) // 8
            buf = b"".join(r.to_bytes(nbytes, "little") for r in self._rows)
            bits = np.unpackbits(
                np.frombuffer(buf, dtype=np.uint8).reshape(self.n, nbytes),
                axis=1,
                bitorder="little",
            )
            self._np_cache = bits[:, : self.n].astype(bool)
        return self._np_cache

    # -- structural operations ----------------------------------------------

    def density(self) -> Fraction:
        if self.n == 0:
            raise ValueError("density of the empty graph is undefined")
        return Fraction(self._m, self.n)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = set(vertices)
        mask = 0
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        for v in vs:
            if mask & ~(self._rows[v] | (1 << v)):
                return False
        return True

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced on the given vertices, relabeled to 0..|S|-1.

        New label i corresponds to sorted(vertices)[i].
        """
        vs = sorted(set(vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        pos = {v: i for i, v in enumerate(vs)}
        rows = []
        for v in vs:
            r = self._rows[v]
            new = 0
            for w in vs:
                new |= (r >> w & 1) << pos[w]
            rows.append(new)
        return Graph._from_rows(len(vs), tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_rows(
            self.n, tuple(full & ~(self._rows[u] | (1 << u)) for u in range(self.n))
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def bit_rows(bits: np.ndarray) -> list[int]:
    """Row r of a 2-D boolean array as the int with bit c set iff bits[r, c]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[r * width : (r + 1) * width], "little")
        for r in range(packed.shape[0])
    ]


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        shift = (mask & -mask).bit_length() - 1
        v += shift
        out.append(v)
        mask >>= shift + 1
        v += 1
    return out


def peel_to_min_degree(g: Graph) -> tuple[int, ...]:
    """Repeatedly drop the lowest-indexed vertex of degree below density(g).

    The threshold stays fixed at the input density.  Fewer than m edges are
    deleted in total, so the survivor set is non-empty and every survivor has
    degree at least density(g) inside it.
    """
    if g.m == 0:
        raise ValueError("peeling needs at least one edge")
    threshold = g.density()
    alive_mask = (1 << g.n) - 1
    alive = set(range(g.n))
    while True:
        victim = -1
        for u in sorted(alive):
            if (g.row(u) & alive_mask).bit_count() < threshold:
                victim = u
                break
        if victim < 0:
            break
        alive.remove(victim)
        alive_mask &= ~(1 << victim)
    assert alive, "peeling emptied the graph, which contradicts the edge count bound"
    return tuple(sorted(alive))


Weight = Fraction | int


class WeightedDigraph:
    """Directed graph with exact non-negative arc weights, no self-arcs."""

    __slots__ = ("n", "_weights")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, Weight]] = ()):
        check_vertices(n)
        self.n = n
        weights: dict[tuple[int, int], Fraction] = {}
        for u, v, w in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on arc ({u}, {v})")
            if (u, v) in weights and weights[(u, v)] != w:
                raise ValueError(f"conflicting weights for arc ({u}, {v})")
            weights[(u, v)] = w
        self._weights = weights

    @property
    def arc_count(self) -> int:
        return len(self._weights)

    def arcs(self) -> list[tuple[int, int, Fraction]]:
        return [(u, v, self._weights[(u, v)]) for u, v in sorted(self._weights)]

    def weight(self, u: int, v: int) -> Fraction:
        return self._weights[(u, v)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self.n == other.n
            and self._weights == other._weights
        )

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, arcs={len(self._weights)})"


class Hypergraph:
    """Hypergraph on vertices 0..n-1; hyperedges are non-empty vertex sets."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        check_vertices(n)
        self.n = n
        seen: set[tuple[int, ...]] = set()
        for e in edges:
            t = tuple(sorted(set(e)))
            if not t:
                raise ValueError("empty hyperedge")
            if not (0 <= t[0] and t[-1] < n):
                raise ValueError(f"hyperedge {t} out of range for n={n}")
            seen.add(t)
        self.edges = tuple(sorted(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edges_inside(self, vertices: Iterable[int]) -> list[tuple[int, ...]]:
        s = set(vertices)
        return [e for e in self.edges if s.issuperset(e)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"
