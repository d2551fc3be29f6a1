"""Instance transformations with extraction maps and per-instance checks.

Each transformation returns its target instance together with a certificate
recording everything the extraction map needs (colorings, partitions, layout
constants, seed).  Extraction maps turn feasible target solutions back into
feasible source objects and assert the structural identities they rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .ensembles import Seed, as_seed
from .exactmath import ceil_root, exp_neg_upper
from .graph import Graph, Hypergraph, WeightedDigraph
from .oracles import (
    DsnInstance,
    SteinerForestInstance,
    clique_list,
    densest_k_subgraph,
    is_biclique,
    max_balanced_biclique,
)


@dataclass(frozen=True)
class ReductionCertificate:
    """Everything needed to run the extraction map, JSON-serializable."""

    name: str
    seed: int | None
    data: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "data": self.data}

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "ReductionCertificate":
        return cls(name=d["name"], seed=d["seed"], data=dict(d["data"]))


# -- biclique -> DkS -------------------------------------------------------------


def dks_from_biclique(
    g: Graph, k: int, biclique: tuple[Sequence[int], Sequence[int]]
) -> tuple[int, ...]:
    """Pad a balanced biclique to a k-set; it carries at least t^2 edges."""
    a, b = tuple(biclique[0]), tuple(biclique[1])
    t = len(a)
    if t == 0 or len(b) != t:
        raise ValueError("biclique must have two non-empty sides of equal size")
    if not is_biclique(g, a, b):
        raise ValueError("claimed biclique is not one")
    if not 2 * t <= k <= g.n:
        raise ValueError(f"need 2t={2 * t} <= k={k} <= n={g.n}")
    chosen = set(a) | set(b)
    for v in range(g.n):
        if len(chosen) == k:
            break
        chosen.add(v)
    result = tuple(sorted(chosen))
    assert len(result) == k
    assert g.induced(result).m >= t * t
    return result


# -- SkES solution -> DkS --------------------------------------------------------


def averaging_floor(k: int, size: int, edges: int) -> int:
    """ceil(k(k-1) / (size(size-1)) * edges), the least number of edges the
    best k-subset of a size-set with that many edges keeps; 0 when size < 2."""
    if size < 2:
        return 0
    return math.ceil(Fraction(k * (k - 1), size * (size - 1)) * edges)


def dks_via_skes(
    g: Graph, k: int, skes_solution: Iterable[int]
) -> tuple[int, ...]:
    """Best k-subset of a small-set solution; averaging bound asserted.

    Runs the DkS oracle on G[S], so the result is the lex-least k-subset of S
    with the most induced edges.  That maximizer T* satisfies
    |E[T*]| >= ceil(k(k-1) / (|S|(|S|-1)) * |E[S]|), because a uniformly
    random k-subset keeps each edge with probability k(k-1)/(|S|(|S|-1)).
    """
    s = tuple(sorted(set(skes_solution)))
    if len(s) < k or k < 1:
        raise ValueError(f"need 1 <= k <= |S|={len(s)}")
    sub = g.induced(s)
    picked, best_edges = densest_k_subgraph(sub, k)
    assert best_edges >= averaging_floor(k, len(s), sub.m)
    return tuple(s[i] for i in picked)


# -- SkES -> Steiner k-forest -----------------------------------------------------


def skes_to_steiner_forest(
    g: Graph, k: int
) -> tuple[SteinerForestInstance, ReductionCertificate]:
    """Star with a leaf per vertex, unit weights; demands are the edges of g.

    Any forest connecting a demand {u, v} must buy both leaf edges, so cost
    equals the number of leaves touched and optima coincide with SkES.
    """
    if g.n < 1:
        raise ValueError("source graph must have at least one vertex")
    center = g.n
    star = Graph(g.n + 1, [(v, center) for v in range(g.n)])
    weights = tuple(Fraction(1) for _ in range(g.n))
    demands = tuple(g.edges())
    inst = SteinerForestInstance(star, weights, demands, k)
    cert = ReductionCertificate(
        name="skes_to_steiner_forest",
        seed=None,
        data={"center": center, "k": k, "source_n": g.n},
    )
    return inst, cert


def extract_skes_from_forest(
    cert: ReductionCertificate, forest_edges: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Leaves touched by the forest; the forest's cost equals their number."""
    center = cert.data["center"]
    leaves: set[int] = set()
    for u, v in forest_edges:
        if center not in (u, v):
            raise ValueError(f"edge ({u}, {v}) is not a star edge")
        leaves.add(u if v == center else v)
    return tuple(sorted(leaves))


# -- SkES -> directed Steiner network ----------------------------------------------


def _pin_rainbow(labels: list[int], rainbow: Sequence[int] | None, k: int) -> str:
    """Pin vertex rainbow[i] to label i in place, once rainbow is checked to
    name k distinct vertices; return the certificate's mode."""
    if rainbow is None:
        return "random"
    if len(rainbow) != k or len(set(rainbow)) != k:
        raise ValueError("rainbow needs exactly k distinct vertices")
    for i, v in enumerate(rainbow):
        if not 0 <= v < len(labels):
            raise ValueError(f"rainbow vertex {v} out of range")
        labels[v] = i
    return "rainbow"


def skes_to_dsn(
    g: Graph,
    k: int,
    seed: int | Seed,
    rainbow: Sequence[int] | None = None,
    index: int = 0,
) -> tuple[DsnInstance, ReductionCertificate]:
    """Two-layer gadget over a random (or forced-rainbow) k-partition.

    Layout on 2n + 2k vertices: first layer copy v1 = v, second layer copy
    v2 = n + v, sources s_i = 2n + i, sinks t_j = 2n + k + j.  Weight-0 arcs
    (v1, u2) exist iff {v,u} is an edge or v = u; weight-1 arcs attach s_i to
    the first-layer copies of part i and second-layer copies of part j to
    t_j.  Demands are all k^2 ordered (s_i, t_j) pairs.  A rainbow sequence
    pins vertex rainbow[i] to part i; everything else is seeded uniform.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    seed = as_seed(seed)
    rng = seed.stream("dsn-partition", index)
    part = [int(x) for x in rng.integers(0, k, size=n)]
    mode = _pin_rainbow(part, rainbow, k)
    arcs: list[tuple[int, int, Fraction]] = []
    for v in range(n):
        arcs.append((v, n + v, Fraction(0)))
        for u in g.neighbors(v):
            arcs.append((v, n + u, Fraction(0)))
    for v in range(n):
        arcs.append((2 * n + part[v], v, Fraction(1)))
        arcs.append((n + v, 2 * n + k + part[v], Fraction(1)))
    demands = tuple(
        (2 * n + i, 2 * n + k + j) for i in range(k) for j in range(k)
    )
    inst = DsnInstance(WeightedDigraph(2 * n + 2 * k, arcs), demands)
    cert = ReductionCertificate(
        name="skes_to_dsn",
        seed=seed.value,
        data={
            "n": n,
            "k": k,
            "partition": part,
            "mode": mode,
            "rainbow": list(rainbow) if rainbow is not None else None,
            "index": index,
        },
    )
    return inst, cert


def extract_dsn_solution(
    cert: ReductionCertificate, arcs: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Vertices whose terminal arcs the solution pays for."""
    starts, ends = _terminal_arcs(cert, arcs)
    return tuple(sorted(set().union(*starts.values(), *ends.values())))


def _terminal_arcs(
    cert: ReductionCertificate, arcs: Iterable[tuple[int, int]]
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """For each part i, the v of every (s_i, v1) arc; for each part j, the u of
    every (u2, t_j) arc."""
    n, k = cert.data["n"], cert.data["k"]
    starts: dict[int, set[int]] = {i: set() for i in range(k)}
    ends: dict[int, set[int]] = {j: set() for j in range(k)}
    for u, v in arcs:
        if 2 * n <= u < 2 * n + k:
            starts[u - 2 * n].add(v)
        elif v >= 2 * n + k:
            ends[v - 2 * n - k].add(u - n)
    return starts, ends


def dsn_cross_edge_property(
    g: Graph, cert: ReductionCertificate, arcs: Iterable[tuple[int, int]]
) -> bool:
    """Every satisfiable (i, j), i != j, forces an edge of g between the parts.

    The only s_i -> t_j route is s_i -> v1 -> u2 -> t_j with v in part i and
    u in part j; for i != j the zero arc's endpoints differ, so {v,u} in E.
    The i = j demands are satisfiable through v = u and carry no edge; they
    are deliberately not checked.
    """
    n, k = cert.data["n"], cert.data["k"]
    arcset = set(arcs)
    starts, ends = _terminal_arcs(cert, arcset)
    return all(
        any(
            (v, n + u) in arcset and v != u and g.has_edge(v, u)
            for v in starts[i]
            for u in ends[j]
        )
        for i in range(k)
        for j in range(k)
        if i != j
    )


# -- biclique -> densest k-subhypergraph ---------------------------------------------


def ell_for_ratio(rho: int, g_value) -> int:
    """Exact ceil(rho / g^(1/10)) for integer rho >= 1 and rational g > 0."""
    g_value = Fraction(g_value)
    if rho < 1 or g_value <= 0:
        raise ValueError("need rho >= 1 and g > 0")
    # the least c with c^10 >= rho^10 / g, that is c^10 >= ceil(rho^10 / g)
    return ceil_root(math.ceil(rho**10 / g_value), 10)


def biclique_to_dksh(
    g: Graph, k: int, ell: int
) -> tuple[Hypergraph, int, int, ReductionCertificate]:
    """Hyperedges are the 2*ell-cliques of g; target size rho = 2k."""
    if k < 1 or ell < 1:
        raise ValueError("need k >= 1 and ell >= 1")
    rho = 2 * k
    edges = clique_list(g, 2 * ell)
    hyper = Hypergraph(g.n, edges)
    cert = ReductionCertificate(
        name="biclique_to_dksh",
        seed=None,
        data={"rho": rho, "ell": ell, "k": k, "threshold": k // 8},
    )
    return hyper, rho, ell, cert


def extract_dksh_solution(
    g: Graph, cert: ReductionCertificate, solution: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Brute-force the best balanced biclique inside the returned set.

    Reports it in original vertex ids plus whether it reaches floor(k/8).
    """
    vs = tuple(sorted(set(solution)))
    sub = g.induced(vs)
    a, b = max_balanced_biclique(sub)
    back_a = tuple(vs[i] for i in a)
    back_b = tuple(vs[i] for i in b)
    assert is_biclique(g, back_a, back_b)
    return back_a, back_b, len(back_a) >= cert.data["threshold"]


# -- DkS -> induced pattern detection ------------------------------------------------


def dks_to_induced_pattern(
    g: Graph,
    h: Graph,
    seed: int | Seed,
    rainbow: Sequence[int] | None = None,
    index: int = 0,
) -> tuple[Graph, ReductionCertificate]:
    """Color-and-filter: keep a host edge iff its colors form a pattern edge.

    When the pattern has fewer than k/4 edges per vertex both pattern and
    host are complemented first, recorded in the certificate.  An edge {u,v}
    of the (possibly complemented) host survives iff color(u) != color(v)
    and {color(u), color(v)} is a (possibly complemented) pattern edge.  A
    rainbow sequence pins host vertex rainbow[i] to color i, so a clique on
    those vertices induces a copy of the pattern.
    """
    k = h.n
    if k < 1 or k > g.n:
        raise ValueError(f"need 1 <= pattern size {k} <= host size {g.n}")
    complemented = Fraction(h.m, k) < Fraction(k, 4)
    h_eff = h.complement() if complemented else h
    g_eff = g.complement() if complemented else g
    seed = as_seed(seed)
    rng = seed.stream("pattern-coloring", index)
    colors = [int(x) for x in rng.integers(0, k, size=g.n)]
    mode = _pin_rainbow(colors, rainbow, k)
    kept = [
        (u, v)
        for u, v in g_eff.edges()
        if colors[u] != colors[v] and h_eff.has_edge(colors[u], colors[v])
    ]
    out = Graph(g.n, kept)
    cert = ReductionCertificate(
        name="dks_to_induced_pattern",
        seed=seed.value,
        data={
            "k": k,
            "coloring": colors,
            "complemented": complemented,
            "mode": mode,
            "rainbow": list(rainbow) if rainbow is not None else None,
            "pattern_used": [list(e) for e in h_eff.edges()],
            "index": index,
        },
    )
    return out, cert


# -- the K_{t,t} counting bound -------------------------------------------------------


def lemma44_bound(kappa: int, t: int, ell: int) -> Fraction:
    """Rational upper bound on 2 e^(-ell^2/(16 t)) C(kappa, ell) C(kappa-ell, ell).

    The exponential is rounded up, so the returned value is never below the
    true bound.
    """
    if not 0 < ell < t:
        raise ValueError(f"need 0 < ell < t, got ell={ell}, t={t}")
    if not 16 * t <= kappa:
        raise ValueError(f"need t <= kappa/16, got t={t}, kappa={kappa}")
    expo = exp_neg_upper(Fraction(ell * ell, 16 * t))
    return 2 * expo * math.comb(kappa, ell) * math.comb(kappa - ell, ell)
