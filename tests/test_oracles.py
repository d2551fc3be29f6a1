from __future__ import annotations

import gc
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from _util import clique_rich_graph, random_graph, shallow_stack
from cliquelab import oracles
from cliquelab.caps import VERTEX_CAP, budget
from cliquelab.ensembles import sample_er, sample_pattern, sample_planted
from cliquelab.errors import CapExceeded, InfeasibleError, PatternSearchTimeout
from cliquelab.graph import Graph, Hypergraph, WeightedDigraph, _bits
from cliquelab.oracles import (
    DsnInstance,
    SteinerForestInstance,
    clique_list,
    clique_number,
    contains_ktt,
    count_bicliques,
    count_cliques,
    den_leq_k,
    densest_k_subgraph,
    densest_k_subhypergraph,
    detect_pattern,
    directed_steiner_network,
    is_biclique,
    max_balanced_biclique,
    max_clique,
    satisfied_demands,
    smallest_k_edge_subgraph,
    steiner_k_forest,
)
from cliquelab.reductions import skes_to_dsn, skes_to_steiner_forest
from cliquelab.rgp import check_disperser, rgp, sample_family


def _nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- cliques ---------------------------------------------------------------------


def test_max_clique_known_graphs(k4, c5):
    assert max_clique(k4) == (0, 1, 2, 3)
    assert max_clique(c5) == (0, 1)
    assert clique_number(c5) == 2
    assert max_clique(Graph.empty(3)) == (0,)
    assert max_clique(Graph.empty(0)) == ()


def test_max_clique_lex_least_among_ties():
    # two disjoint triangles; {0,1,2} and {3,4,5} tie, lex-least wins
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert max_clique(g) == (0, 1, 2)
    # reversed labels: triangle on high ids plus an early edge
    g2 = Graph(6, [(3, 4), (3, 5), (4, 5), (0, 1)])
    assert max_clique(g2) == (3, 4, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10**6))
def test_max_clique_against_networkx(n, seed):
    g = random_graph(n, 0.5, random.Random(seed))
    ours = max_clique(g)
    best_nx = max(len(c) for c in nx.find_cliques(_nx(g)))
    assert len(ours) == best_nx
    assert g.is_clique(ours)


def _lex_least_max_clique(g: Graph) -> tuple[int, ...]:
    for size in range(g.n, 0, -1):
        for vs in itertools.combinations(range(g.n), size):
            if g.is_clique(vs):
                return vs
    return ()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)
def test_max_clique_is_the_lex_least_maximum(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    assert max_clique(g) == _lex_least_max_clique(g)


def _max_clique_reference(g: Graph) -> tuple[int, ...]:
    """The former max_clique: the candidates left are recoloured after every
    excluded vertex."""
    rows = [g.row(u) for u in range(g.n)]
    best: list[int] = []

    def color_bound(candidates: int) -> int:
        colors = 0
        remaining = candidates
        while remaining:
            colors += 1
            avail = remaining
            while avail:
                low = avail & -avail
                remaining ^= low
                avail &= ~rows[low.bit_length() - 1]
                avail ^= low
        return colors

    def dfs(clique: list[int], candidates: int) -> None:
        nonlocal best
        if len(clique) + color_bound(candidates) <= len(best):
            return
        for v in _bits(candidates):
            nxt = candidates & rows[v] & ~((1 << (v + 1)) - 1)
            clique.append(v)
            if len(clique) > len(best):
                best = clique.copy()
            if nxt:
                dfs(clique, nxt)
            clique.pop()
            candidates &= ~(1 << v)
            if len(clique) + color_bound(candidates) <= len(best):
                return

    if g.n:
        dfs([], (1 << g.n) - 1)
    return tuple(best) or (0,)[: g.n]


def _color_classes_reference(rows: list[int], candidates: int) -> tuple[dict[int, int], list[int]]:
    """Greedy proper coloring of the candidate subgraph, lowest vertex first:
    (class of each vertex, size of each class)."""
    color_of: dict[int, int] = {}
    sizes: list[int] = []
    remaining = candidates
    while remaining:
        color = len(sizes)
        size = 0
        avail = remaining
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            color_of[v] = color
            size += 1
            remaining ^= low
            avail &= ~rows[v]
            avail ^= low
        sizes.append(size)
    return color_of, sizes


def _clique_above_reference(
    rows: list[int], candidates: int, floor: int, first: bool
) -> tuple[list[int], int]:
    """The former _clique_above, which kept each vertex's colour class and the
    size of each class: (its clique, the nodes it expanded)."""
    best: list[int] = []
    bar = floor
    nodes = 0

    def dfs(clique: list[int], candidates: int) -> bool:
        nonlocal best, bar, nodes
        nodes += 1
        color_of, sizes = _color_classes_reference(rows, candidates)
        colors = len(sizes)
        if len(clique) + colors <= bar:
            return False
        for v in _bits(candidates):
            higher = ~((1 << (v + 1)) - 1)
            nxt = candidates & rows[v] & higher
            clique.append(v)
            if len(clique) > bar:
                best = clique.copy()
                bar = len(best)
                if first:
                    return True
            if nxt and dfs(clique, nxt):
                return True
            clique.pop()
            color = color_of[v]
            sizes[color] -= 1
            if not sizes[color]:
                colors -= 1
            if len(clique) + colors <= bar:
                return False
        return False

    dfs([], candidates)
    return best, nodes


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.2, 0.5, 0.8, 0.9, 0.97]),
    st.sampled_from(["random", "planted", "cliques"]),
    st.booleans(),
    st.one_of(st.sampled_from([0, 1, 3, 6, 10]), st.sampled_from(["ω-2", "ω-1", "ω", "ω+1"])),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_clique_search_expands_the_nodes_of_the_colour_map_search(
    n, p, kind, first, floor, all_candidates, seed
):
    rng = random.Random(seed)
    g = clique_rich_graph(kind, n, p, rng)
    rows = [g.row(u) for u in range(n)]
    candidates = (1 << n) - 1 if all_candidates else rng.getrandbits(n)
    if isinstance(floor, str):  # near the clique number of the candidates
        omega = len(_clique_above_reference(rows, candidates, 0, False)[0])
        floor = max(0, omega + int(floor[1:] or 0))
    nodes = 0

    def count_node(steps: int = 1) -> None:
        nonlocal nodes
        nodes += steps

    with mock.patch.object(oracles, "check_budget", count_node):
        clique = oracles._clique_above(rows, candidates, floor, first)
    assert (clique, nodes) == _clique_above_reference(rows, candidates, floor, first)


@pytest.mark.parametrize("n", [1200, 4096])
def test_clique_search_takes_a_complete_graph_whole(n):
    # a dive of one search node per vertex is cut short: one node takes them all
    g = Graph.complete(n)
    assert max_clique(g) == tuple(range(n))
    assert den_leq_k(g, n) == Fraction(n - 1, 2)


def test_clique_search_dives_deeper_than_the_recursion_limit():
    # the complement of a perfect matching: no candidate set is ever one
    # clique, so the search expands one node per vertex of its 300-clique
    g = Graph(600, [(u, v) for u, v in itertools.combinations(range(600), 2) if v != u ^ 1])
    with shallow_stack():
        assert max_clique(g) == tuple(range(0, 600, 2))


def test_max_clique_on_a_product_with_thousands_of_lifted_vertices():
    # ell = 1 lifts each member of the planted 40-clique to its copies
    source = sample_planted(60, Fraction(1, 2), 40, 1).graph
    product, _ = rgp(source, 4096, 1, 1)
    assert clique_number(product) == 2771


@pytest.mark.parametrize("N", [500, 2000])
@pytest.mark.parametrize("arm", ["null", "planted"])
def test_max_clique_matches_the_recolouring_search_on_products(arm, N):
    for index in range(2):
        if arm == "null":
            g = sample_er(60, Fraction(1, 2), 933, index)
        else:
            g = sample_planted(60, Fraction(1, 2), 20, 933, index).graph
        product, _ = rgp(g, N, 2, 933, index)
        assert max_clique(product) == _max_clique_reference(product)


def test_count_cliques_complete_graph():
    g = Graph.complete(7)
    for r in range(8):
        assert count_cliques(g, r) == math.comb(7, r)
    assert clique_list(g, 2) == g.edges()


def test_count_cliques_against_brute_force():
    rng = random.Random(3)
    for _ in range(15):
        g = random_graph(9, 0.5, rng)
        for r in (2, 3, 4):
            brute = sum(
                1 for vs in itertools.combinations(range(g.n), r) if g.is_clique(vs)
            )
            assert count_cliques(g, r) == brute


# -- densest k-subgraph / den ------------------------------------------------------


def test_densest_k_subgraph_known(c5, k4):
    vs, e = densest_k_subgraph(c5, 3)
    assert e == 2
    assert vs == (0, 1, 2)  # lex-least among the many 2-edge triples
    vs4, e4 = densest_k_subgraph(k4, 3)
    assert (vs4, e4) == ((0, 1, 2), 3)


def test_densest_k_subgraph_matches_brute_force():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(9, 0.4, rng)
        for k in (2, 4, 6):
            vs, e = densest_k_subgraph(g, k)
            best = max(
                len(g.induced(c).edges())
                for c in itertools.combinations(range(g.n), k)
            )
            assert e == best
            assert len(g.induced(vs).edges()) == e


def _den_brute(g: Graph, k: int) -> Fraction:
    best = Fraction(0)
    for size in range(1, min(k, g.n) + 1):
        for vs in itertools.combinations(range(g.n), size):
            e = len(g.induced(vs).edges())
            best = max(best, Fraction(e, size))
    return best


def test_den_leq_k_frozen_values(c5, k4, triangle):
    assert den_leq_k(c5, 5) == 1  # the whole cycle: 5 edges / 5 vertices
    assert den_leq_k(c5, 4) == Fraction(3, 4)  # best 4-path
    assert den_leq_k(k4, 4) == Fraction(3, 2)
    assert den_leq_k(triangle, 4) == 1
    assert den_leq_k(Graph.empty(5), 4) == 0
    assert den_leq_k(Graph(2, [(0, 1)]), 4) == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_den_leq4_closed_form_matches_brute(n, seed):
    g = random_graph(n, 0.45, random.Random(seed))
    for k in (1, 2, 3, 4):
        assert den_leq_k(g, k) == _den_brute(g, k)


def test_common_neighbour_product_is_exact_below_cap():
    assert VERTEX_CAP < 2**24, (
        "den_leq_k's float32 common-neighbour product is exact only for fewer than 2^24 vertices"
    )


def test_den_leq4_closed_form_matches_search_on_sparse_graphs():
    # Sparse graphs up to n = 80, where each k = 4 branch decides somewhere:
    # 3/2 K4, 5/4 diamond, 1 triangle or 4-cycle, 3/4 path or star.
    decided = set()
    for seed in range(40):
        rng = random.Random(seed)
        n, p = rng.randint(20, 80), rng.uniform(0.03, 0.2)
        g = random_graph(n, p, rng)
        for k in (3, 4):
            best = max(Fraction(densest_k_subgraph(g, s)[1], s) for s in range(1, k + 1))
            assert den_leq_k(g, k) == best, (seed, n, p, k)
        decided.add(best)
    assert {Fraction(3, 2), Fraction(5, 4), Fraction(1), Fraction(3, 4)} <= decided


def test_den_leq_k_general_matches_brute():
    rng = random.Random(21)
    for _ in range(10):
        g = random_graph(8, 0.5, rng)
        for k in (5, 6, 7):
            assert den_leq_k(g, k) == _den_brute(g, k)
    for _ in range(5):
        g = random_graph(10, 0.5, rng)
        assert den_leq_k(g, 8) == _den_brute(g, 8)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)
def test_den_leq_k_is_brute_force_and_tops_out_at_a_k_clique(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    most = [0] * (n + 1)  # most edges on any s-subset
    for size in range(1, n + 1):
        for vs in itertools.combinations(range(n), size):
            most[size] = max(most[size], g.induced(vs).m)
    omega = clique_number(g)
    for k in range(1, n + 1):
        value = den_leq_k(g, k)
        assert value == max(Fraction(most[s], s) for s in range(1, k + 1))
        assert (value == Fraction(k - 1, 2)) == (omega >= k)


# -- bicliques ---------------------------------------------------------------------


def test_is_biclique(c6):
    assert is_biclique(c6, [0], [1])
    assert not is_biclique(c6, [0], [2])
    assert not is_biclique(c6, [0, 2], [1, 5])  # 2-5 missing
    assert not is_biclique(c6, [0], [0])  # overlap
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_biclique(g, [0, 1], [2, 3])


def test_max_balanced_biclique_known(c6):
    a, b = max_balanced_biclique(c6)
    assert (len(a), len(b)) == (1, 1)  # chordless C6 has no K_{2,2}
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert max_balanced_biclique(g) == ((0, 1), (2, 3))


def test_max_balanced_biclique_trivial():
    # edgeless graph: no K_{1,1}, so both sides come back empty
    assert max_balanced_biclique(Graph.empty(4)) == ((), ())


def test_count_bicliques_k4_frozen():
    # ordered pairs (S, chosen ell-subset of common neighborhood)
    assert count_bicliques(Graph.complete(4), 2) == 6
    assert count_bicliques(Graph.cycle(8), 2) == 0
    assert count_bicliques(Graph.empty(5), 1) == 0


def test_count_bicliques_matches_direct_enumeration():
    rng = random.Random(17)
    for _ in range(10):
        g = random_graph(8, 0.5, rng)
        largest = 0
        for ell in (1, 2, 3, 4):
            direct = 0
            for side in itertools.combinations(range(g.n), ell):
                common = set(range(g.n))
                for u in side:
                    common &= set(g.neighbors(u))
                direct += math.comb(len(common - set(side)), ell)
            assert count_bicliques(g, ell) == direct
            assert contains_ktt(g, ell) == (direct > 0)
            if direct:
                largest = ell
        assert len(max_balanced_biclique(g)[0]) == largest


def test_contains_ktt(c6, k4):
    assert not contains_ktt(Graph.cycle(8), 2)
    assert contains_ktt(k4, 1)
    assert contains_ktt(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), 2)
    assert not contains_ktt(c6, 2)


# -- smallest k-edge subgraph --------------------------------------------------------


def test_skes_known(c5):
    assert smallest_k_edge_subgraph(c5, 3) == (0, 1, 2, 3)
    assert smallest_k_edge_subgraph(Graph.complete(5), 3) == (0, 1, 2)
    with pytest.raises(InfeasibleError):
        smallest_k_edge_subgraph(c5, 6)
    assert smallest_k_edge_subgraph(c5, 0) == ()


def test_skes_matches_brute_force():
    rng = random.Random(29)
    for _ in range(15):
        g = random_graph(8, 0.5, rng)
        for k in range(1, g.m + 1):
            # the lex-least set of the minimum size, as the docstring promises
            expected = next(
                vs
                for s in range(1, g.n + 1)
                for vs in itertools.combinations(range(g.n), s)
                if len(g.induced(vs).edges()) >= k
            )
            assert smallest_k_edge_subgraph(g, k) == expected


# -- steiner k-forest ---------------------------------------------------------------


def _star_instance(g: Graph) -> SteinerForestInstance:
    n = g.n
    edges = [(v, n) for v in range(n)]
    star = Graph(n + 1, edges)
    return SteinerForestInstance(
        graph=star,
        weights=tuple(Fraction(1) for _ in edges),
        demands=tuple(g.edges()),
        k=1,
    )


def test_steiner_star_triangle():
    inst = SteinerForestInstance(
        graph=Graph(4, [(0, 3), (1, 3), (2, 3)]),
        weights=(Fraction(1),) * 3,
        demands=((0, 1), (0, 2), (1, 2)),
        k=3,
    )
    edges, cost = steiner_k_forest(inst)
    assert cost == 3
    assert edges == ((0, 3), (1, 3), (2, 3))


def test_steiner_k_zero_and_infeasible():
    inst = SteinerForestInstance(
        graph=Graph(2, [(0, 1)]), weights=(Fraction(5),), demands=((0, 1),), k=0
    )
    assert steiner_k_forest(inst) == ((), Fraction(0))
    bad = SteinerForestInstance(
        graph=Graph(3, [(0, 1)]), weights=(Fraction(1),), demands=((0, 2),), k=1
    )
    with pytest.raises(InfeasibleError):
        steiner_k_forest(bad)


def test_steiner_prefers_cheap_then_small_then_lex():
    # two ways to satisfy the single demand: direct edge cost 2 or path cost 2
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = SteinerForestInstance(
        graph=g,
        weights=(Fraction(2), Fraction(1), Fraction(1)),
        demands=((0, 1),),
        k=1,
    )
    edges, cost = steiner_k_forest(inst)
    assert cost == 2
    assert edges == ((0, 1),)  # one edge beats two at equal cost


def test_satisfied_demands():
    edges = [(0, 1), (2, 3)]
    demands = ((0, 1), (1, 2), (2, 3))
    assert satisfied_demands(4, edges, demands) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_satisfied_demands_matches_networkx_components(n, m, d, seed):
    rng = random.Random(seed)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(m)] if n > 1 else []
    demands = [(rng.randrange(n), rng.randrange(n)) for _ in range(d)]
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    comp = {v: i for i, c in enumerate(nx.connected_components(h)) for v in c}
    assert satisfied_demands(n, edges, demands) == sum(comp[s] == comp[t] for s, t in demands)


def test_steiner_matches_brute_force_small():
    rng = random.Random(31)
    for _ in range(8):
        g = random_graph(6, 0.5, rng)
        if g.m == 0:
            continue
        weights = tuple(Fraction(rng.randrange(0, 4)) for _ in range(g.m))
        all_pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        demands = tuple(rng.sample(all_pairs, 3))
        for k in range(0, 4):
            inst = SteinerForestInstance(
                graph=g, weights=weights, demands=demands, k=k
            )
            try:
                _, cost = steiner_k_forest(inst)
            except InfeasibleError:
                cost = None
            best = None
            edge_list = g.edges()
            for r in range(g.m + 1):
                for chosen in itertools.combinations(range(g.m), r):
                    sel = [edge_list[i] for i in chosen]
                    if satisfied_demands(g.n, sel, demands) >= k:
                        c = sum((weights[i] for i in chosen), Fraction(0))
                        if best is None or c < best:
                            best = c
            assert cost == best


@pytest.mark.parametrize(
    "make",
    [
        lambda demands: SteinerForestInstance(
            Graph(3, [(0, 1)]), (Fraction(1),), demands, k=0
        ),
        lambda demands: DsnInstance(WeightedDigraph(3, [(0, 1, Fraction(1))]), demands),
    ],
    ids=["steiner", "dsn"],
)
def test_instances_check_and_normalize_demands(make):
    inst = make([[True, 2]])
    assert inst.demands == ((1, 2),) and type(inst.demands[0][0]) is int
    for bad in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match=rf"demand \({bad[0]}, {bad[1]}\) out of range"):
            make([bad])


# -- directed steiner network ---------------------------------------------------------


def test_dsn_simple_path():
    d = WeightedDigraph(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(3))])
    inst = DsnInstance(digraph=d, demands=((0, 2),))
    arcs, cost = directed_steiner_network(inst)
    assert cost == 2
    assert arcs == ((0, 1), (1, 2))


def test_dsn_zero_arcs_free():
    d = WeightedDigraph(3, [(0, 1, Fraction(0)), (1, 2, Fraction(0))])
    inst = DsnInstance(digraph=d, demands=((0, 2),))
    arcs, cost = directed_steiner_network(inst)
    assert cost == 0
    assert arcs == ((0, 1), (1, 2))


def test_dsn_self_demand_costs_nothing():
    d = WeightedDigraph(2, [(0, 1, Fraction(7))])
    inst = DsnInstance(digraph=d, demands=((0, 0), (1, 1)))
    arcs, cost = directed_steiner_network(inst)
    assert cost == 0
    assert arcs == ()


def test_dsn_infeasible():
    d = WeightedDigraph(2, [(0, 1, Fraction(1))])
    with pytest.raises(InfeasibleError):
        directed_steiner_network(DsnInstance(digraph=d, demands=((1, 0),)))


def test_dsn_matches_brute_force_small():
    rng = random.Random(37)
    for _ in range(8):
        n = 5
        arcs = [
            (u, v, Fraction(rng.randrange(0, 3)))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        if not arcs:
            continue
        d = WeightedDigraph(n, arcs)
        demands = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(2)
        )
        inst = DsnInstance(digraph=d, demands=demands)
        try:
            _, cost = directed_steiner_network(inst)
        except InfeasibleError:
            cost = None

        def reach_ok(sel: list[tuple[int, int, Fraction]]) -> bool:
            adj = {u: [] for u in range(n)}
            for u, v, _ in sel:
                adj[u].append(v)
            for s, t in demands:
                seen = {s}
                stack = [s]
                while stack:
                    x = stack.pop()
                    if x == t:
                        break
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if t not in seen:
                    return False
            return True

        best = None
        for r in range(len(arcs) + 1):
            for chosen in itertools.combinations(arcs, r):
                if reach_ok(list(chosen)):
                    c = sum((w for _, _, w in chosen), Fraction(0))
                    if best is None or c < best:
                        best = c
        assert cost == best


def _tie_rule_optimum(items, weights, covers):
    """Brute force: the covering subset of items with the least (cost, size,
    sorted item tuple), or None."""
    best = None
    for r in range(len(items) + 1):
        for chosen in itertools.combinations(range(len(items)), r):
            if covers([items[i] for i in chosen]):
                key = (sum((weights[i] for i in chosen), Fraction(0)), r,
                       tuple(items[i] for i in chosen))
                best = key if best is None else min(best, key)
    return best


def test_steiner_and_dsn_solutions_follow_the_full_tie_rule():
    # weights in {0, 1, 2} make cost and size ties common
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(5, 0.6, rng)
        weights = tuple(Fraction(rng.randrange(0, 3)) for _ in range(g.m))
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        demands = tuple(rng.sample(pairs, 3))
        k = rng.randrange(1, 4)
        want = _tie_rule_optimum(
            g.edges(), weights, lambda sel: satisfied_demands(5, sel, demands) >= k
        )
        inst = SteinerForestInstance(graph=g, weights=weights, demands=demands, k=k)
        if want is None:
            with pytest.raises(InfeasibleError):
                steiner_k_forest(inst)
        else:
            assert steiner_k_forest(inst) == (want[2], want[0])
    for _ in range(40):
        arcs = [
            (u, v, Fraction(rng.randrange(0, 3)))
            for u in range(5)
            for v in range(5)
            if u != v and rng.random() < 0.45
        ]
        d = WeightedDigraph(5, arcs)
        demands = tuple((rng.randrange(5), rng.randrange(5)) for _ in range(2))
        free = [(u, v) for u, v, w in arcs if w == 0]
        paid = sorted((u, v) for u, v, w in arcs if w > 0)

        def reaches(sel: list[tuple[int, int]]) -> bool:
            h = nx.DiGraph(free + sel)
            h.add_nodes_from(range(5))
            return all(nx.has_path(h, s, t) for s, t in demands)

        want = _tie_rule_optimum(paid, [d.weight(u, v) for u, v in paid], reaches)
        inst = DsnInstance(digraph=d, demands=demands)
        if want is None:
            with pytest.raises(InfeasibleError):
                directed_steiner_network(inst)
            continue
        solution, cost = directed_steiner_network(inst)
        assert cost == want[0]
        # the paid arcs are the chosen ones; the free arcs are witness paths
        assert tuple(a for a in solution if d.weight(*a) > 0) == want[2]


# -- hypergraph / pattern --------------------------------------------------------------


def test_densest_k_subhypergraph_known():
    h = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    vs, cnt = densest_k_subhypergraph(h, 4)
    assert cnt == 2
    assert vs == (0, 1, 2, 3)
    vs1, cnt1 = densest_k_subhypergraph(h, 3)
    assert cnt1 == 1
    assert vs1 == (0, 1, 2)  # lex-least witness among the three


def test_densest_k_subhypergraph_ignores_oversized_edges():
    h = Hypergraph(5, [(0, 1, 2, 3, 4), (0, 1)])
    vs, cnt = densest_k_subhypergraph(h, 2)
    assert (vs, cnt) == ((0, 1), 1)


def test_detect_pattern_basics(triangle, c5):
    path3 = Graph.path(3)
    assert detect_pattern(triangle, path3, induced=False) is not None
    assert detect_pattern(triangle, path3, induced=True) is None
    got = detect_pattern(c5, path3, induced=True)
    assert got is not None
    a, b, c = got
    assert c5.has_edge(a, b) and c5.has_edge(b, c) and not c5.has_edge(a, c)


def test_detect_pattern_against_networkx_vf2():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(8, 0.5, rng)
        h = random_graph(4, 0.5, rng)
        for induced in (False, True):
            ours = detect_pattern(g, h, induced=induced)
            gm = (
                nx.algorithms.isomorphism.GraphMatcher(_nx(g), _nx(h))
            )
            if induced:
                nx_found = gm.subgraph_is_isomorphic()
            else:
                nx_found = gm.subgraph_is_monomorphic()
            assert (ours is not None) == nx_found
            if ours is not None:
                for u, v in h.edges():
                    assert g.has_edge(ours[u], ours[v])
                if induced:
                    for u in range(h.n):
                        for v in range(u + 1, h.n):
                            assert g.has_edge(ours[u], ours[v]) == h.has_edge(u, v)


def test_detect_pattern_budget():
    # independent 13-set in G(50, 1/2) sits just above the likely maximum,
    # which forces a full backtracking sweep (about a minute when unbudgeted)
    rng = random.Random(1)
    g = Graph(
        50,
        [(u, v) for u in range(50) for v in range(u + 1, 50) if rng.random() < 0.5],
    )
    h = Graph.empty(13)
    with budget(50, "pattern test"), pytest.raises(
        PatternSearchTimeout, match="pattern test exceeded the 50 ms budget.*NOT established"
    ):
        detect_pattern(g, h, induced=True)


def test_detect_pattern_times_out_under_enclosing_budget():
    g = random_graph(50, 0.5, random.Random(1))
    h = Graph.empty(13)
    with budget(50, "outer"), pytest.raises(PatternSearchTimeout):
        detect_pattern(g, h, induced=True)
    # a nested budget scope can tighten the deadline in force, never extend it
    with budget(50, "outer"), budget(60_000, "inner"), pytest.raises(
        PatternSearchTimeout, match="outer exceeded the 50 ms budget"
    ):
        detect_pattern(g, h, induced=True)
    with budget(60_000, "outer"), budget(50, "inner"), pytest.raises(
        PatternSearchTimeout, match="inner exceeded the 50 ms budget"
    ):
        detect_pattern(g, h, induced=True)


def _detect_pattern_reference(
    g: Graph, h: Graph, induced: bool
) -> tuple[tuple[int, ...] | None, int]:
    """The former detect_pattern search, which scans its partial assignment
    for every candidate; returns its mapping and the nodes it expanded."""
    if h.n > g.n:
        return None, 0
    if h.n == 0:
        return (), 0
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    assign: dict[int, int] = {}
    used: set[int] = set()
    nodes = 0

    def ok(hv: int, gv: int) -> bool:
        if g.degree(gv) < h.degree(hv):
            return False
        for hu, gu in assign.items():
            he = h.has_edge(hv, hu)
            ge = g.has_edge(gv, gu)
            if he and not ge:
                return False
            if induced and not he and ge:
                return False
        return True

    def dfs(depth: int) -> bool:
        nonlocal nodes
        nodes += 1
        if depth == h.n:
            return True
        hv = order[depth]
        for gv in range(g.n):
            if gv in used or not ok(hv, gv):
                continue
            assign[hv] = gv
            used.add(gv)
            if dfs(depth + 1):
                return True
            del assign[hv]
            used.remove(gv)
        return False

    found = dfs(0)
    return (tuple(assign[v] for v in range(h.n)) if found else None), nodes


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_detect_pattern_expands_the_nodes_of_the_assignment_scan(n, k, p, induced, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    h = random_graph(k, p, rng)
    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1

    with mock.patch.object(oracles, "check_budget", count_node):
        mapping = detect_pattern(g, h, induced)
    assert (mapping, nodes) == _detect_pattern_reference(g, h, induced)


def test_detect_pattern_expands_a_pinned_node_count_when_absent(monkeypatch):
    # an induced 7-vertex pattern with non-edges that G(16, 1/2) does not
    # hold: absence is established over the whole search tree
    g = sample_er(16, Fraction(1, 2), 29)
    h = sample_pattern(7, 29)
    monkeypatch.setenv("CLIQUELAB_CAP", "1041")
    assert detect_pattern(g, h, induced=True) is None
    monkeypatch.setenv("CLIQUELAB_CAP", "1040")
    with pytest.raises(CapExceeded, match="pattern search passed the cap of 1040"):
        detect_pattern(g, h, induced=True)


def test_detect_pattern_expands_a_pinned_node_count_when_found(monkeypatch):
    g = sample_er(20, Fraction(1, 2), 1)
    monkeypatch.setenv("CLIQUELAB_CAP", "1224")
    assert detect_pattern(g, Graph.complete(6), induced=False) == (5, 6, 7, 10, 13, 16)
    monkeypatch.setenv("CLIQUELAB_CAP", "1223")
    with pytest.raises(CapExceeded, match="pattern search passed the cap of 1223"):
        detect_pattern(g, Graph.complete(6), induced=False)


def test_enum_cap_respected(monkeypatch):
    # the cap counts nodes expanded, not C(n, k): on K10 the bound prunes every
    # branch after the first path (6 nodes); on the empty graph it expands 211
    monkeypatch.setenv("CLIQUELAB_CAP", "10")
    assert densest_k_subgraph(Graph.complete(10), 5) == ((0, 1, 2, 3, 4), 10)
    with pytest.raises(CapExceeded, match="k-subset search passed the cap of 10"):
        densest_k_subgraph(Graph.empty(10), 5)
    monkeypatch.setenv("CLIQUELAB_CAP", "1000000")
    assert densest_k_subgraph(Graph.empty(10), 5) == ((0, 1, 2, 3, 4), 0)


def test_skes_prunes_after_excluding_a_vertex(monkeypatch):
    # the DkS re-bound after excluding v: 105 nodes here, 245 without it
    monkeypatch.setenv("CLIQUELAB_CAP", "150")
    g = sample_er(16, 0.3, seed=4)
    assert smallest_k_edge_subgraph(g, 12) == (0, 1, 2, 5, 6, 9, 11)


def test_steiner_search_expands_a_pinned_node_count(monkeypatch):
    inst, _ = skes_to_steiner_forest(sample_er(7, Fraction(1, 2), 1), 4)
    monkeypatch.setenv("CLIQUELAB_CAP", "89")
    assert steiner_k_forest(inst) == (((0, 7), (1, 7), (2, 7), (3, 7)), 4)
    monkeypatch.setenv("CLIQUELAB_CAP", "88")
    with pytest.raises(CapExceeded, match="edge subset search passed the cap of 88"):
        steiner_k_forest(inst)


def test_dsn_search_expands_a_pinned_node_count(monkeypatch):
    inst, _ = skes_to_dsn(Graph.complete(5), 2, seed=1, rainbow=[0, 1])
    monkeypatch.setenv("CLIQUELAB_CAP", "379")
    assert directed_steiner_network(inst)[1] == 4
    monkeypatch.setenv("CLIQUELAB_CAP", "378")
    with pytest.raises(CapExceeded, match="arc subset search passed the cap of 378"):
        directed_steiner_network(inst)


def test_den_leq_k_searches_only_for_denser_sets(monkeypatch):
    # omega = 4 < k = 5, so the floor sweep runs: each size s looks only for
    # more than floor(value * s) edges, 417 nodes over both searches here,
    # 483 when every size searched for its own maximum
    g = sample_er(30, Fraction(1, 4), 711)
    assert clique_number(g) == 4
    monkeypatch.setenv("CLIQUELAB_CAP", "417")
    assert den_leq_k(g, 5) == Fraction(8, 5)
    monkeypatch.setenv("CLIQUELAB_CAP", "416")
    with pytest.raises(CapExceeded, match="density search passed the cap of 416"):
        den_leq_k(g, 5)


def test_den_leq_k_sweeps_floors_without_a_k_clique(monkeypatch):
    # omega = 5 < k = 6: the clique check finds nothing and the floor sweep
    # finds a 6-set with 13 edges; 537 nodes over both searches
    g = sample_er(30, Fraction(1, 4), 1)
    assert clique_number(g) == 5
    monkeypatch.setenv("CLIQUELAB_CAP", "537")
    assert den_leq_k(g, 6) == Fraction(13, 6)
    monkeypatch.setenv("CLIQUELAB_CAP", "536")
    with pytest.raises(CapExceeded, match="density search passed the cap of 536"):
        den_leq_k(g, 6)


def test_den_leq_k_stops_at_a_first_k_clique(monkeypatch):
    # a planted criterion-4-shape product: the clique search walks straight
    # down to a 16-clique, one node per vertex
    source = sample_planted(60, Fraction(1, 2), 20, 42, 0).graph
    product, _ = rgp(source, 500, 2, 42, 0)
    monkeypatch.setenv("CLIQUELAB_CAP", "16")
    assert den_leq_k(product, 16) == Fraction(15, 2)
    monkeypatch.setenv("CLIQUELAB_CAP", "15")
    with pytest.raises(CapExceeded, match="density search passed the cap of 15"):
        den_leq_k(product, 16)


def test_max_clique_expands_a_pinned_node_count(monkeypatch):
    # a clique-gap null product (seed 1111, index 0, N = 2000)
    product, _ = rgp(sample_er(60, Fraction(1, 2), 1111, 0), 2000, 2, 1111, 0)
    monkeypatch.setenv("CLIQUELAB_CAP", "1156")
    assert max_clique(product) == (
        8, 33, 51, 216, 272, 415, 431, 484, 554, 572, 596, 680, 721, 727, 759, 784, 850,
        853, 931, 985, 1146, 1148, 1153, 1161, 1233, 1258, 1343, 1455, 1472, 1566, 1623,
        1638, 1654, 1742, 1887, 1929, 1943, 1960,
    )
    monkeypatch.setenv("CLIQUELAB_CAP", "1155")
    with pytest.raises(CapExceeded, match="clique search passed the cap of 1155"):
        max_clique(product)


def test_max_clique_expands_a_pinned_node_count_on_a_planted_product(monkeypatch):
    # the clique-gap planted arm (seed 1111, index 0, N = 2000): its maximum
    # clique is the lift of the planted 20-clique, 234 vertices, and the
    # exclusion bound at the root prunes the search after it
    source = sample_planted(60, Fraction(1, 2), 20, 1111, 0)
    product, fam = rgp(source.graph, 2000, 2, 1111, 0)
    lifted = tuple(i for i, s in enumerate(fam.sets) if set(s) <= set(source.clique))
    assert len(lifted) == 234
    monkeypatch.setenv("CLIQUELAB_CAP", "332")
    assert max_clique(product) == lifted
    monkeypatch.setenv("CLIQUELAB_CAP", "331")
    with pytest.raises(CapExceeded, match="clique search passed the cap of 331"):
        max_clique(product)


def test_nested_searches_share_the_outer_count(monkeypatch):
    monkeypatch.setenv("CLIQUELAB_CAP", "10")
    g = Graph.complete(10)
    with budget(None, "outer"):
        densest_k_subgraph(g, 5)
        with pytest.raises(CapExceeded):
            densest_k_subgraph(g, 5)


def test_max_clique_small_cap_refused(monkeypatch):
    monkeypatch.setenv("CLIQUELAB_CAP", "5")
    g = random_graph(30, 0.5, random.Random(1))
    with pytest.raises(CapExceeded, match="clique search"):
        max_clique(g)


def test_detect_pattern_small_cap_refused(monkeypatch):
    # a cap overrun is a refusal, not a timeout: CapExceeded, not
    # PatternSearchTimeout
    monkeypatch.setenv("CLIQUELAB_CAP", "20")
    g = random_graph(50, 0.5, random.Random(1))
    with pytest.raises(CapExceeded, match="pattern search"):
        detect_pattern(g, Graph.empty(6), induced=True)


def _search_cases():
    g = sample_er(12, Fraction(1, 2), 5)
    steiner, _ = skes_to_steiner_forest(sample_er(7, Fraction(1, 2), 1), 4)
    dsn, _ = skes_to_dsn(Graph.complete(5), 2, seed=1, rainbow=[0, 1])
    h = Hypergraph(6, [(0, 1, 2), (1, 2, 3), (2, 4), (3, 4, 5)])
    return {
        "max_clique": lambda: max_clique(g),
        "count_cliques": lambda: count_cliques(g, 3),
        "clique_list": lambda: clique_list(g, 3),
        "densest_k_subgraph": lambda: densest_k_subgraph(g, 4),
        "den_leq_k": lambda: den_leq_k(g, 3),
        # omega = 4 < k = 5, so _most_edges runs after the clique search
        "den_leq_k_without_a_k_clique": lambda: den_leq_k(
            sample_er(30, Fraction(1, 4), 711), 5
        ),
        "smallest_k_edge_subgraph": lambda: smallest_k_edge_subgraph(g, 6),
        "max_balanced_biclique": lambda: max_balanced_biclique(g),
        "count_bicliques": lambda: count_bicliques(g, 2),
        "contains_ktt": lambda: contains_ktt(g, 2),
        "steiner_k_forest": lambda: steiner_k_forest(steiner),
        "directed_steiner_network": lambda: directed_steiner_network(dsn),
        "densest_k_subhypergraph": lambda: densest_k_subhypergraph(h, 4),
        "detect_pattern": lambda: detect_pattern(g, Graph.cycle(4), induced=True),
        "check_disperser": lambda: check_disperser(
            sample_family(10, 12, 2, 3), Fraction(1, 2), 4
        ),
    }


@pytest.mark.parametrize("name", list(_search_cases()))
def test_searches_leave_no_reference_cycle(name):
    # a reference cycle left behind, such as a search node that named
    # itself, would hold the search's state until a later gc pass
    search = _search_cases()[name]
    gc.disable()
    try:
        gc.collect()
        search()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _capped_search_cases():
    g = Graph.complete(12)
    steiner, _ = skes_to_steiner_forest(sample_er(7, Fraction(1, 2), 1), 4)
    h = Hypergraph(10, [(0, 1, 2), (1, 2, 3), (2, 4), (3, 4, 5)])
    return {
        "densest_k_subgraph": lambda: densest_k_subgraph(Graph.empty(10), 5),
        "max_clique": lambda: max_clique(g),
        "count_cliques": lambda: count_cliques(g, 6),
        "steiner_k_forest": lambda: steiner_k_forest(steiner),
        "densest_k_subhypergraph": lambda: densest_k_subhypergraph(h, 5),
        "check_disperser": lambda: check_disperser(
            sample_family(10, 12, 2, 3), Fraction(1, 2), 4
        ),
    }


@pytest.mark.parametrize("name", list(_capped_search_cases()))
def test_a_capped_search_leaves_no_reference_cycle(monkeypatch, name):
    # the cap stops each search with nodes suspended on the driver's stack,
    # which must still all be freed on the way out
    search = _capped_search_cases()[name]
    monkeypatch.setenv("CLIQUELAB_CAP", "10" if name != "check_disperser" else "70")
    gc.disable()
    try:
        gc.collect()
        with pytest.raises(CapExceeded):
            search()
        assert gc.collect() == 0
    finally:
        gc.enable()
