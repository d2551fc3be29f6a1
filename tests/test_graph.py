from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cliquelab.errors import CapExceeded
from cliquelab.graph import (
    Graph,
    Hypergraph,
    WeightedDigraph,
    peel_to_min_degree,
)

from _util import random_graph


def test_graph_basic_accessors(c5):
    assert c5.n == 5
    assert c5.m == 5
    assert c5.has_edge(0, 1) and c5.has_edge(1, 0)
    assert not c5.has_edge(0, 2)
    assert c5.degree(3) == 2
    assert c5.neighbors(0) == [1, 4]
    assert c5.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


@given(st.integers(0, 12), st.floats(0, 1), st.integers(0, 10**6))
def test_rows_are_every_vertex_row(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    for h in (g, g.complement(), Graph.from_bool_matrix(g.to_bool_matrix())):
        assert h.rows == tuple(h.row(u) for u in range(h.n))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_dedups_and_normalizes_direction():
    g = Graph(3, [(1, 0), (0, 1)])
    assert g.m == 1
    assert g.edges() == [(0, 1)]


def test_vertex_cap_enforced():
    with pytest.raises(CapExceeded):
        Graph(5000, [])


def test_complete_empty_cycle_path():
    assert Graph.complete(4).m == 6
    assert Graph.empty(4).m == 0
    assert Graph.cycle(4).m == 4
    assert Graph.path(4).m == 3
    with pytest.raises(ValueError):
        Graph.cycle(2)


def test_bool_matrix_round_trip(c6):
    adj = c6.to_bool_matrix()
    assert adj.dtype == np.bool_
    assert Graph.from_bool_matrix(adj) == c6


def test_density_and_clique(k4, c5):
    assert k4.density() == Fraction(6, 4)
    assert c5.density() == Fraction(1)
    assert k4.is_clique([0, 1, 2, 3])
    assert not c5.is_clique([0, 1, 2])
    assert c5.is_clique([1, 2])
    assert c5.is_clique([3])
    assert c5.is_clique([])


def test_induced_subgraph(c5):
    sub = c5.induced([0, 1, 2])
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2)]
    # order of ids does not matter, sorted relabeling is used
    assert c5.induced([2, 0, 1]) == sub


def test_complement_involution(c5):
    assert c5.complement().complement() == c5
    assert Graph.complete(4).complement() == Graph.empty(4)


def test_peel_drops_pendant_below_density():
    # K4 plus a pendant: density 7/5 exceeds the pendant's degree 1
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert peel_to_min_degree(g) == (0, 1, 2, 3)


def test_peel_keeps_pendant_at_exact_density():
    # triangle plus pendant has density exactly 1; degree-1 vertex 3 is not
    # strictly below it, so nothing peels
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert peel_to_min_degree(g) == (0, 1, 2, 3)


def test_peel_keeps_whole_graph_when_regular(c6):
    assert peel_to_min_degree(c6) == tuple(range(6))


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_peel_subgraph_min_degree_at_least_density(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.4, rng)
    if g.m == 0:
        with pytest.raises(ValueError):
            peel_to_min_degree(g)
        return
    kept = peel_to_min_degree(g)
    sub = g.induced(kept)
    assert sub.min_degree() >= g.density()


def test_weighted_digraph_accessors():
    d = WeightedDigraph(3, [(0, 1, Fraction(1, 2)), (1, 2, 3)])
    assert d.arc_count == 2
    assert d.weight(1, 2) == Fraction(3)
    assert d.arcs() == [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3))]


def test_weighted_digraph_rejections():
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, -1)])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1), (0, 1, 2)])


def test_hypergraph_normalization_and_inside():
    h = Hypergraph(5, [(3, 1, 2), (0, 4)])
    assert h.m == 2
    assert h.edges == ((0, 4), (1, 2, 3))
    assert h.edges_inside([1, 2, 3]) == [(1, 2, 3)]
    assert h.edges_inside([0, 1, 4]) == [(0, 4)]
    assert Hypergraph(3, [(0, 0, 1)]).edges == ((0, 1),)  # vertex dedup
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
