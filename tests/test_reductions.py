from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from _util import random_graph
from cliquelab.graph import Graph
from cliquelab.oracles import (
    count_cliques,
    densest_k_subgraph,
    detect_pattern,
    directed_steiner_network,
    is_biclique,
    steiner_k_forest,
)
from cliquelab.reductions import (
    ReductionCertificate,
    biclique_to_dksh,
    dks_from_biclique,
    dks_to_induced_pattern,
    dks_via_skes,
    dsn_cross_edge_property,
    ell_for_ratio,
    extract_dksh_solution,
    extract_dsn_solution,
    extract_skes_from_forest,
    lemma44_bound,
    skes_to_dsn,
    skes_to_steiner_forest,
)


def test_certificate_json_round_trip():
    cert = ReductionCertificate(name="x", seed=4, data={"a": [1, 2]})
    assert ReductionCertificate.from_json_dict(cert.to_json_dict()) == cert


# -- biclique padding / averaging ---------------------------------------------------


def test_dks_from_biclique_pads_with_low_ids():
    g = Graph(6, [(0, 3), (0, 4), (1, 3), (1, 4)])
    got = dks_from_biclique(g, 5, ((0, 1), (3, 4)))
    assert got == (0, 1, 2, 3, 4)  # pad with 2, the lowest unused id
    sub = g.induced(got)
    assert len(sub.edges()) >= 4  # t^2 with t = 2


def test_dks_from_biclique_validation():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        dks_from_biclique(g, 4, ((), ()))
    with pytest.raises(ValueError):
        dks_from_biclique(g, 4, ((0, 1), (2,)))
    with pytest.raises(ValueError):
        dks_from_biclique(g, 3, ((0, 1), (2, 3)))  # k < 2t
    with pytest.raises(ValueError):
        dks_from_biclique(g, 4, ((0, 2), (1, 3)))  # not a biclique


def test_dks_via_skes_matches_exhaustive():
    rng = random.Random(2)
    for _ in range(15):
        g = random_graph(8, 0.5, rng)
        s = tuple(sorted(rng.sample(range(8), 6)))
        k = 4
        got = dks_via_skes(g, k, s)
        assert set(got) <= set(s)
        e_got = len(g.induced(got).edges())
        best = max(
            len(g.induced(c).edges())
            for c in itertools.combinations(s, k)
        )
        assert e_got == best
        e_s = len(g.induced(s).edges())
        assert e_got >= math.ceil(Fraction(k * (k - 1), len(s) * (len(s) - 1)) * e_s)


# -- star reduction ------------------------------------------------------------------


def test_star_reduction_matches_skes_optimum(c5):
    inst, cert = skes_to_steiner_forest(c5, 3)
    assert inst.graph.n == 6
    assert inst.k == 3
    assert inst.demands == tuple(c5.edges())
    assert all(w == 1 for w in inst.weights)
    edges, cost = steiner_k_forest(inst)
    # SkES optimum for 3 edges of C5 is 4 vertices
    assert cost == 4
    got = extract_skes_from_forest(cert, edges)
    assert got == (0, 1, 2, 3)
    assert cert.data["center"] == 5


def test_extract_rejects_foreign_edges(c5):
    _, cert = skes_to_steiner_forest(c5, 2)
    with pytest.raises(ValueError):
        extract_skes_from_forest(cert, ((0, 1),))  # not a star edge


# -- dsn gadget ----------------------------------------------------------------------


def test_dsn_gadget_rainbow_triangle():
    g = Graph.complete(3)
    k = 3
    inst, cert = skes_to_dsn(g, k, seed=0, rainbow=(0, 1, 2))
    assert cert.data["mode"] == "rainbow"
    arcs, cost = directed_steiner_network(inst)
    assert cost <= 2 * k
    sol = extract_dsn_solution(cert, arcs)
    assert sol == (0, 1, 2)
    assert dsn_cross_edge_property(g, cert, arcs)


def test_dsn_gadget_layout():
    g = Graph(2, [(0, 1)])
    inst, cert = skes_to_dsn(g, 2, seed=5, rainbow=(0, 1))
    n, k = 2, 2
    digraph = inst.digraph
    # zero arcs: v1 -> u2 iff edge or same vertex
    assert digraph.weight(0, n + 1) == 0  # 0 -> 1' via edge
    assert digraph.weight(0, n + 0) == 0  # self copy
    # source and sink terminal arcs cost 1
    s0, t0 = 2 * n + 0, 2 * n + k + 0
    assert digraph.weight(s0, 0) == 1
    assert digraph.weight(n + 0, t0) == 1
    # demands: all ordered part pairs
    assert len(inst.demands) == k * k


def test_dsn_gadget_random_partition_deterministic():
    g = Graph.cycle(6)
    a, ca = skes_to_dsn(g, 3, seed=9)
    b, cb = skes_to_dsn(g, 3, seed=9)
    assert a == b
    assert ca.data["partition"] == cb.data["partition"]
    c, cc = skes_to_dsn(g, 3, seed=10)
    assert ca.data["partition"] != cc.data["partition"] or a != c


def test_dsn_cross_edge_property_detects_missing_pair():
    g = Graph(3, [(0, 1)])  # no edge 0-2 or 1-2
    inst, cert = skes_to_dsn(g, 3, seed=0, rainbow=(0, 1, 2))
    all_arcs = [(u, v) for u, v, _ in inst.digraph.arcs()]
    # even buying every gadget arc cannot span parts 0 and 2
    assert not dsn_cross_edge_property(g, cert, all_arcs)


# -- hypergraph reduction --------------------------------------------------------------


def test_ell_for_ratio_minimality():
    for rho in (2, 6, 40):
        for g_val in (Fraction(1), Fraction(3, 2), Fraction(9)):
            c = ell_for_ratio(rho, g_val)
            assert c >= 1
            assert c**10 * g_val.numerator >= rho**10 * g_val.denominator
            if c > 1:
                assert (c - 1) ** 10 * g_val.numerator < rho**10 * g_val.denominator


def test_biclique_to_dksh_on_clique():
    g = Graph.complete(6)
    hyper, rho, ell, cert = biclique_to_dksh(g, k=2, ell=1)
    assert rho == 4
    assert ell == 1
    # 2-cliques of K6 are its edges
    assert hyper.edges == tuple(tuple(e) for e in g.edges())
    assert cert.data["threshold"] == 0  # k // 8


def test_dksh_hyperedges_inside_match_clique_count():
    rng = random.Random(13)
    for _ in range(10):
        g = random_graph(8, 0.6, rng)
        hyper, rho, ell, _ = biclique_to_dksh(g, k=3, ell=1)
        s = tuple(sorted(rng.sample(range(8), 5)))
        inside = len(hyper.edges_inside(s))
        assert inside == count_cliques(g.induced(s), 2 * ell)


def test_extract_dksh_solution_reaches_threshold():
    g = Graph.complete(16)
    k = 8
    hyper, rho, ell, cert = biclique_to_dksh(g, k=k, ell=2)
    vs = tuple(range(rho))  # any rho vertices of the clique work
    a, b, reached = extract_dksh_solution(g, cert, vs)
    assert reached
    assert len(a) == len(b) >= k // 8
    assert is_biclique(g, a, b)


# -- coloring reduction -----------------------------------------------------------------


def test_coloring_reduction_edges_subset_and_projection():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(10, 0.5, rng)
        h = random_graph(4, 0.7, rng)  # dense enough to avoid complementing
        if Fraction(h.m, 4) < Fraction(4, 4):
            continue
        colored, cert = dks_to_induced_pattern(g, h, seed=rng.randrange(10**6))
        assert not cert.data["complemented"]
        assert set(colored.edges()) <= set(g.edges())
        coloring = cert.data["coloring"]
        for u, v in colored.edges():
            cu, cv = coloring[u], coloring[v]
            assert cu != cv
            assert h.has_edge(cu, cv)


def test_coloring_reduction_complements_sparse_pattern():
    g = Graph.cycle(8)
    h = Graph.path(4)  # 3 edges < k/4 * k = 4 -> complemented
    colored, cert = dks_to_induced_pattern(g, h, seed=3)
    assert cert.data["complemented"]
    # with complementing, surviving edges come from the complement of g
    assert set(colored.edges()) <= set(g.complement().edges())


def test_coloring_reduction_rainbow_forces_injective_colors():
    g = Graph.complete(4)
    h = Graph.complete(4)  # dense, no complementing
    colored, cert = dks_to_induced_pattern(g, h, seed=7, rainbow=(0, 1, 2, 3))
    coloring = cert.data["coloring"]
    assert sorted(coloring[v] for v in (0, 1, 2, 3)) == [0, 1, 2, 3]
    # a rainbow copy of h survives the filter as an induced pattern
    mapping = detect_pattern(colored, h, induced=True)
    assert mapping is not None


def test_rainbow_validation():
    g = Graph.complete(4)
    h = Graph.complete(3)
    with pytest.raises(ValueError):
        dks_to_induced_pattern(g, h, seed=0, rainbow=(0, 1))  # wrong length
    with pytest.raises(ValueError):
        dks_to_induced_pattern(g, h, seed=0, rainbow=(0, 0, 1))  # repeats


# -- counting bound ---------------------------------------------------------------------


def test_lemma44_bound_value_and_domain():
    b = lemma44_bound(32, 2, 1)
    # 2 * exp(-1/32) * C(32,1) * C(31,1), with the exponential rounded up
    assert float(b) == pytest.approx(2 * math.exp(-1 / 32) * 32 * 31, rel=1e-9)
    assert b >= 2 * Fraction(
        math.floor(math.exp(-1 / 32) * 10**12), 10**12
    ) * 32 * 31
    with pytest.raises(ValueError):
        lemma44_bound(32, 2, 2)  # ell must stay below t
    with pytest.raises(ValueError):
        lemma44_bound(32, 3, 1)  # t above kappa/16
    with pytest.raises(ValueError):
        lemma44_bound(0, 1, 1)


def test_lemma44_bound_grows_with_kappa():
    assert lemma44_bound(64, 2, 1) > lemma44_bound(48, 2, 1) > lemma44_bound(32, 2, 1)
