from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _util import random_graph
from cliquelab.caps import VERTEX_CAP
from cliquelab.errors import CapExceeded
from cliquelab.graph import Graph
from cliquelab.rgp import (
    SIDE_CONDITION_NAMES,
    RgpParams,
    SubsetFamily,
    check_disperser,
    check_edge_rule,
    check_side_conditions_exact,
    implied_edges,
    paper_params,
    product_edge,
    product_graph,
    rgp,
    sample_family,
)


def test_family_shape_and_determinism():
    fam = sample_family(10, 25, 3, 4)
    assert fam.N == 25
    assert fam.source_n == 10
    assert fam.ell == 3
    for s in fam.sets:
        assert 1 <= len(s) <= 3
        assert s == tuple(sorted(set(s)))
        assert all(0 <= v < 10 for v in s)
    assert fam == sample_family(10, 25, 3, 4)
    assert fam != sample_family(10, 25, 3, 5)


def test_family_validation():
    with pytest.raises(ValueError):
        SubsetFamily(source_n=5, ell=2, sets=((1, 0),))  # unsorted
    with pytest.raises(ValueError):
        SubsetFamily(source_n=5, ell=2, sets=((0, 0),))  # duplicate
    with pytest.raises(ValueError):
        SubsetFamily(source_n=5, ell=2, sets=((0, 1, 2),))  # too large
    with pytest.raises(ValueError):
        SubsetFamily(source_n=5, ell=2, sets=((5,),))  # out of range


def test_product_edge_definition_by_hand(triangle):
    fam = SubsetFamily(source_n=3, ell=2, sets=((0, 1), (2,), (0,), (0, 2)))
    # all unions inside the triangle are cliques
    for i in range(4):
        for j in range(i + 1, 4):
            assert product_edge(triangle, fam, i, j)
    g = Graph(3, [(0, 1)])  # drop edges at 2: unions touching 2 fail unless singleton {2} with nothing else adjacent
    assert product_edge(g, fam, 0, 2)  # {0,1} u {0} = {0,1} clique
    assert not product_edge(g, fam, 0, 1)  # {0,1,2} not a clique
    assert not product_edge(g, fam, 1, 3)  # {0,2} not an edge


def test_product_graph_matches_pairwise_rule():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(8, 0.5, rng)
        fam = sample_family(8, 30, 3, rng.randrange(10**6))
        prod = product_graph(g, fam)
        for i in range(fam.N):
            for j in range(i + 1, fam.N):
                assert prod.has_edge(i, j) == product_edge(g, fam, i, j)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_edge_rule_checker_accepts_real_products(n, ell, seed):
    g = random_graph(n, 0.5, random.Random(seed))
    prod, fam = rgp(g, 20, ell, seed)
    rep = check_edge_rule(g, fam, prod)
    assert rep.ok
    assert rep.violation_count == 0


def test_edge_rule_checker_catches_tampering():
    g = Graph.cycle(5)
    prod, fam = rgp(g, 15, 2, 3)
    # flip one pair
    u, v = 0, 1
    edges = set(prod.edges())
    if (u, v) in edges:
        edges.remove((u, v))
    else:
        edges.add((u, v))
    bad = Graph(prod.n, edges)
    rep = check_edge_rule(g, fam, bad)
    assert not rep.ok
    assert rep.violation_count >= 1


def test_edge_rule_checker_catches_tampering_in_the_last_chunk():
    # at N = 2100 the checker works in chunks of (1 << 22) // 2100 = 1997 rows
    g = Graph.cycle(7)
    prod, fam = rgp(g, 2100, 2, 5)
    u, v = 2050, 2080
    edges = set(prod.edges()) ^ {(u, v)}
    rep = check_edge_rule(g, fam, Graph(prod.n, edges))
    assert not rep.ok
    assert rep.violation_count == 1
    genuine = prod.has_edge(u, v)
    assert sorted(rep.sample) == [(u, v, genuine, not genuine), (v, u, genuine, not genuine)]


def test_implied_edges_are_source_edges():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(9, 0.6, rng)
        prod, fam = rgp(g, 25, 2, rng.randrange(10**6))
        implied = implied_edges(fam, prod.edges())
        for u, v in implied:
            assert g.has_edge(u, v)


def test_implied_edges_on_hand_family():
    fam = SubsetFamily(source_n=4, ell=2, sets=((0, 1), (2,), (3,)))
    got = implied_edges(fam, [(0, 1), (1, 2)])
    # cross pairs only: edge (0,1) spans {0,1}x{2}, edge (1,2) spans {2}x{3};
    # the pair (0,1) internal to one set is not forced by these product edges
    assert got == frozenset({(0, 2), (1, 2), (2, 3)})


def test_implied_edges_disjoint_sides_counts_ell_squared():
    fam = SubsetFamily(source_n=6, ell=2, sets=((0, 1), (2, 3)))
    got = implied_edges(fam, [(0, 1)])
    assert got == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
    assert implied_edges(fam, []) == frozenset()


# -- parameter formulas --------------------------------------------------------


def test_paper_params_formula_scale():
    p = paper_params(2**20, Fraction(1, 2), 20, mode="constant", factor=1)
    assert p.ell == 400_000_000
    assert p.d == 2
    assert p.d_is_exact
    assert p.side_condition("ell_at_least_k")
    assert not p.side_condition("k_ell_at_most_n_pow_099delta")
    assert set(n for n, _ in p.side_conditions) == set(SIDE_CONDITION_NAMES)


def test_paper_params_ratio_mode_scales_ell():
    base = paper_params(2**20, Fraction(1, 2), 20, mode="constant", factor=1)
    doubled = paper_params(2**20, Fraction(1, 2), 20, mode="ratio", factor=2)
    assert doubled.ell == 2 * base.ell


def test_paper_params_d_inexact_for_non_power_of_two():
    p = paper_params(1000, Fraction(1, 2), 20)
    assert not p.d_is_exact


def test_paper_params_validation():
    with pytest.raises(ValueError):
        paper_params(1, Fraction(1, 2), 20)
    with pytest.raises(ValueError):
        paper_params(100, Fraction(1, 2), 19)
    with pytest.raises(ValueError):
        paper_params(100, Fraction(3, 5), 20)
    with pytest.raises(ValueError):
        paper_params(100, 0, 20)
    with pytest.raises(ValueError):
        paper_params(100, Fraction(1, 2), 20, mode="nope")


def test_n_exact_small_synthetic():
    # construct params directly to keep N materializable
    p = RgpParams(
        n=4,
        delta=Fraction(1, 2),
        k=20,
        mode="constant",
        factor=Fraction(1),
        ell=2,
        d=Fraction(1),
        d_is_exact=True,
        side_conditions=tuple((nm, True) for nm in SIDE_CONDITION_NAMES),
    )
    # 100 * 20 * 4^(1/2 * 2) = 2000 * 4
    assert p.N_exact == 8000
    assert p.N_log2_approx == pytest.approx(12.9657842847)


def test_side_conditions_exact_small_synthetic():
    got = check_side_conditions_exact(4, Fraction(1, 2), 20, 2, 8000)
    # N = 8000 = 10k * n^((1-delta) ell) exactly, and 8000 <= 1000k * 4
    assert got[SIDE_CONDITION_NAMES[0]] is True
    assert got[SIDE_CONDITION_NAMES[1]] is True
    assert got[SIDE_CONDITION_NAMES[2]] is False  # ell = 2 < k = 20
    # k ell = 40 > 4^(0.99/2) ~ 2.7
    assert got[SIDE_CONDITION_NAMES[3]] is False
    with pytest.raises(CapExceeded):
        check_side_conditions_exact(2**20, Fraction(1, 2), 20, 4 * 10**8, 10**9)


# -- disperser -----------------------------------------------------------------


def test_disperser_flags_poor_family():
    # ten copies of the same singleton: any M has union size 1
    fam = SubsetFamily(source_n=100, ell=4, sets=tuple(((7,),) * 10))
    # threshold for |M| = t is t * 4 * delta/100; with delta = 90/100? not allowed > 1
    rep = check_disperser(fam, Fraction(99, 100), 10)
    # |M| = 10: need >= 10*4*0.0099 = 0.396 -> union 1 passes; tighten via bigger ell
    fam2 = SubsetFamily(source_n=100, ell=30, sets=tuple((tuple(range(1)),) * 10))
    rep2 = check_disperser(fam2, Fraction(99, 100), 10)
    # 10 * 30 * 0.0099 = 2.97 > 1 -> violation
    assert not rep2.ok
    assert rep2.violation_count >= 1
    assert rep2.worst_ratio is not None and rep2.worst_ratio <= Fraction(1, 30)
    assert rep.ok or rep.violation_count == 0


def test_disperser_passes_disjoint_family():
    sets = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(8))
    fam = SubsetFamily(source_n=24, ell=3, sets=sets)
    rep = check_disperser(fam, Fraction(1, 2), 8)
    assert rep.ok
    assert rep.violation_count == 0


def test_disperser_sampled_mode_agrees_on_pass():
    fam = sample_family(50, 40, 2, 9)
    ex = check_disperser(fam, Fraction(1, 2), 4)
    sm = check_disperser(fam, Fraction(1, 2), 4, mode="sampled", samples=300, seed=1)
    if ex.ok:
        assert sm.ok  # sampling can only find a subset of exhaustive violations
    assert sm == check_disperser(
        fam, Fraction(1, 2), 4, mode="sampled", samples=300, seed=1
    )


def test_disperser_validation():
    fam = sample_family(10, 5, 2, 0)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(1, 2), 99)


def test_product_refuses_above_vertex_cap():
    g = Graph.complete(3)
    with pytest.raises(CapExceeded):
        product_graph(g, sample_family(3, VERTEX_CAP + 1, 2, 0))
