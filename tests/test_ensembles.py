from __future__ import annotations

import math
from fractions import Fraction

import pytest

from cliquelab.ensembles import (
    GENERATOR_ID,
    Seed,
    as_fraction,
    as_probability,
    as_seed,
    expected_er_edges,
    planted_kappa,
    sample_er,
    sample_pattern,
    sample_planted,
    uniform_subset,
)


def test_seed_streams_are_stable():
    s = as_seed(7)
    a = s.stream("x", 0).integers(0, 100, 5)
    b = as_seed(7).stream("x", 0).integers(0, 100, 5)
    assert list(a) == list(b)
    c = s.stream("x", 1).integers(0, 100, 5)
    d = s.stream("y", 0).integers(0, 100, 5)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_as_seed_idempotent():
    s = Seed(5)
    assert as_seed(s) is s
    assert as_seed(5) == s


def test_as_probability_and_fraction():
    assert as_probability("1/2") == 0.5
    assert as_probability(0.25) == 0.25
    assert as_fraction("2/5") == Fraction(2, 5)
    with pytest.raises(ValueError):
        as_probability("3/2")
    with pytest.raises(ValueError):
        as_probability(-0.1)


def test_er_determinism_and_index_streams():
    g1 = sample_er(40, 0.5, 9)
    g2 = sample_er(40, 0.5, 9)
    g3 = sample_er(40, 0.5, 9, index=1)
    g4 = sample_er(40, 0.5, 10)
    assert g1 == g2
    assert g1 != g3
    assert g1 != g4


def test_er_edge_densities_plausible():
    g = sample_er(60, 0.5, 1)
    mean = expected_er_edges(60, 0.5)
    sigma = math.sqrt(math.comb(60, 2) * 0.25)
    assert abs(g.m - mean) < 6 * sigma


def test_er_extreme_probabilities():
    assert sample_er(10, 0, 3).m == 0
    assert sample_er(10, 1, 3).m == 45


def test_planted_contains_clique():
    inst = sample_planted(30, 0.5, 7, 4)
    assert len(inst.clique) == 7
    assert inst.clique == tuple(sorted(inst.clique))
    assert inst.graph.is_clique(inst.clique)
    assert inst.kappa == 7


def test_planted_kappa_one_matches_er():
    # a planted 1-clique adds no edges, so the graph equals the null sample
    inst = sample_planted(25, 0.5, 1, 6)
    assert inst.graph == sample_er(25, 0.5, 6)


def test_planted_clique_choice_independent_of_p_stream():
    a = sample_planted(30, 0.3, 5, 2)
    b = sample_planted(30, 0.7, 5, 2)
    assert a.clique == b.clique


def test_pattern_sampler():
    h1 = sample_pattern(6, 11)
    h2 = sample_pattern(6, 11)
    assert h1 == h2
    assert h1.n == 6


def test_planted_kappa_values():
    assert planted_kappa(4, Fraction(1, 2)) == 2
    assert planted_kappa(100, Fraction(1, 2)) == 10
    assert planted_kappa(101, Fraction(1, 2)) == 11  # ceil(sqrt(101))
    assert planted_kappa(2**20, Fraction(1, 4)) == 32


def test_uniform_subset_shape():
    got = uniform_subset(10, 4, as_seed(3).stream("t", 0))
    assert len(got) == len(set(got)) == 4
    assert got == tuple(sorted(got))
    assert all(0 <= v < 10 for v in got)


def test_generator_id_mentions_numpy():
    assert "numpy" in GENERATOR_ID
