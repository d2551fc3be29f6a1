from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _util import random_graph
from cliquelab.caps import VERTEX_CAP, budget
from cliquelab.ensembles import as_seed
from cliquelab.errors import BudgetExceeded, CapExceeded
from cliquelab.formats import dump_family, load_family
from cliquelab.graph import Graph
from cliquelab.rgp import (
    SIDE_CONDITION_NAMES,
    EdgeRuleReport,
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


@pytest.mark.parametrize(
    ("n", "N", "ell", "seed", "index"),
    [(10, 25, 3, 4, 0), (7, 60, 2, 7, 3), (60, 2000, 2, 1011, 11), (5, 9, 6, 0, 1)],
)
def test_family_sets_follow_the_raw_draw_stream(n, N, ell, seed, index):
    raw = as_seed(seed).stream("rgp-family", index).integers(0, n, size=(N, ell))
    fam = sample_family(n, N, ell, seed, index)
    assert fam.sets == tuple(tuple(sorted(set(row))) for row in raw.tolist())
    assert fam.masks == tuple(sum(1 << u for u in s) for s in fam.sets)


def test_family_from_sets_equals_the_sampled_family():
    fam = sample_family(6, 50, 3, 2)
    built = SubsetFamily(source_n=6, ell=3, sets=fam.sets)
    loaded = load_family(dump_family(fam))
    # a set of two members pads its row differently from the draws it came from
    assert not (built.draws == fam.draws).all()
    assert built == fam == loaded
    assert hash(built) == hash(fam) == hash(loaded)
    assert built != SubsetFamily(source_n=7, ell=3, sets=fam.sets)
    assert built != SubsetFamily(source_n=6, ell=4, sets=fam.sets)


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


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("source", ["empty", "complete", "random"])
def test_row_build_matches_the_literal_rule(ell, source):
    n = 7
    rng = random.Random(ell)
    for seed in range(4):
        if source == "empty":
            g = Graph.empty(n)
        elif source == "complete":
            g = Graph.complete(n)
        else:
            g = random_graph(n, 0.5, rng)
        # 40 sets over 7 vertices: repeated sets in every family
        fam = sample_family(n, 40, ell, 100 + seed)
        assert len(set(fam.sets)) < fam.N
        if source == "random" and ell > 1:
            assert not all(g.is_clique(s) for s in fam.sets)
        prod = product_graph(g, fam)
        for i in range(fam.N):
            for j in range(fam.N):
                assert prod.has_edge(i, j) == product_edge(g, fam, i, j)
        # the load_family path: the same sets, rows padded another way
        built = SubsetFamily(source_n=n, ell=ell, sets=fam.sets)
        assert product_graph(g, built) == prod


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


def _check_edge_rule_reference(g: Graph, fam: SubsetFamily, product: Graph) -> EdgeRuleReport:
    """The former checker, which multiplied out the rows of every set."""
    N, n = fam.N, g.n
    B = np.zeros((N, n), dtype=np.float32)
    B[np.arange(N)[:, None], fam.draws] = 1.0
    closed = g.to_bool_matrix() | np.eye(n, dtype=bool)
    F = (~closed).astype(np.float32)
    D = B @ F
    R = (B * D).sum(axis=1)
    got_full = product.to_bool_matrix()
    violations = 0
    sample: list[tuple[int, int, bool, bool]] = []
    chunk = max(1, (1 << 22) // max(N, 1))
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        S = D[lo:hi] @ B.T
        S += R[lo:hi, None]
        S += R[None, :]
        expected = S == 0.0
        expected[np.arange(hi - lo), np.arange(lo, hi)] = False
        diff = expected != got_full[lo:hi]
        for a, b in zip(*np.nonzero(diff)):
            violations += 1
            if len(sample) < 50:
                i, j = int(a) + lo, int(b)
                sample.append((i, j, bool(expected[a, b]), bool(got_full[i, j])))
    return EdgeRuleReport(violations == 0, N * (N - 1) // 2, violations // 2, tuple(sample))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.integers(min_value=1, max_value=60), st.just(2100)),
    st.integers(min_value=0, max_value=70),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_edge_rule_checker_reports_as_the_checker_of_every_row(n, ell, N, flips, mirror, seed):
    # flips toggle random ordered pairs of the product's rows, mirrored or
    # not, so corrupted products may be asymmetric or hold self-loops
    rng = random.Random(seed)
    g = random_graph(n, rng.choice([0.3, 0.7, 1.0]), rng)
    prod, fam = rgp(g, N, ell, seed)
    rows = list(prod._rows)
    for _ in range(flips):
        i, j = rng.randrange(N), rng.randrange(N)
        rows[i] ^= 1 << j
        if mirror and i != j:
            rows[j] ^= 1 << i
    bad = Graph._from_rows(N, tuple(rows))
    assert check_edge_rule(g, fam, bad) == _check_edge_rule_reference(g, fam, bad)


def test_edge_rule_checker_reports_as_the_checker_of_every_row_in_a_partial_last_byte():
    # at N = 2001 the last byte of each packed row holds one bit, index 2000;
    # the flips add up: a mirrored pair, a self-loop, then a bit without its mirror
    g = Graph.cycle(7)
    prod, fam = rgp(g, 2001, 2, 6)
    rows = list(prod.rows)
    for i, j, mirror in ((0, 2000, True), (2000, 2000, False), (7, 2000, False)):
        rows[i] ^= 1 << j
        if mirror:
            rows[j] ^= 1 << i
        bad = Graph._from_rows(2001, tuple(rows))
        rep = check_edge_rule(g, fam, bad)
        assert not rep.ok
        assert rep == _check_edge_rule_reference(g, fam, bad)


def test_edge_rule_checker_merges_both_kinds_of_row_in_row_major_order():
    # at N = 2100 the checker multiplies clique rows in blocks of 124; flips in
    # every 41st row put non-clique rows between clique rows of several blocks
    g = random_graph(8, 0.5, random.Random(5))
    prod, fam = rgp(g, 2100, 2, 5)
    clique_rows = [i for i, s in enumerate(fam.sets) if g.is_clique(s)]
    rows = list(prod.rows)
    for i in range(0, 2100, 41):
        rows[i] ^= 1 << (7 * i + 3) % 2100
    bad = Graph._from_rows(2100, tuple(rows))
    rep = check_edge_rule(g, fam, bad)
    assert rep == _check_edge_rule_reference(g, fam, bad)
    assert rep.violation_count == 26 and len(rep.sample) == 50
    sampled = [i for i, *_ in rep.sample]
    in_cliques = [i for i in sampled if i in clique_rows]
    assert len({clique_rows.index(i) // 124 for i in in_cliques}) >= 3
    assert any(in_cliques[0] < i < in_cliques[-1] for i in sampled if i not in clique_rows)


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


def test_implied_edges_from_draws_match_the_sets():
    # draws from a source of 4 vertices repeat members often; reading the
    # rows must force the same pairs as the deduplicated sets
    rng = random.Random(12)
    for seed in range(10):
        fam = sample_family(4, 30, 3, seed)
        edges = [tuple(sorted(rng.sample(range(30), 2))) for _ in range(20)]
        got = implied_edges(fam, edges)
        assert fam._sets is None  # no set tuples were built
        want = frozenset(
            (min(u, v), max(u, v))
            for i, j in edges
            for u in fam.sets[i]
            for v in fam.sets[j]
            if u != v
        )
        assert got == want


# -- parameter formulas --------------------------------------------------------


def test_paper_params_formula_scale():
    p = paper_params(2**20, Fraction(1, 2), 20, mode="constant", factor=1)
    assert p.ell == 400_000_000
    assert p.d == 2
    assert p.d_is_exact
    assert p.side_condition("ell_at_least_k")
    assert not p.side_condition("k_ell_at_most_n_pow_099delta")
    assert set(n for n, _ in p.side_conditions) == set(SIDE_CONDITION_NAMES)
    # N has (1 - delta) * ell * log2(n) = 4e9 bits, above the bit cap
    with pytest.raises(CapExceeded, match="exact power needs"):
        p.N_exact


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


def _pair_sweep_reference(fam, delta):
    """Depth <= 2 of the disperser check as plain pairwise mask unions."""
    masks = [sum(1 << u for u in s) for s in fam.sets]
    notes = [((i,), masks[i].bit_count()) for i in range(fam.N)]
    notes += [
        ((i, j), (masks[i] | masks[j]).bit_count())
        for i in range(fam.N)
        for j in range(i + 1, fam.N)
    ]
    worst_ratio = worst_set = None
    violations = []
    for members, size in notes:
        ratio = Fraction(size, len(members) * fam.ell)
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio, worst_set = ratio, members
        thr = Fraction(1, 100) * delta * len(members) * fam.ell
        if size < thr:
            violations.append((members, size, thr))
    return worst_ratio, worst_set, sorted(violations)


def test_disperser_pair_sweep_matches_pairwise_mask_unions():
    rng = random.Random(23)
    delta = Fraction(99, 100)
    families = [
        sample_family(n, N, 3, seed) for n, N, seed in ((9, 30, 1), (70, 12, 2), (3, 8, 3))
    ]
    for _ in range(10):
        # at ell = 200 a set or pair covering fewer than 2 or 4 vertices violates
        n = rng.randint(3, 70)
        sets = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))
            for _ in range(rng.randint(2, 12))
        ]
        families.append(SubsetFamily(source_n=n, ell=200, sets=sets))
    for fam in families:
        worst_ratio, worst_set, violations = _pair_sweep_reference(fam, delta)
        rep = check_disperser(fam, delta, 2)
        assert len(violations) < 100
        assert (rep.worst_ratio, rep.worst_set) == (worst_ratio, worst_set)
        assert list(rep.violations) == violations
        assert rep.violation_count == len(violations)
    # past 100 violations the report keeps 100 of them and counts them all
    for sets in ([(0,)] * 30, [(u % 3,) for u in range(40)]):
        fam = SubsetFamily(source_n=3, ell=200, sets=sets)
        worst_ratio, worst_set, violations = _pair_sweep_reference(fam, delta)
        rep = check_disperser(fam, delta, 2)
        assert (rep.worst_ratio, rep.worst_set) == (worst_ratio, worst_set)
        assert len(rep.violations) == 100 and set(rep.violations) <= set(violations)
        assert rep.violation_count == len(violations)


def test_disperser_records_violating_pairs_in_every_chunk():
    # at N = 2100 the pair sweep works in chunks of (1 << 22) // 2100 = 1997
    # rows; distinct 3-sets over vertices 0..29 have unions of 4 or more, and
    # at ell = 200 only sizes below 2 (one set) or 4 (a pair) violate
    sets = list(itertools.islice(itertools.combinations(range(30), 3), 2100))
    sets[3], sets[2050], sets[2080] = (31,), (30,), (30, 31)
    fam = SubsetFamily(source_n=32, ell=200, sets=sets)
    rep = check_disperser(fam, Fraction(99, 100), 2)
    one, two = Fraction(99, 50), Fraction(99, 25)
    assert rep.violations == (
        ((3,), 1, one),
        ((3, 2050), 2, two),
        ((3, 2080), 2, two),
        ((2050,), 1, one),
        ((2050, 2080), 2, two),
    )
    assert rep.violation_count == 5
    assert (rep.worst_ratio, rep.worst_set) == (Fraction(1, 200), (3,))


def test_disperser_lists_the_first_100_violations_in_sweep_order():
    # at ell = 200 a set below 2 vertices or a pair below 4 violates: the two
    # copies of (50,), all 190 pairs of the 20 copies of (0, 1, 2), and
    # (20, 21), which is also the worst set but comes last in the sweep; the
    # list keeps the first 100 in sweep order, the singletons and 98 pairs
    fam = SubsetFamily(source_n=51, ell=200, sets=[(0, 1, 2)] * 20 + [(50,)] * 2)
    rep = check_disperser(fam, Fraction(99, 100), 2)
    assert (rep.worst_set, rep.worst_ratio) == ((20, 21), Fraction(1, 400))
    assert rep.violation_count == 193
    one, two = Fraction(99, 50), Fraction(99, 25)
    pairs = list(itertools.combinations(range(20), 2))[:98]
    assert rep.violations == tuple(
        sorted([((20,), 1, one), ((21,), 1, one)] + [(p, 3, two) for p in pairs])
    )


def test_disperser_sweeps_a_last_chunk_of_one_row():
    # at N = 3547 the chunks hold (1 << 22) // 3547 = 1182 rows, so the last
    # chunk is row 3546 alone and has no pair to the right of it
    sets = list(itertools.islice(itertools.combinations(range(30), 3), 3547))
    fam = SubsetFamily(source_n=30, ell=3, sets=sets)
    rep = check_disperser(fam, Fraction(1, 2), 2)
    assert rep.ok
    assert (rep.worst_set, rep.worst_ratio) == ((0, 1), Fraction(2, 3))


def test_disperser_pair_sweep_counts_one_node_per_pair(monkeypatch):
    # T = 2 runs no search: the N(N-1)/2 = 44850 pairs are the whole count
    fam = sample_family(100, 300, 2, 15)
    monkeypatch.setenv("CLIQUELAB_CAP", "44850")
    assert check_disperser(fam, Fraction(1, 2), 2).ok
    monkeypatch.setenv("CLIQUELAB_CAP", "44849")
    with pytest.raises(CapExceeded, match="disperser sweep passed the cap of 44849"):
        check_disperser(fam, Fraction(1, 2), 2)


def test_disperser_pair_sweep_stops_on_the_budget(monkeypatch):
    # about 72 million pairs: seconds of sweep, polled once per chunk of rows
    fam = sample_family(100, 12000, 2, 15)
    with pytest.raises(BudgetExceeded):
        with budget(200, "disperser"):
            check_disperser(fam, Fraction(1, 2), 2)
    monkeypatch.setenv("CLIQUELAB_CAP", "1000")
    with pytest.raises(CapExceeded):
        with budget(200, "disperser"):
            check_disperser(fam, Fraction(1, 2), 2)


def test_disperser_validation():
    fam = sample_family(10, 5, 2, 0)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        check_disperser(fam, Fraction(1, 2), 99)


def test_disperser_sampled_mode_counts_one_node_per_sample(monkeypatch):
    fam = sample_family(100, 300, 2, 15)
    run = lambda: check_disperser(  # noqa: E731
        fam, Fraction(1, 2), 4, mode="sampled", samples=100000, seed=1
    )
    with pytest.raises(BudgetExceeded):
        with budget(50, "disperser"):
            run()
    # above the 44850 swept pairs, below pairs plus samples
    monkeypatch.setenv("CLIQUELAB_CAP", "50000")
    with pytest.raises(CapExceeded):
        run()


def test_disperser_checks_mode_and_seed_before_the_pair_sweep():
    # the deadline has passed, so the sweep's first poll would raise BudgetExceeded
    fam = sample_family(100, 300, 2, 15)
    with budget(0, "disperser"):
        with pytest.raises(ValueError, match="mode"):
            check_disperser(fam, Fraction(1, 2), 2, mode="sampeld", seed=1)
        with pytest.raises(ValueError, match="seed"):
            check_disperser(fam, Fraction(1, 2), 2, mode="sampled")


def test_product_refuses_above_vertex_cap():
    g = Graph.complete(3)
    with pytest.raises(CapExceeded):
        product_graph(g, sample_family(3, VERTEX_CAP + 1, 2, 0))


def test_rgp_refuses_above_vertex_cap_before_sampling(monkeypatch):
    def sample_family_not_called(*args, **kwargs):
        raise AssertionError("sampled a family for a product above the cap")

    # `cliquelab.rgp` as an attribute is the function, so fetch the module
    module = importlib.import_module("cliquelab.rgp")
    monkeypatch.setattr(module, "sample_family", sample_family_not_called)
    with pytest.raises(CapExceeded):
        rgp(Graph.complete(3), VERTEX_CAP + 1, 2, 0)
