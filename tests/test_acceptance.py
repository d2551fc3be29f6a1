"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with -s (or read the failure output) to see the measured numbers.
Budgets are wall-clock seconds and generous; the numeric tolerances are the
contract, stated inline next to each assertion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import networkx as nx

from cliquelab.ensembles import sample_er, sample_planted
from cliquelab.graph import Graph, peel_to_min_degree
from cliquelab.oracles import (
    count_cliques,
    detect_pattern,
    directed_steiner_network,
    smallest_k_edge_subgraph,
    steiner_k_forest,
)
from cliquelab.reductions import (
    biclique_to_dksh,
    dks_to_induced_pattern,
    dsn_cross_edge_property,
    extract_dsn_solution,
    skes_to_dsn,
    skes_to_steiner_forest,
)
from cliquelab.rgp import check_edge_rule, check_side_conditions_exact, paper_params, rgp
from cliquelab.verify import (
    den_mean_confidence,
    verify_averaging_trials,
    verify_completeness,
    verify_disperser,
    verify_lemma44,
    verify_soundness_structure,
)

from _util import random_graph


def _criterion(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_edge_rule_invariant():
    rng = random.Random(101)
    t0 = time.perf_counter()
    violations = 0
    for i in range(500):
        n = rng.randint(20, 100)
        ell = rng.randint(1, 4)
        N = rng.randint(50, 2000)
        if rng.random() < 0.5:
            g = sample_er(n, 0.5, seed=10, index=i)
        else:
            g = sample_planted(n, 0.5, max(2, n // 5), seed=10, index=i).graph
        product, fam = rgp(g, N, ell, seed=20, index=i)
        violations += check_edge_rule(g, fam, product).violation_count
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 60
    _criterion("1", ok, f"{violations} violations over 500 instances, {dt:.1f}s")


def test_criterion_2_completeness_rate():
    t0 = time.perf_counter()
    rep = verify_completeness(
        n=100, delta=Fraction(1, 2), ell=2, k=3, N=3000, trials=200, seed=2024
    )
    dt = time.perf_counter() - t0
    rate = rep.aggregates["success_rate"]
    ok = rate >= 0.85 and dt < 120
    _criterion("2", ok, f"witness-clique rate {rate:.3f} >= 0.85, {dt:.1f}s")


def test_criterion_3_disperser_rate():
    t0 = time.perf_counter()
    rep = verify_disperser(
        n=100, ell=2, N=200, delta=Fraction(1, 2), max_set_size=4,
        trials=100, seed=2024,
    )
    dt = time.perf_counter() - t0
    rate = rep.aggregates["success_rate"]
    ok = rate >= 0.9 and dt < 300
    _criterion("3", ok, f"disperser pass rate {rate:.3f} >= 0.9, {dt:.1f}s")


def test_criterion_4_implied_edges_and_density_separation():
    t0 = time.perf_counter()
    contain = verify_soundness_structure(
        n=60, ell=2, N=500, k=4, trials=500, seed=41, kappa=20,
        j_samples=20, j_size=6,
    )
    pairs = sum(1 for _ in contain.trials) * 20
    contained = all(r["implied_contained"] for r in contain.trials)

    planted = verify_soundness_structure(
        n=60, ell=2, N=500, k=4, trials=200, seed=42, kappa=20, j_samples=1
    )
    null = verify_soundness_structure(
        n=60, ell=2, N=500, k=4, trials=200, seed=43, j_samples=1
    )
    p_lo, p_hi = den_mean_confidence(planted)
    n_lo, n_hi = den_mean_confidence(null)
    separated = p_lo > n_hi or n_lo > p_hi
    dt = time.perf_counter() - t0
    ok = contained and separated and dt < 600
    _criterion(
        "4",
        ok,
        f"containment on {pairs} pairs: {contained}; den_leq_k 99% CIs "
        f"planted [{p_lo:.4f}, {p_hi:.4f}] vs null [{n_lo:.4f}, {n_hi:.4f}] "
        f"separated: {separated}; {dt:.1f}s",
    )


def test_criterion_5_ktt_counting_bound():
    t0 = time.perf_counter()
    details = []
    ok = True
    for kappa, t, ell in ((32, 2, 1), (48, 3, 2)):
        rep = verify_lemma44(kappa=kappa, t=t, ell=ell, trials=50, seed=99)
        aggs = rep.aggregates
        good = (
            rep.verdict == "pass"
            and aggs["success_rate"] == 1.0
            and aggs["exhausted"] == 0
        )
        ok = ok and good
        details.append(
            f"({kappa},{t},{ell}) max_count {aggs['max_count']} "
            f"<= bound {aggs['bound_float']:.0f}"
        )
    dt = time.perf_counter() - t0
    ok = ok and dt < 600
    _criterion("5", ok, f"{'; '.join(details)}; {dt:.1f}s")


def _is_connected(g: Graph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def test_criterion_6_peel_min_degree_vs_density():
    rng = random.Random(66)
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    while checked < 10_000:
        n = rng.randint(2, 8)
        p = rng.uniform(0.25, 0.9)
        g = random_graph(n, p, rng)
        if g.m == 0 or not _is_connected(g):
            continue
        core = peel_to_min_degree(g)
        if g.induced(core).min_degree() < g.density():
            violations += 1
        checked += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 60
    _criterion("6", ok, f"{violations} violations over {checked} samples, {dt:.1f}s")


def test_criterion_7a_star_reduction_exhaustive():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for ag in nx.graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if not 1 <= n <= 7:
            continue
        g = Graph(n, [tuple(e) for e in ag.edges()])
        for k in range(1, g.m + 1):
            vs = smallest_k_edge_subgraph(g, k)
            inst, _cert = skes_to_steiner_forest(g, k)
            _edges, cost = steiner_k_forest(inst)
            if cost != len(vs):
                mismatches += 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 900
    _criterion(
        "7a", ok, f"{mismatches} optimum mismatches over {checked} (G, k), {dt:.1f}s"
    )


def test_criterion_7b_dsn_rainbow():
    rng = random.Random(7)
    t0 = time.perf_counter()
    bad = 0
    runs = 0
    for k in range(2, 6):
        for trial in range(5):
            n = rng.randint(max(k, 6), 8)
            edges = set(random_graph(n, 0.5, rng).edges())
            clique = rng.sample(range(n), k)
            for i in range(k):
                for j in range(i + 1, k):
                    edges.add(tuple(sorted((clique[i], clique[j]))))
            g = Graph(n, sorted(edges))
            inst, cert = skes_to_dsn(g, k, seed=trial, rainbow=sorted(clique))
            arcs, cost = directed_steiner_network(inst)
            extract_dsn_solution(cert, arcs)
            if cost > 2 * k or not dsn_cross_edge_property(g, cert, arcs):
                bad += 1
            runs += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 900
    _criterion("7b", ok, f"{bad} failures over {runs} rainbow instances, {dt:.1f}s")


def test_criterion_7c_forced_rainbow_pattern():
    rng = random.Random(73)
    patterns = [
        Graph.complete(4),
        Graph.cycle(4),
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),  # diamond minus an edge
    ]
    t0 = time.perf_counter()
    found = 0
    leaks = 0
    trials = 50
    for trial in range(trials):
        h = patterns[trial % len(patterns)]
        g = random_graph(12, 0.5, rng)
        spots = rng.sample(range(12), 4)
        edges = {e for e in g.edges() if not set(e) <= set(spots)}
        for i in range(4):
            for j in range(i + 1, 4):
                if h.has_edge(i, j):
                    edges.add(tuple(sorted((spots[i], spots[j]))))
        host = Graph(12, sorted(edges))
        colored, cert = dks_to_induced_pattern(
            host, h, seed=trial, rainbow=spots
        )
        assert not cert.data["complemented"]
        if detect_pattern(colored, h, induced=True) is not None:
            found += 1
        if not set(colored.edges()) <= set(host.edges()):
            leaks += 1
    dt = time.perf_counter() - t0
    ok = found == trials and leaks == 0 and dt < 900
    _criterion(
        "7c", ok,
        f"induced copy found {found}/{trials}, {leaks} edge leaks, {dt:.1f}s",
    )


def test_criterion_7d_hyperedge_identity():
    rng = random.Random(74)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        ell = rng.choice((1, 2))
        g = random_graph(12, rng.uniform(0.4, 0.8), rng)
        hyper, _rho, _ell, _cert = biclique_to_dksh(g, k=8, ell=ell)
        s = rng.sample(range(12), rng.randint(2 * ell, 10))
        inside = len(hyper.edges_inside(s))
        if inside != count_cliques(g.induced(sorted(s)), 2 * ell):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 900
    _criterion("7d", ok, f"{mismatches} mismatches over 1000 (G, S), {dt:.1f}s")


def test_criterion_8_averaging_bound():
    t0 = time.perf_counter()
    rep = verify_averaging_trials(n=12, s_size=10, k=4, trials=100, seed=88)
    dt = time.perf_counter() - t0
    rate = rep.aggregates["success_rate"]
    ok = rate == 1.0 and dt < 60
    _criterion("8", ok, f"bound held in {rate:.0%} of 100 instances, {dt:.1f}s")


def test_criterion_9_parameter_calculator():
    t0 = time.perf_counter()
    params = paper_params(2**20, Fraction(1, 2), 20)
    dt = time.perf_counter() - t0

    # cheap points where the literal big-integer recomputation is feasible
    agree = True
    for n, delta, k in ((2, Fraction(1, 2), 10**9), (4, Fraction(1, 2), 2 * 10**8)):
        q = paper_params(n, delta, k)
        exact = check_side_conditions_exact(n, delta, k, q.ell, q.N_exact)
        agree = agree and dict(q.side_conditions) == exact

    ok = (
        params.ell == 400_000_000
        and params.d == 2
        and params.d_is_exact
        and params.side_condition("k_ell_at_most_n_pow_099delta") is False
        and agree
        and dt < 1.0
    )
    _criterion(
        "9",
        ok,
        f"ell = {params.ell}, d = {params.d}, exact flags agree: {agree}, {dt:.3f}s",
    )
