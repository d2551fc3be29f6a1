"""Every search runs on oracles._search, one search node per generator.

Each search is checked against the recursive version it replaced, kept here
as its reference: the same answer, and the same nodes counted by the budget.
The references call oracles.check_budget() where the searches polled, so one
counter patched over it counts both.  Each search also answers, or stops at
its node cap, on an input deeper than the recursion limit allows.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _util import clique_rich_graph, random_graph, shallow_stack
from cliquelab import oracles
from cliquelab.errors import CapExceeded
from cliquelab.graph import Graph, Hypergraph, WeightedDigraph, _bits
from cliquelab.oracles import (
    DsnInstance,
    SteinerForestInstance,
    clique_list,
    contains_ktt,
    count_cliques,
    densest_k_subgraph,
    densest_k_subhypergraph,
    detect_pattern,
    directed_steiner_network,
    satisfied_demands,
    smallest_k_edge_subgraph,
    steiner_k_forest,
)
from cliquelab.rgp import DisperserReport, SubsetFamily, check_disperser

rgp = importlib.import_module("cliquelab.rgp")  # the package exports a function of that name


def _counted(run):
    """run()'s value and the nodes its searches count."""
    nodes = 0

    def count(steps: int = 1) -> None:
        nonlocal nodes
        nodes += steps

    with mock.patch.object(oracles, "check_budget", count), mock.patch.object(
        rgp, "check_budget", count
    ):
        value = run()
    return value, nodes


# -- the recursive searches, as they were ----------------------------------------


def _clique_above_recursive(rows, candidates: int, floor: int, first: bool) -> list[int]:
    full = (1 << len(rows)) - 1
    keep = [full ^ (row | 1 << v) for v, row in enumerate(rows)]  # non-neighbours
    best: list[int] = []
    bar = floor  # max(len(best), floor), kept up to date as best changes

    def dfs(clique: list[int], candidates: int) -> bool:
        nonlocal best, bar
        oracles.check_budget()
        depth = len(clique)
        if depth + candidates.bit_count() <= bar:
            return False  # the colour bound is at most the candidate count
        colors = tops = 0
        remaining = candidates
        while remaining:
            avail = remaining
            while avail:
                low = avail & -avail
                remaining ^= low
                avail &= keep[low.bit_length() - 1]
            tops |= low  # the last vertex taken is the class's top
            colors += 1
            if depth + colors + remaining.bit_count() <= bar:
                return False
        if tops == candidates:  # all classes single: a clique, taken whole
            take = bar + 1 - depth if first else colors
            oracles.check_budget(take - 1)
            best = clique + _bits(candidates)[:take]
            bar = len(best)
            return first
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nxt = rest & rows[v]
            clique.append(v)
            if len(clique) > bar:
                best = clique.copy()
                bar = len(best)
                if first:
                    return True
            if nxt and dfs(clique, nxt):
                return True
            clique.pop()
            # exclude v: the bound drops once its class empties
            if tops & low:
                colors -= 1
            if depth + colors <= bar:
                return False
        return False

    dfs([], candidates)
    return best


def _clique_dfs_recursive(rows, n: int, r: int, collect: list | None) -> int:
    if r == 0:
        if collect is not None:
            collect.append(())
        return 1
    count = 0

    def rec(prefix: list[int], candidates: int, depth: int) -> None:
        nonlocal count
        oracles.check_budget()
        if depth == r:
            count += 1
            if collect is not None:
                collect.append(tuple(prefix))
            return
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nxt = rest & rows[v]
            if nxt.bit_count() < r - depth - 1:
                continue
            prefix.append(v)
            rec(prefix, nxt, depth + 1)
            prefix.pop()

    rec([], (1 << n) - 1, 0)
    return count


def _most_edges_recursive(rows, n: int, size: int, floor: int, first: bool):
    best_set: tuple[int, ...] | None = None
    best_edges = floor

    def dfs(chosen: list[int], mask: int, edges: int, start: int) -> bool:
        nonlocal best_set, best_edges
        oracles.check_budget()
        if len(chosen) == size:
            if edges > best_edges:
                best_edges = edges
                best_set = tuple(chosen)
                return first
            return False
        r = size - len(chosen)
        pool = list(range(start, n))
        if len(pool) < r:
            return False
        gains = sorted(((rows[v] & mask).bit_count() for v in pool), reverse=True)
        bound = edges + sum(gains[:r]) + r * (r - 1) // 2
        if bound <= best_edges:
            return False
        for v in pool:
            add = (rows[v] & mask).bit_count()
            chosen.append(v)
            if dfs(chosen, mask | (1 << v), edges + add, v + 1):
                return True
            chosen.pop()
            # after excluding v the bound can only drop; recompute lazily
            r2 = size - len(chosen)
            if n - (v + 1) < r2:
                return False
            gains = sorted(
                ((rows[w] & mask).bit_count() for w in range(v + 1, n)),
                reverse=True,
            )
            if edges + sum(gains[:r2]) + r2 * (r2 - 1) // 2 <= best_edges:
                return False
        return False

    dfs([], 0, 0, 0)
    return None if best_set is None else (best_set, best_edges)


def _biclique_sides_recursive(
    rows, t: int, chosen: tuple[int, ...], common: int, start: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    oracles.check_budget()
    if len(chosen) == t:
        yield chosen, common
        return
    n = len(rows)
    for v in range(start, n):
        if n - v < t - len(chosen):
            return
        nxt = common & rows[v]
        # the common set only shrinks along a branch
        if nxt.bit_count() < t:
            continue
        yield from _biclique_sides_recursive(rows, t, chosen + (v,), nxt, v + 1)


def _cheapest_cover_recursive(weights, covers, lower_bound):
    m = len(weights)
    best: tuple[tuple[int, ...], Fraction] | None = None

    def dfs(idx: int, chosen: list[int], cost: Fraction) -> None:
        nonlocal best
        oracles.check_budget()
        lb = lower_bound(chosen, idx)
        if lb is None:
            return
        floor = cost + lb if lb else cost  # a zero bound skips a Fraction sum
        if best is not None and (
            floor > best[1]
            or (floor == best[1] and len(chosen) >= len(best[0]) and cost == best[1])
        ):
            return
        if covers(chosen):
            best = (tuple(chosen), cost)
            return  # supersets cost no less and are strictly larger
        if idx == m or not covers(chosen + list(range(idx, m))):
            return
        chosen.append(idx)
        dfs(idx + 1, chosen, cost + weights[idx])
        chosen.pop()
        dfs(idx + 1, chosen, cost)

    dfs(0, [], Fraction(0))
    return best


def _densest_k_subhypergraph_recursive(h: Hypergraph, k: int) -> tuple[tuple[int, ...], int]:
    masks = []
    for e in h.edges:
        m = 0
        for v in e:
            m |= 1 << v
        masks.append(m)
    small = [m for m in masks if m.bit_count() <= k]
    best_set: tuple[int, ...] | None = None
    best_count = -1

    def dfs(chosen: list[int], mask: int, start: int) -> None:
        nonlocal best_set, best_count
        oracles.check_budget()
        if len(chosen) == k:
            count = sum(1 for m in small if m & ~mask == 0)
            if count > best_count:
                best_count = count
                best_set = tuple(chosen)
            return
        r = k - len(chosen)
        # bound: hyperedges still coverable given the remaining free slots
        pool_mask = mask | (((1 << h.n) - 1) >> start << start)
        possible = sum(1 for m in small if m & ~pool_mask == 0)
        if possible <= best_count:
            return
        for v in range(start, h.n):
            if h.n - v < r:
                return
            chosen.append(v)
            dfs(chosen, mask | (1 << v), v + 1)
            chosen.pop()

    dfs([], 0, 0)
    return best_set, best_count


def _detect_pattern_recursive(g: Graph, h: Graph, induced: bool) -> tuple[int, ...] | None:
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    # static order: h-vertices by descending degree, index as tie-break
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    rows = [g.row(u) for u in range(g.n)]
    image = [0] * h.n  # of each h-vertex placed so far

    def dfs(depth: int, free: int) -> bool:
        oracles.check_budget()
        if depth == h.n:
            return True
        hv = order[depth]
        need = h.degree(hv)
        candidates = free
        for hu in order[:depth]:
            if h.has_edge(hv, hu):
                candidates &= rows[image[hu]]
            elif induced:
                candidates &= ~rows[image[hu]]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            gv = low.bit_length() - 1
            if rows[gv].bit_count() < need:
                continue
            image[hv] = gv
            if dfs(depth + 1, free ^ low):
                return True
        return False

    return tuple(image) if dfs(0, (1 << g.n) - 1) else None


def _check_disperser_recursive(fam: SubsetFamily, delta: Fraction, T: int) -> DisperserReport:
    """The exact pair sweep's report (T <= 2), extended by the former
    exhaustive search; the sweep records at most the 100 violations the whole
    check may, so the search's go after them in any order."""
    swept = check_disperser(fam, delta, min(T, 2))
    N, ell, masks = fam.N, fam.ell, fam.masks
    violations = list(swept.violations)
    violation_count = swept.violation_count
    worst_ratio, worst_set = swept.worst_ratio, swept.worst_set
    nodes = 0

    def threshold(t: int) -> Fraction:
        return Fraction(1, 100) * delta * t * ell

    def note(members: tuple[int, ...], union_size: int) -> None:
        nonlocal worst_ratio, worst_set, violation_count
        t = len(members)
        ratio = Fraction(union_size, t * ell)
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio, worst_set = ratio, members
        if union_size < threshold(t):
            violation_count += 1
            if len(violations) < 100:
                violations.append((members, union_size, threshold(t)))

    thr_max = threshold(T)

    def dfs(start: int, members: list[int], union: int, size: int) -> None:
        nonlocal nodes
        for idx in range(start, N):
            u2 = union | masks[idx]
            s2 = u2.bit_count()
            t2 = len(members) + 1
            nodes += 1
            rgp.check_budget()
            if t2 > 2:  # depths 1 and 2 already swept exactly
                note(tuple(members + [idx]), s2)
            if t2 < T and s2 < thr_max:
                dfs(idx + 1, members + [idx], u2, s2)

    if T > 2:
        dfs(0, [], 0, 0)
    violations.sort()
    return DisperserReport(
        mode="exhaustive",
        max_set_size=T,
        ok=violation_count == 0,
        violation_count=violation_count,
        violations=tuple(violations),
        worst_ratio=worst_ratio,
        worst_set=worst_set,
        nodes_visited=nodes,
    )


# -- the same answers and node counts --------------------------------------------

_seeds = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.2, 0.5, 0.8, 0.97]),
    st.sampled_from(["random", "planted", "cliques"]),
    st.booleans(),
    st.integers(min_value=0, max_value=12),
    st.booleans(),
    _seeds,
)
def test_clique_search_matches_the_recursive_one(n, p, kind, first, floor, all_candidates, seed):
    rng = random.Random(seed)
    rows = [clique_rich_graph(kind, n, p, rng).row(u) for u in range(n)]
    candidates = (1 << n) - 1 if all_candidates else rng.getrandbits(n)
    args = (rows, candidates, floor, first)
    assert _counted(lambda: oracles._clique_above(*args)) == _counted(
        lambda: _clique_above_recursive(*args)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=16),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
    _seeds,
)
def test_clique_enumeration_matches_the_recursive_one(n, p, r, collect, seed):
    rows = [random_graph(n, p, random.Random(seed)).row(u) for u in range(n)]

    def run(search):
        out = [] if collect else None
        return search(rows, n, r, out), out

    assert _counted(lambda: run(oracles._clique_dfs)) == _counted(
        lambda: run(_clique_dfs_recursive)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-1, max_value=30),
    st.booleans(),
    _seeds,
)
def test_most_edges_search_matches_the_recursive_one(n, p, size, floor, first, seed):
    size = min(size, n)
    rows = [random_graph(n, p, random.Random(seed)).row(u) for u in range(n)]
    args = (rows, n, size, floor, first)
    assert _counted(lambda: oracles._most_edges(*args)) == _counted(
        lambda: _most_edges_recursive(*args)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    _seeds,
)
def test_biclique_sides_match_the_recursive_enumeration(n, p, t, stop_at, seed):
    # stop_at = 0 visits every side; otherwise the search stops at that one
    rows = [random_graph(n, p, random.Random(seed)).row(u) for u in range(n)]

    def ours():
        seen = []

        def visit(side, common):
            seen.append((side, common))
            return len(seen) == stop_at or None

        return oracles._biclique_sides(rows, t, visit), seen

    def reference():
        seen = []
        for item in _biclique_sides_recursive(rows, t, (), (1 << n) - 1, 0):
            seen.append(item)
            if len(seen) == stop_at:
                return True, seen
        return None, seen

    assert _counted(ours) == _counted(reference)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.sampled_from([0.3, 0.6]),
    st.lists(st.sampled_from(["0", "1", "2", "1/2", "3"]), min_size=21, max_size=21),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    _seeds,
)
def test_steiner_cover_search_matches_the_recursive_one(n, p, weights, pairs, k, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    demands = [tuple(rng.sample(range(n), 2)) for _ in range(pairs)]
    k = min(k, satisfied_demands(n, g.edges(), demands))
    inst = SteinerForestInstance(g, [Fraction(w) for w in weights[: g.m]], demands, k)
    with mock.patch.object(oracles, "_cheapest_cover", _cheapest_cover_recursive):
        reference = _counted(lambda: steiner_k_forest(inst))
    assert _counted(lambda: steiner_k_forest(inst)) == reference


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from([0.3, 0.6]),
    st.lists(st.sampled_from(["0", "1", "2", "3/2"]), min_size=30, max_size=30),
    st.integers(min_value=1, max_value=3),
    _seeds,
)
def test_dsn_cover_search_matches_the_recursive_one(n, p, weights, pairs, seed):
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    d = WeightedDigraph(n, [(u, v, w) for (u, v), w in zip(arcs, weights)])
    reach = [oracles._reach(oracles._out_masks(n, arcs), s) for s in range(n)]
    demands = [(s, t) for s in range(n) for t in range(n) if reach[s] >> t & 1]
    inst = DsnInstance(d, tuple(rng.sample(demands, min(pairs, len(demands)))))
    with mock.patch.object(oracles, "_cheapest_cover", _cheapest_cover_recursive):
        reference = _counted(lambda: directed_steiner_network(inst))
    assert _counted(lambda: directed_steiner_network(inst)) == reference


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.lists(st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4), max_size=8),
    st.integers(min_value=1, max_value=10),
)
def test_hypergraph_search_matches_the_recursive_one(n, edges, k):
    h = Hypergraph(n, [[v % n for v in e] for e in edges])
    k = min(k, n)
    assert _counted(lambda: densest_k_subhypergraph(h, k)) == _counted(
        lambda: _densest_k_subhypergraph_recursive(h, k)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.booleans(),
    _seeds,
)
def test_pattern_search_matches_the_recursive_one(n, k, p, induced, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    h = random_graph(k, p, rng)
    assert _counted(lambda: detect_pattern(g, h, induced)) == _counted(
        lambda: _detect_pattern_recursive(g, h, induced)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1, 50, 200, 400]),
    st.lists(st.sets(st.integers(min_value=0, max_value=5), min_size=1), min_size=1, max_size=10),
    st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]),
    st.integers(min_value=1, max_value=10),
)
def test_disperser_search_matches_the_recursive_one(source_n, ell, sets, delta, T):
    # a large ell over a small source makes unions poor, so the search goes deep
    sets = [sorted({v % source_n for v in s})[:ell] for s in sets]
    fam = SubsetFamily(source_n, ell, sets)
    T = min(T, fam.N)
    ours, ours_nodes = _counted(lambda: check_disperser(fam, delta, T))
    assert (ours, ours_nodes) == _counted(lambda: _check_disperser_recursive(fam, delta, T))
    # one node per index set searched, on top of the pairs swept
    assert ours_nodes == (math.comb(fam.N, 2) if T >= 2 else 0) + ours.nodes_visited


# -- deeper than the recursion limit -----------------------------------------------

DEEP = 300  # search levels, more than shallow_stack's 200 frames of headroom


def test_clique_enumeration_runs_deeper_than_the_recursion_limit():
    g = Graph.complete(DEEP)
    with shallow_stack():
        assert count_cliques(g, DEEP) == 1
        assert clique_list(g, DEEP) == [tuple(range(DEEP))]


def test_most_edges_search_runs_deeper_than_the_recursion_limit():
    g = Graph.complete(DEEP)
    with shallow_stack():
        assert densest_k_subgraph(g, DEEP) == (tuple(range(DEEP)), g.m)
        assert smallest_k_edge_subgraph(g, g.m) == tuple(range(DEEP))


def test_biclique_search_runs_deeper_than_the_recursion_limit():
    g = Graph(2 * DEEP, [(u, DEEP + v) for u in range(DEEP) for v in range(DEEP)])
    with shallow_stack():
        assert contains_ktt(g, DEEP)


def test_steiner_search_runs_deeper_than_the_recursion_limit():
    # a perfect matching with every pair demanded: one item per search level
    g = Graph(2 * DEEP, [(2 * i, 2 * i + 1) for i in range(DEEP)])
    inst = SteinerForestInstance(g, [1] * DEEP, g.edges(), DEEP)
    with shallow_stack():
        assert steiner_k_forest(inst) == (tuple(g.edges()), DEEP)


def test_hypergraph_search_runs_deeper_than_the_recursion_limit():
    h = Hypergraph(DEEP, [range(DEEP)])
    with shallow_stack():
        assert densest_k_subhypergraph(h, DEEP) == (tuple(range(DEEP)), 1)


def test_pattern_search_runs_deeper_than_the_recursion_limit():
    p = Graph.path(DEEP)
    with shallow_stack():
        mapping = detect_pattern(p, p, induced=True)
    assert all(p.has_edge(mapping[u], mapping[u + 1]) for u in range(DEEP - 1))


def test_disperser_search_runs_deeper_than_the_recursion_limit(monkeypatch):
    # copies of one set: every index set is poor, so the search dives DEEP
    # levels at once and then would enumerate all 2^DEEP of them; the node
    # cap stops it past the pairs and the first dive
    fam = SubsetFamily(1, 1, [(0,)] * DEEP)
    monkeypatch.setenv("CLIQUELAB_CAP", str(math.comb(DEEP, 2) + 2 * DEEP))
    with shallow_stack(), pytest.raises(CapExceeded, match="disperser sweep passed the cap"):
        check_disperser(fam, Fraction(1, 2), DEEP)
