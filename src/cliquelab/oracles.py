"""Exact brute-force oracles: the ground truth the rest of the code is tested by.

Every search is deliberately naive branch-and-bound with sound bounds, exact
rational costs, and deterministic tie-breaking.  Unless stated otherwise ties
go to the lexicographically least sorted vertex (or edge) tuple, realized by
ascending include-first depth-first search that only accepts strict
improvements.  Each returned solution is re-validated by an independent
feasibility check before being handed back.

Every search runs on one driver, _search, which keeps its suspended nodes on a
stack: no search depth is bound by the interpreter's recursion limit, and the
driver's one check_budget() poll per node is the search's node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Generator, Iterable, Sequence

import numpy as np

from .caps import budget, check_budget
from .errors import BudgetExceeded, InfeasibleError, PatternSearchTimeout
from .graph import Graph, Hypergraph, WeightedDigraph, _bits


def _search(node: Callable[..., Generator[tuple, Any, Any]], *root: Any) -> Any:
    """Run the depth-first search rooted at node(*root); return the root's value.

    A node is a generator: it yields the argument tuple of each child in turn,
    is sent back that child's value, and returns its own.  check_budget()
    counts each node as it starts, the root included.
    """
    poll = check_budget
    poll()
    stack = [node(*root)]
    value = None
    while stack:
        try:
            args = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            poll()
            stack.append(node(*args))
            value = None
    return value


# -- cliques -------------------------------------------------------------------


def _clique_above(rows: Sequence[int], candidates: int, floor: int, first: bool) -> list[int]:
    """Lex-least largest clique among candidates with more than floor
    vertices, or [] if there is none.

    Ascending include-first search under the greedy colour bound that accepts
    strict improvements only.  With first set it stops at the first clique of
    floor + 1 vertices, which is the lex-least one: until then the bound prunes
    only branches that cannot reach that size.

    Each node colours its candidates greedily on bitmasks, lowest vertex
    first, and keeps only the class count and a mask of each class's top
    vertex; a clique meets a class at most once, so the classes left bound it.
    A class is empty once its top vertex is excluded, which is exact because
    candidates are excluded in ascending order.  Colouring stops once the
    classes so far plus the uncoloured candidates, each of which opens at most
    one more class, cannot lift the clique above the bar.

    If every class is a single vertex the candidates are pairwise adjacent,
    and the include-first dive would add them one per node, lowest first,
    until the clique passes the bar (with first set) or holds them all.  That
    dive is taken whole and charged the take - 1 nodes it would have
    expanded, so answers and node counts are those of the dive.
    """
    full = (1 << len(rows)) - 1
    keep = [full ^ (row | 1 << v) for v, row in enumerate(rows)]  # non-neighbours
    best: list[int] = []
    bar = floor  # max(len(best), floor), kept up to date as best changes
    clique: list[int] = []

    def node(candidates: int):
        nonlocal best, bar
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
            check_budget(take - 1)
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
            if nxt and (yield (nxt,)):
                return True
            clique.pop()
            # exclude v: the bound drops once its class empties
            if tops & low:
                colors -= 1
            if depth + colors <= bar:
                return False
        return False

    _search(node, candidates)
    return best


def max_clique(g: Graph) -> tuple[int, ...]:
    """Lexicographically least maximum clique."""
    if not g.n:
        return ()
    with budget(None, "clique search"):
        result = tuple(_clique_above(g.rows, (1 << g.n) - 1, 0, False))
    assert g.is_clique(result)
    return result


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def _clique_dfs(rows: Sequence[int], n: int, r: int, collect: list | None) -> int:
    """Count r-cliques; optionally collect them in lexicographic order."""
    if r == 0:
        if collect is not None:
            collect.append(())
        return 1
    count = 0
    prefix: list[int] = []

    def node(candidates: int):
        nonlocal count
        depth = len(prefix)
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
            yield (nxt,)
            prefix.pop()

    _search(node, (1 << n) - 1)
    return count


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-subsets inducing a clique."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > g.n:
        return 0
    with budget(None, f"{r}-clique enumeration"):
        return _clique_dfs(g.rows, g.n, r, None)


def clique_list(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All r-cliques in lexicographic order."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > g.n:
        return []
    out: list[tuple[int, ...]] = []
    with budget(None, f"{r}-clique enumeration"):
        _clique_dfs(g.rows, g.n, r, out)
    return out


# -- densest small subgraphs ----------------------------------------------------


def _most_edges(
    rows: Sequence[int], n: int, size: int, floor: int, first: bool
) -> tuple[tuple[int, ...], int] | None:
    """Lex-least size-subset of range(n) with the most induced edges, provided
    it has more than floor of them; None if no size-subset does.

    Ascending include-first branch-and-bound that accepts strict improvements
    only, so ties go to the lex-least witness.  With first set it stops at the
    first subset above floor, which is the lex-least such subset.
    """
    best_set: tuple[int, ...] | None = None
    best_edges = floor
    chosen: list[int] = []

    def node(mask: int, edges: int, start: int):
        nonlocal best_set, best_edges
        if len(chosen) == size:
            if edges > best_edges:
                best_edges = edges
                best_set = tuple(chosen)
                return first
            return False
        r = size - len(chosen)
        for v in range(start, n):
            # bound the branches that take the r vertices still owed from v
            # on; it can only drop as each v is excluded in turn
            if n - v < r:
                return False
            gains = sorted(((rows[w] & mask).bit_count() for w in range(v, n)), reverse=True)
            if edges + sum(gains[:r]) + r * (r - 1) // 2 <= best_edges:
                return False
            chosen.append(v)
            if (yield mask | (1 << v), edges + (rows[v] & mask).bit_count(), v + 1):
                return True
            chosen.pop()
        return False

    _search(node, 0, 0, 0)
    return None if best_set is None else (best_set, best_edges)


def densest_k_subgraph(g: Graph, k: int) -> tuple[tuple[int, ...], int]:
    """Exact maximizer of induced edges over k-subsets, lex-least witness."""
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= {g.n}, got {k}")
    with budget(None, "k-subset search"):
        found = _most_edges(g.rows, g.n, k, -1, False)
    assert found is not None
    best_set, best_edges = found
    recount = g.induced(best_set).m
    assert recount == best_edges
    return best_set, best_edges


def _den_leq4_closed_form(g: Graph, k: int) -> Fraction:
    """Exact max of |E[S]|/|S| over |S| <= k for k <= 4, via case analysis, on
    a graph with no k-clique.

    Densities realizable on at most 4 vertices order as
    3/2 (K4) > 5/4 (K4 minus an edge) > 1 (triangle, or 4-cycle) >
    3/4 (3 edges on 4 vertices) > 2/3 (path on 3) > 1/2 (edge) > 0,
    and without the k-clique each case reduces to a degree or common-neighbor
    test.  At k = 4 the common neighbor counts come from one float32 matrix
    product on BLAS, exact below 2^24 vertices.  With no search loop, only the
    deadline is checked, around that product: it expands no search node.
    """
    if g.m == 0:
        return Fraction(0)
    max_deg = max(g.degree(u) for u in range(g.n))
    if k == 3:
        return Fraction(2, 3) if max_deg >= 2 else Fraction(1, 2)
    adj = g.to_bool_matrix()
    check_budget(0)
    # Exact in float32: every entry and partial sum is an integer <= n <=
    # VERTEX_CAP < 2^24, whatever order BLAS sums in (numpy's int matmul has no BLAS).
    a = adj.astype(np.float32)
    common = a @ a
    check_budget(0)
    on_edges = common[adj]  # common neighbours of each adjacent pair
    if (on_edges >= 2).any():
        return Fraction(5, 4)  # diamond: with no K4 the two common neighbours are apart
    if (on_edges >= 1).any() or np.triu(common >= 2, 1).any():
        return Fraction(1)  # triangle or 4-cycle
    if max_deg >= 3:
        return Fraction(3, 4)  # star on 4 vertices
    inner = adj.sum(axis=1) >= 2
    if adj[np.ix_(inner, inner)].any():
        return Fraction(3, 4)  # path on 4 vertices (no triangle/C4 here)
    if max_deg >= 2:
        return Fraction(2, 3)
    return Fraction(1, 2)


def den_leq_k(g: Graph, k: int) -> Fraction:
    """Exact max over non-empty S, |S| <= k, of |E[S]| / |S|.

    |E[S]|/|S| <= (|S| - 1)/2 <= (k - 1)/2, with equality only for a k-clique,
    so a first k-clique from the clique search settles the value.
    """
    if not 1 <= k:
        raise ValueError("k must be positive")
    k = min(k, g.n)
    if k == 0:
        raise ValueError("graph is empty")
    with budget(None, "density search"):
        clique = _clique_above(g.rows, (1 << g.n) - 1, k - 1, True)
        if clique:
            assert len(clique) == k and g.is_clique(clique)
            return Fraction(k - 1, 2)
        if k <= 4:
            return _den_leq4_closed_form(g, k)
        value = Fraction(0)
        for s in range(1, k + 1):
            # only a set with more than value * s edges beats value at size s
            found = _most_edges(g.rows, g.n, s, math.floor(value * s), False)
            if found is not None:
                assert g.induced(found[0]).m == found[1]
                value = Fraction(found[1], s)
    return value


# -- bicliques -------------------------------------------------------------------


def is_biclique(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """Disjoint sides, every cross pair adjacent."""
    sa, sb = set(a), set(b)
    if sa & sb:
        return False
    return all(g.has_edge(u, v) for u in sa for v in sb)


def _biclique_sides(
    rows: Sequence[int], t: int, visit: Callable[[tuple[int, ...], int], Any]
) -> Any:
    """Call visit(side, common) on each t-set side of range(len(rows)) that
    has at least t common neighbors, in lex order, with the bitmask common of
    them.  Stop at the first true value visit returns, and return it."""
    n = len(rows)
    chosen: list[int] = []

    def node(common: int, start: int):
        if len(chosen) == t:
            return visit(tuple(chosen), common)
        for v in range(start, n - t + len(chosen) + 1):  # room for the rest of the side
            nxt = common & rows[v]
            # the common set only shrinks along a branch
            if nxt.bit_count() < t:
                continue
            chosen.append(v)
            found = yield nxt, v + 1
            if found:
                return found
            chosen.pop()

    return _search(node, (1 << n) - 1, 0)


def _find_balanced_biclique(g: Graph, t: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Lex-least side A of size t with |common(A)| >= t, B = least t common."""
    return _biclique_sides(g.rows, t, lambda side, common: (side, tuple(_bits(common)[:t])))


def max_balanced_biclique(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Largest (A, B) with |A| = |B|, disjoint, all cross pairs adjacent.

    Sides need not be independent sets.  The first maximum in ascending
    include-first order is returned, which makes A the lex-least side.
    """
    best: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    with budget(None, "biclique side enumeration"):
        for t in range(1, g.n // 2 + 1):
            found = _find_balanced_biclique(g, t)
            if found is None:
                break
            best = found
    assert is_biclique(g, best[0], best[1])
    assert len(best[0]) == len(best[1])
    return best


def count_bicliques(g: Graph, ell: int) -> int:
    """Sum over ell-subsets S of C(|common neighborhood of S|, ell).

    This is the ordered-pair biclique count: (S, T) and (T, S) are distinct.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if ell > g.n:
        return 0
    counts: list[int] = []  # visit appends, so returns None and never stops
    with budget(None, "biclique side enumeration"):
        _biclique_sides(g.rows, ell, lambda _, c: counts.append(math.comb(c.bit_count(), ell)))
    return sum(counts)


def contains_ktt(g: Graph, t: int) -> bool:
    """True iff some t-set has at least t common neighbors (subgraph K_{t,t})."""
    if t < 1:
        raise ValueError("t must be positive")
    if 2 * t > g.n:
        return False
    with budget(None, "biclique side enumeration"):
        return _find_balanced_biclique(g, t) is not None


# -- smallest k-edge subgraph ------------------------------------------------------


def smallest_k_edge_subgraph(g: Graph, k: int) -> tuple[int, ...]:
    """Minimum-cardinality S inducing at least k edges, lex-least at that size."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return ()
    if g.m < k:
        raise InfeasibleError(f"graph has {g.m} < {k} edges")
    lo = 2
    while math.comb(lo, 2) < k:
        lo += 1
    with budget(None, "subset search"):
        for size in range(lo, g.n + 1):
            found = _most_edges(g.rows, g.n, size, k - 1, True)
            if found is not None:
                assert g.induced(found[0]).m >= k
                return found[0]
    raise InfeasibleError("unreachable: whole vertex set must induce >= k edges")


# -- Steiner k-forest -----------------------------------------------------------


def _demand_pairs(
    n: int, demands: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """The demands as int pairs, or a ValueError if one leaves range(n)."""
    norm = []
    for s, t in demands:
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"demand ({s}, {t}) out of range")
        norm.append((int(s), int(t)))
    return tuple(norm)


@dataclass(frozen=True)
class SteinerForestInstance:
    """Edge-weighted graph with demand pairs; connect at least k of them."""

    graph: Graph
    weights: tuple[Fraction, ...]  # aligned with graph.edges()
    demands: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self) -> None:
        edges = self.graph.edges()
        if len(self.weights) != len(edges):
            raise ValueError("need exactly one weight per edge")
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "demands", _demand_pairs(self.graph.n, self.demands))
        if not 0 <= self.k <= len(self.demands):
            raise ValueError(f"need 0 <= k <= {len(self.demands)}")


def satisfied_demands(
    n: int, edges: Iterable[tuple[int, int]], demands: Sequence[tuple[int, int]]
) -> int:
    """Number of demands (s, t) whose ends the edges on range(n) connect.

    Each vertex holds its component as a bitmask; an edge between two
    components writes their union to every member.
    """
    comp = [1 << v for v in range(n)]
    for u, v in edges:
        if not comp[u] >> v & 1:
            union = rest = comp[u] | comp[v]
            while rest:
                low = rest & -rest
                rest ^= low
                comp[low.bit_length() - 1] = union
    return sum(1 for s, t in demands if comp[s] >> t & 1)


def _cheapest_cover(
    weights: Sequence[Fraction],
    covers: Callable[[list[int]], bool],
    lower_bound: Callable[[list[int], int], Fraction | None],
) -> tuple[tuple[int, ...], Fraction] | None:
    """Cheapest set of item indices whose items cover; None if no set covers.

    Ties: minimum cost, then fewest items, then lex-least index tuple.  Item i
    costs weights[i] >= 0, and covers(items) must hold for every superset of a
    covering set.  lower_bound(chosen, idx) bounds the cost still owed by any
    cover made of chosen plus items from idx on, or is None when none exists.
    Ascending include-first branch-and-bound that accepts strict improvements
    only, and stops a branch at its first cover.
    """
    m = len(weights)
    best: tuple[tuple[int, ...], Fraction] | None = None
    chosen: list[int] = []

    def node(idx: int, cost: Fraction):
        nonlocal best
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
        yield idx + 1, cost + weights[idx]
        chosen.pop()
        yield idx + 1, cost

    _search(node, 0, Fraction(0))
    return best


def steiner_k_forest(
    inst: SteinerForestInstance,
) -> tuple[tuple[tuple[int, int], ...], Fraction]:
    """Cheapest edge set connecting at least k demand pairs, with
    _cheapest_cover's tie rule over the sorted edges."""
    if inst.k == 0:
        return (), Fraction(0)
    edges = inst.graph.edges()
    n = inst.graph.n
    if satisfied_demands(n, edges, inst.demands) < inst.k:
        raise InfeasibleError(
            f"even the full graph connects fewer than {inst.k} demand pairs"
        )

    def covers(items: list[int]) -> bool:
        return satisfied_demands(n, (edges[i] for i in items), inst.demands) >= inst.k

    with budget(None, "edge subset search"):
        found = _cheapest_cover(inst.weights, covers, lambda chosen, idx: 0)
    assert found is not None
    best_set, best_cost = tuple(edges[i] for i in found[0]), found[1]
    assert satisfied_demands(n, best_set, inst.demands) >= inst.k
    weight = dict(zip(edges, inst.weights))
    assert sum((weight[e] for e in best_set), Fraction(0)) == best_cost
    return best_set, best_cost


# -- directed Steiner network ------------------------------------------------------


@dataclass(frozen=True)
class DsnInstance:
    """Arc-weighted digraph with ordered reachability demands, all required."""

    digraph: WeightedDigraph
    demands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", _demand_pairs(self.digraph.n, self.demands))


def _out_masks(n: int, arcs: Iterable[tuple[int, int]]) -> list[int]:
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return out


def _bfs_parents(out: Sequence[int], src: int) -> dict[int, int]:
    """Parent of each vertex reachable from src (src's is -1), set when a
    breadth-first search over the out-masks, lowest vertex first, first
    finds it."""
    parent = {src: -1}
    seen = 1 << src
    queue = [src]
    for u in queue:  # the loop reaches what it appends
        new = out[u] & ~seen
        seen |= new
        while new:
            low = new & -new
            new ^= low
            v = low.bit_length() - 1
            parent[v] = u
            queue.append(v)
    return parent


def _reach(out: Sequence[int], src: int) -> int:
    """Mask of the vertices reachable from src over the out-masks."""
    seen = frontier = 1 << src
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            step |= out[low.bit_length() - 1]
        frontier = step & ~seen
        seen |= frontier
    return seen


def _arcs_satisfy(n: int, arcs: Iterable[tuple[int, int]], demands) -> bool:
    out = _out_masks(n, arcs)
    reached: dict[int, int] = {}
    for s, t in demands:
        if s not in reached:
            reached[s] = _reach(out, s)
        if not reached[s] >> t & 1:
            return False
    return True


def directed_steiner_network(
    inst: DsnInstance,
) -> tuple[tuple[tuple[int, int], ...], Fraction]:
    """Cheapest arc set making every t_i reachable from its s_i.

    Zero-weight arcs are free and thus always available to the search; the
    branch-and-bound runs over positive-weight arcs only, with
    _cheapest_cover's tie rule over them in sorted order.  The returned arc
    set is the chosen positive arcs plus one witness path per demand: the
    breadth-first path over the usable arcs, ascending neighbours first.
    """
    d = inst.digraph
    n = d.n
    zero = [(u, v) for u, v, w in d.arcs() if w == 0]
    pos = [(u, v, w) for u, v, w in d.arcs() if w > 0]
    paid = [(u, v) for u, v, _ in pos]
    if not _arcs_satisfy(n, [(u, v) for u, v, _ in d.arcs()], inst.demands):
        raise InfeasibleError("some demand is unreachable even in the full digraph")

    sources = {s for s, t in inst.demands if s != t}
    sinks = {t for s, t in inst.demands if s != t}
    # The per-endpoint lower bound sums a cheapest outgoing arc for each
    # source and a cheapest incoming arc for each sink; that is only sound
    # when no single paid arc can serve both sides at once.
    direct = any(u in sources and v in sinks for u, v, _ in pos)
    # (the end of an arc that serves a terminal, the terminals, the
    # terminals a zero arc already serves): tail for sources, head for sinks
    sides = ((0, sources, {u for u, _ in zero}), (1, sinks, {v for _, v in zero}))

    def lower_bound(chosen: list[int], idx: int) -> Fraction | None:
        need = []
        for end, terminals, free in sides:
            have = free | {pos[i][end] for i in chosen}
            owed = Fraction(0)
            for x in terminals:
                if x in have:
                    continue
                opts = [pos[i][2] for i in range(idx, len(pos)) if pos[i][end] == x]
                if not opts:
                    return None  # dead branch
                owed += min(opts)
            need.append(owed)
        return max(need) if direct else sum(need)

    with budget(None, "arc subset search"):
        found = _cheapest_cover(
            [w for _, _, w in pos],
            lambda items: _arcs_satisfy(n, zero + [paid[i] for i in items], inst.demands),
            lower_bound,
        )
    assert found is not None
    best_chosen, best_cost = found
    chosen_arcs = {paid[i] for i in best_chosen}
    out = _out_masks(n, set(zero) | chosen_arcs)
    witness: set[tuple[int, int]] = set()
    for s, t in inst.demands:
        parent = _bfs_parents(out, s)
        cur = t
        while parent[cur] != -1:
            witness.add((parent[cur], cur))
            cur = parent[cur]
    solution = tuple(sorted(chosen_arcs | witness))
    assert _arcs_satisfy(n, solution, inst.demands)
    recost = sum((d.weight(u, v) for u, v in solution), Fraction(0))
    assert recost == best_cost
    return solution, best_cost


# -- densest k-subhypergraph ---------------------------------------------------------


def densest_k_subhypergraph(
    h: Hypergraph, k: int
) -> tuple[tuple[int, ...], int]:
    """k-subset containing the most hyperedges entirely; lex-least witness."""
    if not 1 <= k <= h.n:
        raise ValueError(f"need 1 <= k <= {h.n}, got {k}")
    small = [sum(1 << v for v in e) for e in h.edges if len(e) <= k]  # distinct vertices
    best_set: tuple[int, ...] | None = None
    best_count = -1
    chosen: list[int] = []

    def node(mask: int, start: int):
        nonlocal best_set, best_count
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
        for v in range(start, h.n - r + 1):
            chosen.append(v)
            yield mask | (1 << v), v + 1
            chosen.pop()

    with budget(None, "k-subset search"):
        _search(node, 0, 0)
    assert best_set is not None
    recount = len(h.edges_inside(best_set))
    assert recount == best_count
    return best_set, best_count


# -- pattern detection -----------------------------------------------------------


def detect_pattern(g: Graph, h: Graph, induced: bool) -> tuple[int, ...] | None:
    """Injective map from h's vertices into g witnessing a copy of h.

    Non-induced: h-edges must map to g-edges.  Induced: h-non-edges must map
    to g-non-edges as well.  Returns the mapping as a tuple indexed by h's
    vertices, or None when no copy exists.  An overrun of the deadline of an
    enclosing budget scope raises PatternSearchTimeout instead of returning
    None: absence was not established.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    # static order: h-vertices by descending degree, index as tie-break
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    rows = g.rows
    image = [0] * h.n  # of each h-vertex placed so far

    def node(depth: int, free: int):
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
            if (yield depth + 1, free ^ low):
                return True
        return False

    try:
        with budget(None, "pattern search"):
            found = _search(node, 0, (1 << g.n) - 1)
    except BudgetExceeded as exc:
        raise PatternSearchTimeout(f"{exc}; absence was NOT established") from None
    if not found:
        return None
    mapping = tuple(image)
    assert len(set(mapping)) == h.n
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if h.has_edge(u, v):
                assert g.has_edge(mapping[u], mapping[v])
            elif induced:
                assert not g.has_edge(mapping[u], mapping[v])
    return mapping
