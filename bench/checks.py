"""Output checks, computed apart from the program.

Instances are regenerated here from the documented sampling scheme (PCG64
seeded by SeedSequence over (seed, blake2s(tag)[:8], index)) without calling
cliquelab, then the program's answers are compared against plain-Python,
networkx and scipy computations on them.  Each check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.stats import beta

import workloads as wl


def _stream(seed: int, tag: str, index: int) -> np.random.Generator:
    key = int.from_bytes(hashlib.blake2s(tag.encode()).digest()[:8], "big")
    sequence = np.random.SeedSequence([seed, key, index])
    return np.random.Generator(np.random.PCG64(sequence))


def source_neighbors(n: int, seed: int, index: int, kappa: int | None) -> list[set[int]]:
    """G(n, 1/2), with a clique on the planted kappa-subset when kappa is set."""
    us, vs = np.triu_indices(n, 1)
    keep = _stream(seed, "er", index).random(len(us)) < 0.5
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(us[keep].tolist(), vs[keep].tolist()):
        nbrs[u].add(v)
        nbrs[v].add(u)
    if kappa is not None:
        clique = planted_clique(n, kappa, seed, index)
        for u in clique:
            nbrs[u].update(v for v in clique if v != u)
    return nbrs


def planted_clique(n: int, kappa: int, seed: int, index: int) -> tuple[int, ...]:
    rng = _stream(seed, "planted-clique", index)
    order = list(range(n))
    for i in range(kappa):
        j = i + int(rng.integers(0, n - i))
        order[i], order[j] = order[j], order[i]
    return tuple(sorted(order[:kappa]))


def family(n: int, N: int, ell: int, seed: int, index: int) -> list[tuple[int, ...]]:
    draws = _stream(seed, "rgp-family", index).integers(0, n, size=(N, ell))
    return [tuple(sorted(set(row))) for row in draws.tolist()]


def literal_product_edges(
    nbrs: list[set[int]], sets: list[tuple[int, ...]]
) -> list[tuple[int, int]]:
    """Pairs i < j whose union of sets is a clique in the source.

    Vertex sets are bitmasks; a union U is a clique when U lies inside the
    closed neighbourhood of each of its members.  A set that is no clique
    itself has no clique union, so it is skipped up front.
    """
    closed = [sum(1 << v for v in vs) | 1 << u for u, vs in enumerate(nbrs)]
    masks = [sum(1 << u for u in s) for s in sets]

    def is_clique(mask: int, members: tuple[int, ...]) -> bool:
        return all(closed[u] & mask == mask for u in members)

    alive = [i for i, s in enumerate(sets) if is_clique(masks[i], s)]
    edges = []
    for a, i in enumerate(alive):
        for j in alive[a + 1 :]:
            if is_clique(masks[i] | masks[j], sets[i] + sets[j]):
                edges.append((i, j))
    return edges


def omega_via_source(nbrs: list[set[int]], sets: list[tuple[int, ...]]) -> int:
    """Clique number of the product, from the source's maximal cliques.

    Indices whose sets lie inside one source clique are pairwise adjacent,
    and the sets of a product clique of size >= 2 have a union that is a
    source clique, so omega is the most sets inside one maximal clique.
    """
    source = nx.Graph()
    source.add_nodes_from(range(len(nbrs)))
    source.add_edges_from((u, v) for u, vs in enumerate(nbrs) for v in vs if u < v)
    masks = np.array([sum(1 << u for u in s) for s in sets], dtype=np.uint64)
    best = 1
    for clique in nx.find_cliques(source):
        outside = np.uint64(~sum(1 << u for u in clique) & (2**64 - 1))
        best = max(best, int(np.count_nonzero((masks & outside) == 0)))
    return best


def read_graph(path: str) -> tuple[int, set[tuple[int, int]], dict[str, str]]:
    """(n, edges, meta) of a graph text file, parsed here from the format."""
    meta: dict[str, str] = {}
    edges: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta.setdefault(key.strip(), value.strip())
            elif line.strip():
                u, v = map(int, line.split())
                edges.add((u, v))
    if header[0] != "g" or int(header[2]) != len(edges):
        return -1, edges, meta
    return int(header[1]), edges, meta


def read_family(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()[1:] if ln and not ln.startswith("#")]
    return [tuple(map(int, ln.split())) for ln in lines]


def _load(keep: str, key: str, name: str) -> dict:
    with open(os.path.join(keep, key, name), encoding="utf-8") as fh:
        return json.load(fh)


# -- soundness -------------------------------------------------------------------

DEN_BELOW_K4 = {"0", "1/2", "2/3", "3/4", "1", "5/4"}


def check_soundness(seed: int, keep: str, keys: set[str]) -> list[str]:
    problems = []
    n, N = wl.SOUNDNESS_N, wl.SOUNDNESS_PRODUCT_N
    for arm in sorted(keys):
        report = _load(keep, arm, f"soundness-{arm}.json")
        if report["verdict"] != "pass":
            problems.append(f"soundness {arm}: verdict {report['verdict']}")
        if [t["trial"] for t in report["trials"]] != list(range(wl.SOUNDNESS_TRIALS)):
            problems.append(f"soundness {arm}: trial indices {len(report['trials'])}")
        kappa = wl.SOUNDNESS_KAPPA if arm == "planted" else None
        for t in report["trials"]:
            where = f"soundness {arm} trial {t['trial']}"
            nbrs = source_neighbors(n, seed, t["trial"], kappa)
            edges = literal_product_edges(nbrs, family(n, N, 2, seed, t["trial"]))
            if t["product_edges"] != len(edges):
                problems.append(
                    f"{where}: {t['product_edges']} edges, the rule gives {len(edges)}"
                )
            if not (t["edge_rule_ok"] and t["implied_contained"]):
                problems.append(f"{where}: structure flags {t}")
            if t["pairs_checked"] != N * (N - 1) // 2:
                problems.append(f"{where}: pairs_checked {t['pairs_checked']}")
            product = nx.Graph(edges)
            has_k4 = any(len(c) >= 4 for c in nx.find_cliques(product))
            den = t["den_leq_k"]
            if has_k4 != (den == "3/2") or not (has_k4 or den in DEN_BELOW_K4):
                problems.append(f"{where}: den_leq_k {den} with K4 {has_k4}")
    return problems


# -- completeness ------------------------------------------------------------------


def binomial_cdf(trials: int, hits: int, p: Fraction) -> Fraction:
    """P[Bin(trials, p) <= hits] as one minus the exact upper tail."""
    q = 1 - p
    tail = range(hits + 1, trials + 1)
    terms = (math.comb(trials, i) * p**i * q ** (trials - i) for i in tail)
    return 1 - sum(terms, Fraction(0))


def clopper_pearson(hits: int, trials: int, conf: float = 0.99) -> tuple[float, float]:
    alpha = (1 - conf) / 2
    low = float(beta.ppf(alpha, hits, trials - hits + 1)) if hits > 0 else 0.0
    high = float(beta.ppf(1 - alpha, hits + 1, trials - hits)) if hits < trials else 1.0
    return low, high


def check_completeness(seed: int, keep: str, keys: set[str]) -> list[str]:
    problems = []
    n, N, k = wl.COMPLETENESS_N, wl.COMPLETENESS_PRODUCT_N, wl.COMPLETENESS_K
    trials = wl.COMPLETENESS_TRIALS
    kappa = math.isqrt(n - 1) + 1  # ceil(n ** (1/2)) for n > 1
    report = _load(keep, "completeness", "completeness.json")
    if [t["trial"] for t in report["trials"]] != list(range(trials)):
        problems.append("completeness: trial indices")
    hits = 0
    for t in report["trials"]:
        clique = set(planted_clique(n, kappa, seed, t["trial"]))
        sets = family(n, N, 2, seed, t["trial"])
        witnesses = sum(1 for s in sets if clique.issuperset(s))
        hits += witnesses >= k
        if (t["witness_count"], t["success"]) != (witnesses, witnesses >= k):
            problems.append(f"completeness: {t}, but {witnesses} witnesses")
        if not t["witness_union_is_clique"]:
            problems.append(f"completeness: {t}, yet the planted clique holds the union")
    agg = report["aggregates"]
    if agg["hits"] != hits or report["config"]["kappa"] != kappa:
        problems.append(f"completeness: hits {agg['hits']} vs {hits}")
    # N * kappa^ell >= 10 k n^ell holds at these parameters, so the rate is tested
    if not agg["in_regime"] or report["verdict"] != "pass":
        problems.append(f"completeness: verdict {report['verdict']}")
    if Fraction(agg["p_value"]) != binomial_cdf(trials, hits, Fraction(9, 10)):
        problems.append(f"completeness: p_value {agg['p_value']}")
    low, high = clopper_pearson(hits, trials)
    if abs(agg["ci99_low"] - low) > 1e-9 or abs(agg["ci99_high"] - high) > 1e-9:
        problems.append(
            f"completeness: ci99 {agg['ci99_low']}, {agg['ci99_high']} vs {low}, {high}"
        )
    return problems


# -- clique-gap --------------------------------------------------------------------


def check_clique_gap(seed: int, keep: str, keys: set[str]) -> list[str]:
    """Every trial: sources, families, solved cliques and omega by the identity.

    The first trial also gets networkx's clique number of each product file,
    searched inside the omega-core: a clique larger than omega would have all
    its vertices of degree at least omega.
    """
    problems = []
    n, N = wl.GAP_N, wl.GAP_PRODUCT_N
    for index in range(wl.GAP_TRIALS_PER_ROUND):
        key = f"trial-{index}"
        if key not in keys:
            continue
        for arm in wl.ARMS:
            where = f"clique-gap {key} {arm}"
            paths = {
                name: os.path.join(keep, key, os.path.basename(p))
                for name, p in wl.gap_paths(arm).items()
            }
            kappa = wl.GAP_KAPPA if arm == "planted" else None
            nbrs = source_neighbors(n, seed, index, kappa)
            sn, source_edges, meta = read_graph(paths["source"])
            expected = {(u, v) for u, vs in enumerate(nbrs) for v in vs if u < v}
            if sn != n or source_edges != expected:
                problems.append(f"{where}: source graph differs from G(n, 1/2)")
            sets = family(n, N, 2, seed, index)
            if read_family(paths["family"]) != sets:
                problems.append(f"{where}: family differs")
            pn, product_edges, _ = read_graph(paths["product"])
            with open(paths["clique"], encoding="utf-8") as fh:
                solution = json.load(fh)["solution"]
            omega = len(set(solution))
            members = sorted(set(solution))
            pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
            if pn != N or not all(pair in product_edges for pair in pairs):
                problems.append(f"{where}: solution is not a clique of the product")
            reference = omega_via_source(nbrs, sets)
            if len(solution) != reference:
                problems.append(f"{where}: omega {len(solution)}, expected {reference}")
            if kappa is not None:
                clique = planted_clique(n, kappa, seed, index)
                inside = sum(1 for s in sets if set(s) <= set(clique))
                if meta.get("clique") != " ".join(map(str, clique)) or omega < inside:
                    problems.append(f"{where}: omega {omega} below {inside} planted sets")
            if index == 0:
                core = nx.k_core(nx.Graph(product_edges), omega)
                larger = max((len(c) for c in nx.find_cliques(core)), default=0)
                if larger > omega:
                    problems.append(f"{where}: networkx finds a clique of size {larger}")
    return problems


CHECKS = {
    "soundness": check_soundness,
    "completeness": check_completeness,
    "clique-gap": check_clique_gap,
}
