"""Desk-scale lemma checks: Monte Carlo harnesses emitting machine reports.

Verdict policy: deterministic sub-claims must hold on every trial; any miss
is "invariant-fail".  Stated probabilities are tested one-sided: a run is
"statistical-fail" only when the exact binomial tail P[Bin(T, p0) <= hits]
drops to 0.01 or below, i.e. the observed rate refutes p0 at the 1% level.
Everything in a report is reproducible from (config, seed).
"""

from __future__ import annotations

import contextvars
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .ensembles import (
    GENERATOR_ID,
    Seed,
    _er_matrix,
    as_fraction,
    as_seed,
    planted_kappa,
    sample_er,
    sample_planted,
    uniform_subset,
)
from .exactmath import binom_cdf
from .graph import Graph
from .oracles import contains_ktt, count_bicliques, den_leq_k, densest_k_subgraph
from .reductions import averaging_floor, lemma44_bound
from .rgp import (
    check_disperser,
    check_edge_rule,
    implied_edges,
    rgp,
    sample_family,
)

PASS = "pass"
STATISTICAL_FAIL = "statistical-fail"
INVARIANT_FAIL = "invariant-fail"
DIAGNOSTIC = "diagnostic"

P_VALUE_FLOOR = Fraction(1, 100)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


@dataclass(frozen=True)
class TrialReport:
    lemma: str
    config: dict[str, Any]
    trials: tuple[dict[str, Any], ...]
    aggregates: dict[str, Any]
    verdict: str

    def __post_init__(self) -> None:
        if len(self.trials) != self.config.get("trials", len(self.trials)):
            raise ValueError("trial record count disagrees with config")
        rate = self.aggregates.get("success_rate")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ValueError(f"success rate {rate} outside [0, 1]")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "lemma": self.lemma,
            "config": _jsonable(self.config),
            "aggregates": _jsonable(self.aggregates),
            "verdict": self.verdict,
            "trials": _jsonable(list(self.trials)),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        """One row per trial; columns are the union of trial-record keys.

        The run-wide verdict is repeated on every row so that merged CSVs
        stay self-describing.
        """
        keys = sorted({k for t in self.trials for k in t})
        header = ["lemma", "verdict"] + keys
        rows = []
        for t in self.trials:
            rows.append(
                [self.lemma, self.verdict]
                + ["" if k not in t else str(_jsonable(t[k])) for k in keys]
            )
        return header, rows


def exact_tail_p_value(trials: int, hits: int, p0: Fraction) -> Fraction:
    """P[Bin(trials, p0) <= hits], the one-sided evidence against rate >= p0."""
    return binom_cdf(trials, hits, p0)


def rate_verdict(trials: int, hits: int, p0: Fraction) -> tuple[str, Fraction]:
    p_value = exact_tail_p_value(trials, hits, p0)
    return (PASS if p_value > P_VALUE_FLOOR else STATISTICAL_FAIL), p_value


def clopper_pearson(hits: int, trials: int, conf: float = 0.99) -> tuple[float, float]:
    """Exact binomial confidence interval, bisected on the rational tail."""
    if trials == 0:
        return 0.0, 1.0
    alpha = (1.0 - conf) / 2.0

    def search(target: Callable[[Fraction], bool]) -> float:
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            if target(mid):
                lo = mid
            else:
                hi = mid
        return float(lo)

    lower = 0.0
    if hits > 0:
        # largest p with P[X >= hits] <= alpha, i.e. 1 - cdf(hits-1) <= alpha
        lower = search(lambda p: 1 - binom_cdf(trials, hits - 1, p) <= alpha)
    upper = 1.0
    if hits < trials:
        upper = 1.0 - search(
            lambda q: 1 - binom_cdf(trials, trials - hits - 1, q) <= alpha
        )
    return lower, upper


def _run_trials(
    trials: int, worker: Callable[[int], dict[str, Any]], threads: int
) -> tuple[dict[str, Any], ...]:
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    if threads <= 1:
        return tuple(worker(i) for i in range(trials))
    # a pool thread starts with an empty context: hand each trial the
    # caller's, so an enclosing budget scope binds its searches too
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, worker, i) for i in range(trials)
        ]
        return tuple(f.result() for f in futures)


def _report(
    lemma: str,
    seed: Seed,
    records: tuple[dict[str, Any], ...],
    aggregates: dict[str, Any],
    verdict: str,
    **params,
) -> TrialReport:
    """The lemma's report; its config is the run's identity, then params."""
    config = {
        "lemma": lemma,
        "seed": seed.value,
        "trials": len(records),
        "generator": GENERATOR_ID,
        "version": __version__,
        **params,
    }
    return TrialReport(lemma, config, records, aggregates, verdict)


def _rate_claim(
    records: tuple[dict[str, Any], ...], p0: Fraction
) -> tuple[str, dict[str, Any]]:
    """The verdict on a stated success rate p0, and the rate's aggregates."""
    trials = len(records)
    hits = sum(1 for r in records if r["success"])
    verdict, p_value = rate_verdict(trials, hits, p0)
    lo, hi = clopper_pearson(hits, trials)
    return verdict, {
        "success_rate": hits / trials,
        "hits": hits,
        "threshold": str(p0),
        "p_value": str(p_value),
        "ci99_low": lo,
        "ci99_high": hi,
    }


# -- completeness: the planted clique survives the product ------------------------


def verify_completeness(
    n: int,
    delta,
    ell: int,
    N: int,
    k: int,
    trials: int,
    seed: int | Seed,
    threads: int = 1,
) -> TrialReport:
    """Indices whose subsets sit inside the planted clique witness a k-clique.

    Those indices are pairwise adjacent by the edge rule, so the product
    contains a k-clique as soon as there are k of them; each trial counts
    them.  Runs in diagnostic mode (no threshold) when N is below the
    10 k (n/kappa)^ell regime the claim is stated for.
    """
    seed = as_seed(seed)
    delta = as_fraction(delta)
    kappa = planted_kappa(n, delta)
    # N >= 10 k (n/kappa)^ell, compared exactly in integers
    in_regime = N * kappa**ell >= 10 * k * n**ell

    def worker(i: int) -> dict[str, Any]:
        inst = sample_planted(n, 0.5, kappa, seed, index=i)
        fam = sample_family(n, N, ell, seed, index=i)
        inside = np.zeros(n, dtype=bool)
        inside[list(inst.clique)] = True
        witnesses = inside[fam.draws].all(axis=1)
        count = int(np.count_nonzero(witnesses))
        # the witnesses' unions stay inside the planted clique, which the
        # source graph holds as an actual clique; that is the whole argument
        covered = np.zeros(n, dtype=bool)
        covered[fam.draws[witnesses]] = True
        union = np.flatnonzero(covered).tolist()
        witness_clique = inst.graph.is_clique(union) if union else True
        return {
            "trial": i,
            "witness_count": count,
            "success": count >= k,
            "witness_union_is_clique": witness_clique,
        }

    records = _run_trials(trials, worker, threads)
    verdict, aggregates = _rate_claim(records, Fraction(9, 10))
    if not all(r["witness_union_is_clique"] for r in records):
        verdict, aggregates["p_value"] = INVARIANT_FAIL, "0"
    elif not in_regime:
        verdict, aggregates["p_value"] = DIAGNOSTIC, "1"
    aggregates["in_regime"] = in_regime
    aggregates["mean_witness_count"] = sum(r["witness_count"] for r in records) / trials
    return _report(
        "completeness", seed, records, aggregates, verdict,
        n=n, delta=str(delta), ell=ell, N=N, k=k, kappa=kappa,
    )


# -- soundness structure: edge rule, implied edges, null densities -----------------


def verify_soundness_structure(
    n: int,
    ell: int,
    N: int,
    k: int,
    trials: int,
    seed: int | Seed,
    kappa: int | None = None,
    j_samples: int = 20,
    j_size: int = 6,
    threads: int = 1,
) -> TrialReport:
    """Deterministic product structure plus den_{<=k} statistics.

    Per trial: every product edge decision is re-derived independently; for
    sampled index sets J the edges forced by the product restricted to J all
    exist in the source; den_{<=k} of the product is recorded.  With kappa
    set, sources are planted instances instead of G(n, 1/2) nulls, giving the
    comparison arm at identical parameters.
    """
    # with no J, or a J of one index, the containment claim would hold vacuously
    if j_samples < 1 or j_size < 2:
        raise ValueError(
            f"need j_samples >= 1 and j_size >= 2, got {j_samples} and {j_size}"
        )
    seed = as_seed(seed)

    def worker(i: int) -> dict[str, Any]:
        if kappa is None:
            g = sample_er(n, 0.5, seed, index=i)
        else:
            g = sample_planted(n, 0.5, kappa, seed, index=i).graph
        product, fam = rgp(g, N, ell, seed, index=i)
        edge_report = check_edge_rule(g, fam, product)
        rng = seed.stream("soundness-j", i)
        contained = True
        for _ in range(j_samples):
            J = uniform_subset(N, min(j_size, N), rng)
            sub_edges = [(a, b) for a, b in combinations(J, 2) if product.has_edge(a, b)]
            implied = implied_edges(fam, sub_edges)
            contained &= all(g.has_edge(u, v) for u, v in implied)
        den = den_leq_k(product, k)
        return {
            "trial": i,
            "edge_rule_ok": edge_report.ok,
            "pairs_checked": edge_report.pairs_checked,
            "implied_contained": contained,
            "den_leq_k": den,
            "den_leq_k_float": float(den),
            "product_edges": product.m,
        }

    records = _run_trials(trials, worker, threads)
    ok = all(r["edge_rule_ok"] and r["implied_contained"] for r in records)
    mean_den = sum((r["den_leq_k"] for r in records), Fraction(0)) / trials
    float_dens = [r["den_leq_k_float"] for r in records]
    aggregates = {
        "success_rate": 1.0 if ok else 0.0,
        "mean_den_leq_k": str(mean_den),
        "mean_den_leq_k_float": float(mean_den),
        "min_den_leq_k_float": min(float_dens),
        "max_den_leq_k_float": max(float_dens),
        "mean_product_edges": sum(r["product_edges"] for r in records) / trials,
    }
    return _report(
        "soundness-structure", seed, records, aggregates,
        PASS if ok else INVARIANT_FAIL,
        n=n, ell=ell, N=N, k=k, kappa=kappa, j_samples=j_samples, j_size=j_size,
    )


def den_mean_confidence(
    report: TrialReport, conf: float = 0.99
) -> tuple[float, float]:
    """Normal-theory CI for the mean recorded den_{<=k}; comparison aid."""
    values = [r["den_leq_k_float"] for r in report.trials]
    t = len(values)
    if t < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    mean = sum(values) / t
    var = sum((v - mean) ** 2 for v in values) / (t - 1)
    radius = 2.5758 * math.sqrt(var / t)  # two-sided 99% normal quantile
    return mean - radius, mean + radius


# -- disperser ---------------------------------------------------------------------


def verify_disperser(
    n: int,
    ell: int,
    N: int,
    delta,
    max_set_size: int,
    trials: int,
    seed: int | Seed,
    mode: str = "exhaustive",
    samples: int = 1000,
    threads: int = 1,
) -> TrialReport:
    """Families are dispersing: small index sets cover many source vertices."""
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    seed = as_seed(seed)
    delta = as_fraction(delta)

    def worker(i: int) -> dict[str, Any]:
        fam = sample_family(n, N, ell, seed, index=i)
        rep = check_disperser(
            fam, delta, max_set_size, mode=mode, samples=samples, seed=seed, index=i
        )
        return {
            "trial": i,
            "success": rep.ok,
            "violations": rep.violation_count,
            "worst_ratio": rep.worst_ratio,
            "worst_ratio_float": float(rep.worst_ratio)
            if rep.worst_ratio is not None
            else None,
            "nodes_visited": rep.nodes_visited,
        }

    records = _run_trials(trials, worker, threads)
    verdict, aggregates = _rate_claim(records, Fraction(95, 100))
    worst = min(
        (r["worst_ratio"] for r in records if r["worst_ratio"] is not None),
        default=None,
    )
    aggregates["worst_ratio"] = str(worst) if worst is not None else None
    return _report(
        "disperser", seed, records, aggregates, verdict,
        n=n, ell=ell, N=N, delta=str(delta), max_set_size=max_set_size,
        mode=mode, samples=samples,
    )


# -- the K_{t,t} counting bound ------------------------------------------------------


def verify_lemma44(
    kappa: int,
    t: int,
    ell: int,
    trials: int,
    seed: int | Seed,
    max_retries: int = 60,
    graphs: Sequence[Graph] | None = None,
    threads: int = 1,
) -> TrialReport:
    """K_{t,t}-free graphs never exceed the biclique-count bound.

    Random mode rejection-samples G(kappa, p) with p tuned so the expected
    number of K_{t,t} placements is below 1/2, then certifies freeness with
    the oracle before testing the inequality.  The inequality is
    unconditional for verified-free graphs: one violation fails the suite.
    """
    seed = as_seed(seed)
    if not 0 < ell < t or 16 * t > kappa:
        raise ValueError("need 0 < ell < t <= kappa/16")
    bound = lemma44_bound(kappa, t, ell)
    potential = math.comb(kappa, t) * math.comb(kappa - t, t)
    p = min(0.5, (0.5 / potential) ** (1.0 / (t * t)))

    def worker(i: int) -> dict[str, Any]:
        retries = 0
        if graphs is not None:
            g = graphs[i]
            if contains_ktt(g, t):
                raise ValueError(f"explicit graph {i} is not K_{{{t},{t}}}-free")
        else:
            rng = seed.stream("ktt-free", i)
            g = None
            for _ in range(max_retries):
                cand = Graph.from_bool_matrix(_er_matrix(kappa, p, rng))
                if not contains_ktt(cand, t):
                    g = cand
                    break
                retries += 1
            if g is None:
                return {
                    "trial": i,
                    "exhausted": True,
                    "retries": retries,
                    "count": None,
                    "holds": None,
                }
        count = count_bicliques(g, ell)
        return {
            "trial": i,
            "exhausted": False,
            "retries": retries,
            "count": count,
            "holds": Fraction(count) <= bound,
            "edges": g.m,
        }

    if graphs is not None and len(graphs) != trials:
        raise ValueError("explicit graph list length must equal trials")
    records = _run_trials(trials, worker, threads)
    tested = [r for r in records if not r["exhausted"]]
    violations = sum(1 for r in tested if not r["holds"])
    exhausted = len(records) - len(tested)
    if violations:
        verdict = INVARIANT_FAIL
    elif exhausted:
        verdict = DIAGNOSTIC
    else:
        verdict = PASS
    aggregates = {
        "success_rate": (len(tested) - violations) / trials,
        "violations": violations,
        "exhausted": exhausted,
        "bound": str(bound),
        "bound_float": float(bound),
        "max_count": max((r["count"] for r in tested), default=0),
    }
    return _report(
        "lemma44", seed, records, aggregates, verdict,
        kappa=kappa, t=t, ell=ell, p=p, max_retries=max_retries,
        explicit_graphs=graphs is not None,
    )


# -- averaging ----------------------------------------------------------------------


def verify_averaging(g: Graph, s: Iterable[int], k: int) -> bool:
    """Best k-subset of S is at least the expectation of a random one."""
    s = tuple(sorted(set(s)))
    if not 1 <= k <= len(s):
        raise ValueError(f"need 1 <= k <= |S|={len(s)}")
    sub = g.induced(s)
    _, best = densest_k_subgraph(sub, k)
    return best >= averaging_floor(k, len(s), sub.m)


def verify_averaging_trials(
    n: int,
    s_size: int,
    k: int,
    trials: int,
    seed: int | Seed,
    p: float = 0.5,
    threads: int = 1,
) -> TrialReport:
    """Averaging inequality on random graphs with S = the first s_size ids."""
    seed = as_seed(seed)

    def worker(i: int) -> dict[str, Any]:
        g = sample_er(n, p, seed, index=i)
        ok = verify_averaging(g, range(s_size), k)
        return {"trial": i, "success": ok}

    records = _run_trials(trials, worker, threads)
    ok = all(r["success"] for r in records)
    aggregates = {"success_rate": sum(r["success"] for r in records) / trials}
    return _report(
        "averaging", seed, records, aggregates, PASS if ok else INVARIANT_FAIL,
        n=n, s_size=s_size, k=k, p=p,
    )
