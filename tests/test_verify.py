from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from cliquelab import verify
from cliquelab.caps import budget
from cliquelab.ensembles import planted_kappa, sample_planted
from cliquelab.errors import BudgetExceeded, CapExceeded
from cliquelab.graph import Graph
from cliquelab.reductions import dks_via_skes
from cliquelab.rgp import DisperserReport, EdgeRuleReport, sample_family
from cliquelab.verify import (
    DIAGNOSTIC,
    INVARIANT_FAIL,
    PASS,
    STATISTICAL_FAIL,
    TrialReport,
    clopper_pearson,
    den_mean_confidence,
    exact_tail_p_value,
    rate_verdict,
    verify_averaging,
    verify_averaging_trials,
    verify_completeness,
    verify_disperser,
    verify_lemma44,
    verify_soundness_structure,
)


# -- statistics --------------------------------------------------------------------


def test_exact_tail_p_value_matches_hand_arithmetic():
    # Bin(10, 1/2): P[X <= 0] = 1/1024, P[X <= 1] = 11/1024
    assert exact_tail_p_value(10, 0, Fraction(1, 2)) == Fraction(1, 1024)
    assert exact_tail_p_value(10, 1, Fraction(1, 2)) == Fraction(11, 1024)


def test_rate_verdict_boundary():
    # 11/1024 > 1/100: one hit out of ten survives a 50% threshold
    verdict, p = rate_verdict(10, 1, Fraction(1, 2))
    assert verdict == PASS
    assert p == Fraction(11, 1024)
    # 1/1024 < 1/100: zero hits is refuted
    verdict0, p0 = rate_verdict(10, 0, Fraction(1, 2))
    assert verdict0 == STATISTICAL_FAIL
    assert p0 == Fraction(1, 1024)


def test_rate_verdict_full_success_passes():
    verdict, p = rate_verdict(50, 50, Fraction(9, 10))
    assert verdict == PASS
    assert p == 1


def test_clopper_pearson_brackets():
    lo, hi = clopper_pearson(8, 10)
    assert 0.0 <= lo <= 0.8 <= hi <= 1.0
    lo0, hi0 = clopper_pearson(0, 10)
    assert lo0 == 0.0 and hi0 < 1.0
    lo1, hi1 = clopper_pearson(10, 10)
    assert hi1 == 1.0 and lo1 > 0.0
    # more data tightens the interval around the same rate
    lo_b, hi_b = clopper_pearson(80, 100)
    assert hi_b - lo_b < hi - lo


@pytest.mark.parametrize("n", [10, 200, 400])
def test_clopper_pearson_closed_forms_at_the_ends(n):
    # All hits: the lower end solves p^n = alpha, so it is alpha^(1/n); no
    # hits: the upper end is 1 - alpha^(1/n).  alpha is the float
    # (1 - 0.99) / 2 = 0.005 the function uses.  x <= alpha^(1/n) is checked
    # exactly as x^n <= alpha, and bisection must stop within 2^-39.
    alpha = Fraction((1.0 - 0.99) / 2.0)
    step = Fraction(1, 2**39)
    lower = Fraction(clopper_pearson(n, n)[0])
    assert lower**n <= alpha < (lower + step) ** n
    below_one = 1 - Fraction(clopper_pearson(0, n)[1])
    assert below_one**n <= alpha < (below_one + step) ** n


def _den_report(values: list[float]) -> TrialReport:
    trials = tuple(
        {"trial": i, "den_leq_k_float": v} for i, v in enumerate(values)
    )
    return TrialReport("demo", {"trials": len(values)}, trials, {}, DIAGNOSTIC)


def test_den_mean_confidence_shrinks():
    lo1, hi1 = den_mean_confidence(_den_report([1.0, 1.5, 1.25, 1.5, 1.0] * 4))
    lo2, hi2 = den_mean_confidence(_den_report([1.0, 1.5, 1.25, 1.5, 1.0] * 40))
    assert hi2 - lo2 < hi1 - lo1
    assert lo1 < 1.25 < hi1


def test_den_mean_confidence_is_the_99_percent_interval():
    values = [1.0, 1.5, 1.25, 1.5, 1.0] * 4  # mean 1.25, squared deviations sum to 1
    lo, hi = den_mean_confidence(_den_report(values))
    assert (lo + hi) / 2 == pytest.approx(1.25)
    assert (hi - lo) / 2 == pytest.approx(2.5758 * math.sqrt(1 / 19 / 20))
    with pytest.raises(TypeError):
        den_mean_confidence(_den_report(values), conf=0.95)  # the only level is 99%


# -- report plumbing -----------------------------------------------------------------


def _report() -> TrialReport:
    return TrialReport(
        lemma="demo",
        config={"trials": 2, "seed": 1},
        trials=({"trial": 0, "success": True}, {"trial": 1, "success": False}),
        aggregates={"success_rate": 0.5},
        verdict=PASS,
    )


def test_trial_report_csv_layout():
    header, rows = _report().csv_rows()
    assert header == ["lemma", "verdict", "success", "trial"]
    assert rows == [["demo", "pass", "True", "0"], ["demo", "pass", "False", "1"]]


def test_trial_report_json_is_sorted_and_parseable():
    payload = json.loads(_report().to_json())
    assert payload["lemma"] == "demo"
    assert payload["verdict"] == PASS
    assert len(payload["trials"]) == 2


def test_trial_report_validation():
    with pytest.raises(ValueError):
        TrialReport("x", {"trials": 3}, ({"trial": 0},), {}, PASS)
    with pytest.raises(ValueError):
        TrialReport("x", {"trials": 1}, ({"trial": 0},), {"success_rate": 1.5}, PASS)


# -- completeness --------------------------------------------------------------------


def test_completeness_passes_in_regime():
    # kappa = ceil(sqrt(16)) = 4; N kappa^ell = 480*16 = 7680 = 10k n^ell
    rep = verify_completeness(
        n=16, delta=Fraction(1, 2), ell=2, N=480, k=3, trials=25, seed=5
    )
    assert rep.verdict == PASS
    assert rep.aggregates["in_regime"] is True
    assert rep.aggregates["success_rate"] >= 0.9
    assert all(r["witness_union_is_clique"] for r in rep.trials)
    assert rep.aggregates["mean_witness_count"] >= 1.0


def test_completeness_witness_count_is_the_literal_subset_count():
    n, N, seed = 25, 300, 9
    kappa = planted_kappa(n, Fraction(1, 2))
    rep = verify_completeness(
        n=n, delta=Fraction(1, 2), ell=3, N=N, k=3, trials=8, seed=seed
    )
    for r in rep.trials:
        clique = set(sample_planted(n, 0.5, kappa, seed, index=r["trial"]).clique)
        fam = sample_family(n, N, 3, seed, index=r["trial"])
        assert r["witness_count"] == sum(1 for s in fam.sets if clique.issuperset(s))
    assert sum(r["witness_count"] for r in rep.trials) > 0


def test_completeness_diagnostic_when_undersized():
    rep = verify_completeness(
        n=16, delta=Fraction(1, 2), ell=2, N=30, k=3, trials=10, seed=5
    )
    assert rep.aggregates["in_regime"] is False
    assert rep.verdict == DIAGNOSTIC


def test_completeness_broken_clique_is_invariant_fail_even_out_of_regime(monkeypatch):
    # the source graph loses one clique edge, so some witness union is no
    # clique; that miss outranks the diagnostic verdict of an undersized N
    real = verify.sample_planted

    def broken(*args, **kwargs):
        inst = real(*args, **kwargs)
        a, b = inst.clique[:2]
        edges = [e for e in inst.graph.edges() if e != (a, b)]
        return dataclasses.replace(inst, graph=Graph(inst.n, edges))

    monkeypatch.setattr(verify, "sample_planted", broken)
    rep = verify_completeness(
        n=16, delta=Fraction(1, 2), ell=2, N=400, k=3, trials=4, seed=5
    )
    assert rep.aggregates["in_regime"] is False
    assert not all(r["witness_union_is_clique"] for r in rep.trials)
    assert rep.verdict == INVARIANT_FAIL
    assert rep.aggregates["p_value"] == "0"


# -- soundness structure ---------------------------------------------------------------


def test_soundness_structure_small():
    rep = verify_soundness_structure(
        n=24, ell=2, N=80, k=4, trials=8, seed=7, j_samples=5, j_size=4
    )
    assert rep.verdict == PASS
    assert all(r["edge_rule_ok"] for r in rep.trials)
    assert all(r["implied_contained"] for r in rep.trials)
    aggs = rep.aggregates
    assert (
        0
        <= aggs["min_den_leq_k_float"]
        <= aggs["mean_den_leq_k_float"]
        <= aggs["max_den_leq_k_float"]
        <= 1.5
    )


def test_soundness_edge_rule_miss_is_invariant_fail(monkeypatch):
    monkeypatch.setattr(
        verify, "check_edge_rule", lambda g, fam, product: EdgeRuleReport(False, 1, 1, ())
    )
    rep = verify_soundness_structure(
        n=24, ell=2, N=80, k=4, trials=3, seed=7, j_samples=2, j_size=4
    )
    assert rep.verdict == INVARIANT_FAIL
    assert rep.aggregates["success_rate"] == 0.0


# -- disperser -------------------------------------------------------------------------


def test_disperser_trials_pass():
    rep = verify_disperser(
        n=60, ell=2, N=80, delta=Fraction(1, 2), max_set_size=3, trials=20, seed=9
    )
    assert rep.verdict == PASS
    assert rep.aggregates["success_rate"] == 1.0


def test_disperser_failing_trials_are_statistical_fail(monkeypatch):
    # 1 hit in 6 trials: P[Bin(6, 95/100) <= 1] is far below 1/100
    def check(fam, delta, max_set_size, *, index, **kwargs):
        ok = index == 0
        return DisperserReport(
            "exhaustive", max_set_size, ok, 0 if ok else 1, (), Fraction(1, 3), None, 7
        )

    monkeypatch.setattr(verify, "check_disperser", check)
    rep = verify_disperser(
        n=60, ell=2, N=80, delta=Fraction(1, 2), max_set_size=3, trials=6, seed=9
    )
    assert rep.verdict == STATISTICAL_FAIL
    assert rep.aggregates["hits"] == 1
    assert Fraction(rep.aggregates["p_value"]) <= Fraction(1, 100)
    assert rep.aggregates["worst_ratio"] == "1/3"


def test_disperser_threads_do_not_change_output():
    kw = dict(
        n=40, ell=2, N=60, delta=Fraction(1, 2), max_set_size=3, trials=12, seed=3
    )
    a = verify_disperser(**kw, threads=1)
    b = verify_disperser(**kw, threads=4)
    assert a.to_json() == b.to_json()


def test_budget_scope_reaches_pool_threads():
    # the trials run on pool threads, which must see the caller's scope
    with pytest.raises(BudgetExceeded):
        with budget(1, "outer"):
            verify_soundness_structure(
                n=60, ell=2, N=200, k=5, trials=2, seed=7, threads=2
            )


# -- lemma44 ---------------------------------------------------------------------------


def test_lemma44_random_mode_passes():
    rep = verify_lemma44(kappa=32, t=2, ell=1, trials=20, seed=1)
    assert rep.verdict == PASS
    assert rep.aggregates["violations"] == 0
    assert rep.aggregates["max_count"] <= rep.aggregates["bound_float"]


def test_lemma44_explicit_graphs():
    graphs = [Graph.empty(32) for _ in range(4)]  # trivially K_{2,2}-free
    rep = verify_lemma44(kappa=32, t=2, ell=1, trials=4, seed=1, graphs=graphs)
    assert rep.verdict == PASS
    assert all(r["count"] == 0 for r in rep.trials)


def test_lemma44_rejects_non_free_explicit_graph():
    c4 = Graph(32, [(0, 2), (0, 3), (1, 2), (1, 3)])  # contains K_{2,2}
    with pytest.raises(ValueError):
        verify_lemma44(kappa=32, t=2, ell=1, trials=1, seed=1, graphs=[c4])


def test_lemma44_explicit_length_mismatch():
    with pytest.raises(ValueError):
        verify_lemma44(
            kappa=32, t=2, ell=1, trials=3, seed=1, graphs=[Graph.empty(32)]
        )


def test_lemma44_domain():
    with pytest.raises(ValueError):
        verify_lemma44(kappa=32, t=3, ell=1, trials=1, seed=1)  # 16t > kappa
    with pytest.raises(ValueError):
        verify_lemma44(kappa=32, t=2, ell=2, trials=1, seed=1)  # ell == t


# -- averaging -------------------------------------------------------------------------


def test_verify_averaging_fixed_instance():
    c4 = Graph.cycle(4)
    assert verify_averaging(c4, range(4), 2)
    assert verify_averaging(Graph.complete(5), range(5), 3)


def test_averaging_counts_search_nodes_not_subsets(monkeypatch):
    # C(12, 6) = 924 subsets exceed the cap, but the DkS search on K12 needs
    # 7 nodes; on the empty graph it expands 793 and is refused
    monkeypatch.setenv("CLIQUELAB_CAP", "100")
    assert verify_averaging(Graph.complete(12), range(12), 6)
    assert dks_via_skes(Graph.complete(12), 6, range(12)) == (0, 1, 2, 3, 4, 5)
    with pytest.raises(CapExceeded, match="k-subset search"):
        verify_averaging(Graph.empty(12), range(12), 6)
    with pytest.raises(CapExceeded, match="k-subset search"):
        dks_via_skes(Graph.empty(12), 6, range(12))


def test_verify_averaging_trials_pass():
    rep = verify_averaging_trials(n=12, s_size=10, k=4, trials=25, seed=2)
    assert rep.verdict == PASS
    assert rep.aggregates["success_rate"] == 1.0


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (verify_completeness, dict(n=16, delta=Fraction(1, 2), ell=2, N=30, k=3)),
        (verify_soundness_structure, dict(n=24, ell=2, N=80, k=4)),
        (
            verify_disperser,
            dict(n=60, ell=2, N=80, delta=Fraction(1, 2), max_set_size=3),
        ),
        (verify_lemma44, dict(kappa=32, t=2, ell=1)),
        (verify_averaging_trials, dict(n=12, s_size=10, k=4)),
    ],
    ids=["completeness", "soundness", "disperser", "lemma44", "averaging"],
)
def test_zero_trials_give_no_verdict(run, kwargs):
    with pytest.raises(ValueError, match="at least 1 trial, got 0"):
        run(**kwargs, trials=0, seed=1)


_SOUNDNESS = dict(n=24, ell=2, N=80, k=4)
_DISPERSER = dict(n=60, ell=2, N=80, delta=Fraction(1, 2), max_set_size=3)


@pytest.mark.parametrize(
    "run, kwargs, message",
    [
        (verify_soundness_structure, dict(_SOUNDNESS, j_samples=0), "got 0 and 6"),
        (verify_soundness_structure, dict(_SOUNDNESS, j_samples=-1), "got -1 and 6"),
        (verify_soundness_structure, dict(_SOUNDNESS, j_size=1), "got 20 and 1"),
        (verify_disperser, dict(_DISPERSER, mode="sampled", samples=0), "got 0"),
    ],
    ids=["j_samples-0", "j_samples--1", "j_size-1", "samples-0"],
)
def test_samplers_that_sample_nothing_are_refused(run, kwargs, message):
    # no J, a J without pairs or no sampled index set would pass vacuously
    with pytest.raises(ValueError, match=message):
        run(**kwargs, trials=2, seed=1)


def test_reports_embed_generator_and_version():
    rep = verify_averaging_trials(n=8, s_size=6, k=3, trials=5, seed=1)
    assert "generator" in rep.config
    assert "version" in rep.config
    assert rep.config["trials"] == 5
    assert "threads" not in rep.config
