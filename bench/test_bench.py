"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, run.SRC)

from cliquelab import cli, oracles, verify  # noqa: E402
from cliquelab.ensembles import sample_er, sample_planted  # noqa: E402
from cliquelab.rgp import rgp  # noqa: E402


def _run_bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_one_op_mode_runs_every_workload_correctly():
    proc = _run_bench("--one-op", "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in results] == list(workloads.WORKLOADS)
    for r in results:
        assert (r["correct"], r["attempted"], r["failed"]) == (True, 1, 0), r
        assert set(r["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in r["metrics"].values()), r


def test_fails_without_printing_in_a_checkout_without_the_package(tmp_path):
    shutil.copytree(
        run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(
        "--workload", "soundness", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_run_py_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# -- the independent computations agree with the program on small inputs ---------


@pytest.mark.parametrize("kappa", [None, 5])
def test_regenerated_instances_match_the_program(kappa):
    seed, index, n = 9, 2, 16
    g = sample_er(n, 0.5, seed, index) if kappa is None else (
        sample_planted(n, 0.5, kappa, seed, index).graph
    )
    nbrs = checks.source_neighbors(n, seed, index, kappa)
    assert all(set(g.neighbors(u)) == nbrs[u] for u in range(n))
    product, fam = rgp(g, 40, 2, seed, index)
    assert list(fam.sets) == checks.family(n, 40, 2, seed, index)
    literal = checks.literal_product_edges(nbrs, list(fam.sets))
    assert literal == product.edges()
    assert checks.omega_via_source(nbrs, list(fam.sets)) == oracles.clique_number(product)


@pytest.mark.parametrize("hits", [0, 3, 17, 20])
def test_reference_statistics_match_the_program(hits):
    from fractions import Fraction

    low, high = verify.clopper_pearson(hits, 20)
    ref_low, ref_high = checks.clopper_pearson(hits, 20)
    assert abs(low - ref_low) < 1e-9 and abs(high - ref_high) < 1e-9
    p = Fraction(9, 10)
    assert checks.binomial_cdf(20, hits, p) == verify.exact_tail_p_value(20, hits, p)


def test_soundness_check_rejects_a_wrong_edge_count(tmp_path):
    seed = 2
    op = workloads.soundness(seed)[0]
    opdir, keep = tmp_path / "op", tmp_path / "keep" / op.key
    opdir.mkdir()
    keep.mkdir(parents=True)
    for call in op.calls:
        assert cli.main(op.argv(call, str(opdir))) == 0
    report = json.loads((opdir / "soundness-null.json").read_text())
    (keep / "soundness-null.json").write_text(json.dumps(report))
    assert checks.check_soundness(seed, str(tmp_path / "keep"), {op.key}) == []
    report["trials"][3]["product_edges"] += 1
    (keep / "soundness-null.json").write_text(json.dumps(report))
    problems = checks.check_soundness(seed, str(tmp_path / "keep"), {op.key})
    assert len(problems) == 1 and "trial 3" in problems[0]


# -- tracing -------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # the pool span covers [0, 10]; its trials overlap on [2, 5] and [4, 6]
    recorded = [
        [1, 0, "verify.run_trials", 1, 0.0, 10.0],
        [2, 1, "rgp.sample_family", 1, 2.0, 5.0],
        [3, 1, "rgp.sample_family", 2, 4.0, 6.0],
        [4, 2, "graph.from_bool_matrix", 1, 3.0, 4.0],
    ]
    assert spans.self_times(recorded) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}
    figures = spans.layer_figures(recorded, [(0.0, 10.0)])
    assert figures["self_s"] == {
        "verify.run_trials": 6.0, "rgp.sample_family": 4.0, "graph.from_bool_matrix": 1.0
    }
    # only [2, 6] is inside a layer span; the pool span is a container
    assert figures["uncovered_share"] == pytest.approx(0.6)


def test_pool_and_budget_threads_record_their_parent(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "verify", "soundness", "--n", "20", "--ell", "2", "--N", "40", "--k", "4",
            "--trials", "4", "--seed", "3", "--threads", "2",
            "--out-json", str(tmp_path / "s.json"),
        ])
        assert code == 0
        graph = str(tmp_path / "g.txt")
        gen = cli.main(["gen", "er", "--n", "20", "--seed", "3", "--out", graph])
        solve = cli.main([
            "solve", "max-clique", "--in", graph, "--budget-ms", "60000",
            "--out", str(tmp_path / "c.json"),
        ])
        assert gen == solve == 0
    finally:
        tracer.uninstall()
    assert verify.den_leq_k is oracles.den_leq_k  # uninstall restored the originals
    by_id = {s[0]: s for s in tracer.spans}
    name = {sid: s[2] for sid, s in by_id.items()}
    trials = [s for s in tracer.spans if s[2] == spans.TRIAL_SPAN]
    assert len(trials) == 4
    assert {name[s[1]] for s in trials} == {"verify.run_trials"}
    dens = [s for s in tracer.spans if s[2] == "oracles.den_leq_k"]
    assert {name[s[1]] for s in dens} == {spans.TRIAL_SPAN}
    assert {s[3] for s in trials} != {threading.get_ident()}  # ran on pool threads
    (solver,) = [s for s in tracer.spans if s[2] == "oracles.max_clique"]
    work = by_id[solver[1]]
    assert work[2] == "cli.budget_work" and name[work[1]] == "cli.with_budget"
    solution = json.loads((tmp_path / "c.json").read_text())["solution"]
    assert tracer.counts["oracles.omega"] == len(solution)
    assert tracer.counts["rgp.pairs_checked"] == 4 * 40 * 39 // 2
