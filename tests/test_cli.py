from __future__ import annotations

import json
import random
import re
import threading
import time

import pytest

from cliquelab import verify as verify_mod
from cliquelab.cli import EXIT_USAGE, build_parser, main
from cliquelab.formats import dump_graph, load_family, load_graph, load_steiner
from cliquelab.graph import Graph
from cliquelab.verify import INVARIANT_FAIL, STATISTICAL_FAIL, TrialReport

from _util import BAD_INSTANCES, random_graph


def _write_graph(path, g: Graph) -> str:
    path.write_text(dump_graph(g))
    return str(path)


# -- usage-level failures -------------------------------------------------------------


def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["params", "--n", "8", "--delta", "0.25", "--k", "2", "--zap"]) == 1


def test_gen_missing_required_parameter(capsys):
    assert main(["gen", "er", "--seed", "1"]) == 1
    assert "requires --n" in capsys.readouterr().err


def test_solve_missing_required_flag(tmp_path, capsys):
    path = _write_graph(tmp_path / "g.txt", Graph.complete(4))
    assert main(["solve", "densest-k-subgraph", "--in", path]) == 1
    assert "requires --k" in capsys.readouterr().err


def test_solve_missing_input_file(tmp_path):
    assert main(["solve", "max-clique", "--in", str(tmp_path / "nope.txt")]) == 1


def test_main_answers_as_a_fresh_parser_when_it_reuses_one(tmp_path, capsys):
    src, product, family = (str(tmp_path / name) for name in ("src", "product", "family"))
    calls = [
        ["solve", "max-clique"],
        ["gen", "planted", "--n", "14", "--kappa", "5", "--seed", "3", "--out", src],
        ["gen", "er", "--seed", "3"],
        ["rgp", "--in", src, "--ell", "2", "--N", "40", "--seed", "3", "--check",
         "--out-graph", product, "--out-family", family],
        ["solve", "max-clique", "--in", product],
        ["--version"],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        files = [open(path).read() for path in (src, product, family) if path in argv]
        return code, out, re.sub(r"\d+\.\d\ds\b", "<time>", err), files

    build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, *_ in reused] == [1, 0, 1, 0, 0, 0]


# -- gen -------------------------------------------------------------------------------


def test_gen_er_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "g.txt"
    argv = ["gen", "er", "--n", "30", "--p", "1/2", "--seed", "11", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    g = load_graph(first.decode())
    assert g.n == 30


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    base = ["gen", "er", "--n", "30", "--p", "1/2"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert load_graph(a.read_text()).edges() != load_graph(b.read_text()).edges()


def test_gen_planted_records_clique(tmp_path):
    out = tmp_path / "p.txt"
    argv = [
        "gen", "planted", "--n", "20", "--kappa", "6",
        "--seed", "4", "--out", str(out),
    ]
    assert main(argv) == 0
    text = out.read_text()
    g = load_graph(text)
    meta_line = next(ln for ln in text.splitlines() if ln.startswith("# clique:"))
    clique = [int(tok) for tok in meta_line.split(":", 1)[1].split()]
    assert len(clique) == 6
    assert g.is_clique(clique)


def test_gen_pattern_writes_graph(tmp_path):
    out = tmp_path / "h.txt"
    assert main(["gen", "pattern", "--k", "5", "--seed", "3", "--out", str(out)]) == 0
    assert load_graph(out.read_text()).n == 5


# -- rgp -------------------------------------------------------------------------------


def test_rgp_writes_product_and_family(tmp_path):
    src = _write_graph(tmp_path / "src.txt", Graph.complete(9))
    gout, fout = tmp_path / "prod.txt", tmp_path / "fam.txt"
    argv = [
        "rgp", "--in", src, "--n", "9", "--ell", "2", "--N", "15",
        "--seed", "7", "--check", "--out-graph", str(gout),
        "--out-family", str(fout),
    ]
    assert main(argv) == 0
    product = load_graph(gout.read_text())
    fam = load_family(fout.read_text())
    assert product.n == 15
    assert fam.N == 15 and fam.source_n == 9
    # complete source: every product pair is an edge
    assert product.m == 15 * 14 // 2


def test_rgp_source_size_mismatch(tmp_path):
    src = _write_graph(tmp_path / "src.txt", Graph.complete(9))
    argv = [
        "rgp", "--in", src, "--n", "10", "--ell", "2", "--N", "5",
        "--seed", "7", "--out-graph", str(tmp_path / "a"),
        "--out-family", str(tmp_path / "b"),
    ]
    assert main(argv) == 1


# -- solve -----------------------------------------------------------------------------


def test_solve_max_clique_stdout_payload(tmp_path, capsys):
    path = _write_graph(tmp_path / "g.txt", Graph.cycle(5))
    assert main(["solve", "max-clique", "--in", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "max-clique"
    assert payload["size"] == 2
    assert payload["run"]["subcommand"] == "solve max-clique"
    assert payload["run"]["inputs"] == [path]


def test_solve_infeasible_exits_4(tmp_path):
    path = _write_graph(tmp_path / "g.txt", Graph.cycle(3))
    assert main(["solve", "smallest-k-edge-subgraph", "--in", path, "--k", "5"]) == 4


def test_solve_budget_exhaustion_exits_4(tmp_path):
    host = random_graph(50, 0.5, random.Random(1))
    hp = _write_graph(tmp_path / "host.txt", host)
    pp = _write_graph(tmp_path / "pat.txt", Graph.empty(13))
    argv = [
        "solve", "detect-pattern", "--in", hp, "--pattern", pp,
        "--induced", "--budget-ms", "60",
    ]
    assert main(argv) == 4


def test_solve_budget_stops_the_search(tmp_path):
    # max-clique on G(500, 1/2) runs for well over 20 s unbudgeted
    path = str(tmp_path / "g.txt")
    assert main(["gen", "er", "--n", "500", "--seed", "7", "--out", path]) == 0
    threads = threading.active_count()
    argv = ["solve", "max-clique", "--in", path, "--budget-ms", "200"]
    assert main(argv) == 4
    assert threading.active_count() == threads
    cpu = time.process_time()
    time.sleep(1.0)
    assert time.process_time() - cpu < 0.2  # no search left running


def test_solve_budget_stops_count_cliques(tmp_path):
    # 4-cliques of G(200, 1/2): about a million, several seconds to count
    path = str(tmp_path / "g.txt")
    assert main(["gen", "er", "--n", "200", "--seed", "7", "--out", path]) == 0
    argv = ["solve", "count-cliques", "--in", path, "--r", "4", "--budget-ms", "50"]
    assert main(argv) == 4


def test_solve_den_leq_k_value(tmp_path, capsys):
    path = _write_graph(tmp_path / "g.txt", Graph.complete(4))
    assert main(["solve", "den-leq-k", "--in", path, "--k", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "3/2"
    assert payload["value_float"] == 1.5


def test_solve_den_leq_k_beyond_four_is_not_refused_a_priori(tmp_path, capsys):
    # the size-4 step of den_{<=5} on N = 500 would be C(500, 4) ~ 2.6e9
    # subsets, far above the cap, but the search expands under 1k nodes
    src, prod = str(tmp_path / "er.txt"), str(tmp_path / "prod.txt")
    assert main(["gen", "er", "--n", "60", "--seed", "7", "--out", src]) == 0
    argv = [
        "rgp", "--in", src, "--ell", "2", "--N", "500", "--seed", "7",
        "--out-graph", prod, "--out-family", str(tmp_path / "fam.txt"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["solve", "den-leq-k", "--in", prod, "--k", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "2"


def test_solve_answers_on_a_planted_clique_of_1100(tmp_path, capsys):
    # an 1100-clique: no search depth is bound by the recursion limit
    path = str(tmp_path / "g.txt")
    assert main(["gen", "planted", "--n", "1200", "--kappa", "1100", "--seed", "0", "--out", path]) == 0
    capsys.readouterr()
    assert main(["solve", "max-clique", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 1100
    assert main(["solve", "den-leq-k", "--in", path, "--k", "1100"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1099/2"


@pytest.mark.parametrize("problem, text, message", BAD_INSTANCES.values(), ids=BAD_INSTANCES)
def test_solve_refuses_a_bad_instance_field_in_one_line(tmp_path, capsys, problem, text, message):
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["solve", problem, "--in", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith(f"error: {message}")


# -- reduce ----------------------------------------------------------------------------


def test_reduce_star_then_solve(tmp_path, capsys):
    path = _write_graph(tmp_path / "g.txt", Graph.cycle(5))
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    argv = [
        "reduce", "skes-to-steiner-forest", "--in", path, "--k", "3",
        "--out-instance", str(inst), "--out-cert", str(cert),
    ]
    assert main(argv) == 0
    parsed = load_steiner(inst.read_text())
    assert parsed.k == 3
    cert_payload = json.loads(cert.read_text())
    assert cert_payload["data"]["center"] == 5
    assert cert_payload["run"]["subcommand"] == "reduce skes-to-steiner-forest"
    assert main(["solve", "steiner-k-forest", "--in", str(inst)]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["cost"] == "4"


def test_reduce_dks_via_skes_solution(tmp_path, capsys):
    path = _write_graph(tmp_path / "g.txt", Graph.complete(6))
    argv = [
        "reduce", "dks-via-skes", "--in", path, "--k", "3",
        "--solution", "0,1,2",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["solution"]) == [0, 1, 2]


# -- verify ----------------------------------------------------------------------------


def test_verify_lemma44_documented_invocation():
    argv = [
        "verify", "lemma44", "--kappa", "32", "--t", "2", "--ell", "1",
        "--trials", "50", "--seed", "1",
    ]
    assert main(argv) == 0


def test_verify_missing_lemma_parameter(capsys):
    argv = ["verify", "completeness", "--trials", "5", "--seed", "1"]
    assert main(argv) == 1
    assert "verify completeness requires --n" in capsys.readouterr().err


def test_verify_output_files(tmp_path):
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    argv = [
        "verify", "averaging", "--n", "10", "--s-size", "8", "--k", "3",
        "--trials", "6", "--seed", "2",
        "--out-json", str(out_json), "--out-csv", str(out_csv),
    ]
    assert main(argv) == 0
    payload = json.loads(out_json.read_text())
    assert payload["lemma"] == "averaging"
    assert payload["run"]["subcommand"] == "verify averaging"
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# version:")
    assert lines[1].startswith("# run:")
    assert lines[2].split(",")[:2] == ["lemma", "verdict"]
    assert len(lines) == 3 + 6


def test_verify_threads_flag_does_not_change_bytes(tmp_path):
    outs = []
    for threads, name in ((1, "a.csv"), (3, "b.csv")):
        out = tmp_path / name
        argv = [
            "verify", "disperser", "--n", "30", "--ell", "2", "--N", "40",
            "--delta", "1/2", "--max-set-size", "3",
            "--trials", "8", "--seed", "5", "--threads", str(threads),
            "--out-csv", str(out),
        ]
        assert main(argv) == 0
        # strip the run line: it records the differing output path and threads
        outs.append(
            [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        )
    assert outs[0] == outs[1]


def test_verify_default_runs_trials_on_the_calling_thread(tmp_path, monkeypatch):
    argv = [
        "verify", "soundness", "--n", "24", "--ell", "2", "--N", "80", "--k", "4",
        "--trials", "4", "--seed", "5",
    ]
    # each trial calls den_leq_k once, on the thread that runs it
    idents = []
    den_leq_k = verify_mod.den_leq_k

    def den(*args, **kwargs):
        idents.append(threading.get_ident())
        return den_leq_k(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "den_leq_k", den)
    pooled = tmp_path / "pooled.json"
    assert main(argv + ["--threads", "2", "--out-json", str(pooled)]) == 0
    assert len(idents) == 4 and threading.get_ident() not in idents

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built without --threads")

    monkeypatch.setattr(verify_mod, "ThreadPoolExecutor", no_pool)
    idents.clear()
    default = tmp_path / "default.json"
    assert main(argv + ["--out-json", str(default)]) == 0
    assert idents == [threading.get_ident()] * 4
    a, b = (json.loads(path.read_text()) for path in (default, pooled))
    assert "threads" not in a["run"]["params"]
    assert b["run"]["params"]["threads"] == 2
    del a["run"], b["run"]
    assert a == b


@pytest.mark.parametrize(
    "flag, count, floor",
    [
        pytest.param("--threads", "0", 1, id="0"),
        pytest.param("--threads", "-1", 1, id="-1"),
        pytest.param("--trials", "0", 1, id="trials-0"),
        pytest.param("--trials", "-1", 1, id="trials--1"),
        pytest.param("--samples", "0", 1, id="samples-0"),
        pytest.param("--j-samples", "0", 1, id="j-samples-0"),
        pytest.param("--j-samples", "-1", 1, id="j-samples--1"),
        pytest.param("--j-size", "1", 2, id="j-size-1"),
    ],
)
def test_verify_threads_below_one_is_usage_error(tmp_path, capsys, flag, count, floor):
    out = tmp_path / "r.json"
    counts = {"--trials": "2", "--threads": "1", flag: count}
    argv = [
        "verify", "averaging", "--n", "10", "--s-size", "8", "--k", "3", "--seed", "2",
        "--out-json", str(out), *(x for pair in counts.items() for x in pair),
    ]
    assert main(argv) == 1
    message = f"argument {flag}: must be at least {floor}, got {count}"
    assert message in capsys.readouterr().err
    assert not out.exists()


_DISPERSER_N300 = [
    "verify", "disperser", "--n", "100", "--ell", "2", "--N", "300",
    "--delta", "1/2", "--max-set-size", "4", "--trials", "1", "--seed", "1",
]


def test_verify_disperser_cap_counts_nodes_not_subsets(tmp_path, monkeypatch):
    # sum of C(300, t) for t <= 4 is about 3.4e8, above the default cap, but
    # the search expands only about 300 nodes
    monkeypatch.delenv("CLIQUELAB_CAP", raising=False)
    assert main(_DISPERSER_N300 + ["--out-json", str(tmp_path / "d.json")]) == 0


def test_verify_disperser_small_cap_exits_4(tmp_path, monkeypatch):
    monkeypatch.setenv("CLIQUELAB_CAP", "100")
    assert main(_DISPERSER_N300 + ["--out-json", str(tmp_path / "d.json")]) == 4


def _doctored(verdict: str) -> TrialReport:
    return TrialReport(
        lemma="averaging",
        config={"trials": 1},
        trials=({"trial": 0, "success": False},),
        aggregates={"success_rate": 0.0},
        verdict=verdict,
    )


@pytest.mark.parametrize(
    "verdict,code", [(STATISTICAL_FAIL, 2), (INVARIANT_FAIL, 3)]
)
def test_verify_verdict_exit_codes(monkeypatch, verdict, code):
    monkeypatch.setattr(
        verify_mod, "verify_averaging_trials", lambda **kw: _doctored(verdict)
    )
    argv = [
        "verify", "averaging", "--n", "8", "--s-size", "6", "--k", "3",
        "--trials", "1", "--seed", "1",
    ]
    assert main(argv) == code


# -- params ----------------------------------------------------------------------------


def test_params_formula_scale(capsys):
    argv = ["params", "--n", "1048576", "--delta", "0.5", "--k", "20", "--C", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ell = 400000000"
    assert lines[1] == "d = 2 (exact)"
    assert any(ln == "k_ell_at_most_n_pow_099delta = False" for ln in lines)


def test_params_exact_flags_hit_bit_cap_at_scale():
    argv = [
        "params", "--n", "1048576", "--delta", "0.5", "--k", "20",
        "--exact-side-conditions",
    ]
    assert main(argv) == 4


def test_params_exact_flags_small(capsys):
    # huge k keeps ell at 1 so the exact big-int check stays cheap
    argv = [
        "params", "--n", "2", "--delta", "1/2", "--k", "1000000000",
        "--exact-side-conditions",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ell = 1" in out
    assert "exact:N_at_least_10k_pow = True" in out
    assert "exact:ell_at_least_k = False" in out


def test_params_conflicting_modes():
    argv = ["params", "--n", "16", "--delta", "1/2", "--k", "3", "--C", "1", "--g", "2"]
    assert main(argv) == 1


# -- report ----------------------------------------------------------------------------


def _run_averaging_csv(tmp_path, name: str, seed: int) -> str:
    out = tmp_path / name
    argv = [
        "verify", "averaging", "--n", "10", "--s-size", "8", "--k", "3",
        "--trials", "10", "--seed", str(seed), "--out-csv", str(out),
    ]
    assert main(argv) == 0
    return str(out)


def test_report_single_file_matches_run_verdict(tmp_path, capsys):
    path = _run_averaging_csv(tmp_path, "one.csv", seed=3)
    assert main(["report", path]) == 0
    summary = json.loads(capsys.readouterr().out)
    entry = summary["lemmas"]["averaging"]
    assert entry["verdict"] == "pass"
    assert entry["trials"] == 10
    assert entry["pooled_success_rate"] == entry["hits"] / 10


def test_report_pools_rate_as_weighted_mean(tmp_path, capsys):
    a = _run_averaging_csv(tmp_path, "a.csv", seed=3)
    b = _run_averaging_csv(tmp_path, "b.csv", seed=4)
    assert main(["report", a, b]) == 0
    summary = json.loads(capsys.readouterr().out)
    entry = summary["lemmas"]["averaging"]
    assert entry["trials"] == 20
    assert entry["pooled_success_rate"] == entry["hits"] / 20
    assert sorted(entry["files"]) == sorted([a, b])


def test_report_empty_input_is_usage_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# a comment, no rows\n")
    assert main(["report", str(empty)]) == 1


def test_report_missing_required_column(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("lemma,success\naveraging,True\n")
    assert main(["report", str(bad)]) == 1


def test_report_schema_mismatch_names_column(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("lemma,verdict,trial,success\nx,pass,0,True\n")
    b.write_text("lemma,verdict,trial,extra\nx,pass,0,7\n")
    assert main(["report", str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert "schema mismatch" in err
    assert "on column 'extra'" in err


def test_report_long_csv(tmp_path):
    path = _run_averaging_csv(tmp_path, "one.csv", seed=3)
    long_out = tmp_path / "long.csv"
    argv = [
        "report", path,
        "--out-summary", str(tmp_path / "s.json"), "--out-long", str(long_out),
    ]
    assert main(argv) == 0
    lines = [
        ln for ln in long_out.read_text().splitlines() if not ln.startswith("#")
    ]
    assert lines[0] == "lemma,param,trial,value"
    body = [ln.split(",") for ln in lines[1:]]
    assert all(row[0] == "averaging" and row[1] == "success" for row in body)
    assert len(body) == 10
