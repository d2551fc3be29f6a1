"""Command line front end: gen | rgp | solve | reduce | verify | params | report.

Exit codes: 0 success or pass, 1 usage error, 2 statistical fail,
3 invariant fail, 4 infeasible instance or exceeded cap/budget.  All output
files are written atomically and embed the run configuration plus the
package version; nothing in them depends on wall-clock time, so reruns with
identical arguments are byte-identical.  Progress and timing go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import __version__
from . import oracles, reductions, verify
from .caps import budget
from .ensembles import sample_er, sample_pattern, sample_planted
from .errors import BudgetExceeded, CapExceeded, InfeasibleError
from .formats import (
    atomic_write_text,
    dump_dsn,
    dump_family,
    dump_graph,
    dump_hypergraph,
    dump_steiner,
    load_dsn,
    load_graph,
    load_hypergraph,
    load_steiner,
)
from .rgp import (
    SIDE_CONDITION_NAMES,
    check_edge_rule,
    check_side_conditions_exact,
    paper_params,
    rgp,
)
from .verify import DIAGNOSTIC, INVARIANT_FAIL, PASS, STATISTICAL_FAIL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STATISTICAL = 2
EXIT_INVARIANT = 3
EXIT_INFEASIBLE = 4

_VERDICT_EXIT = {
    PASS: EXIT_OK,
    DIAGNOSTIC: EXIT_OK,
    STATISTICAL_FAIL: EXIT_STATISTICAL,
    INVARIANT_FAIL: EXIT_INVARIANT,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _run_record(
    args: argparse.Namespace, subcommand: str, fmt: str = "json"
) -> dict[str, Any]:
    """Everything needed to reproduce one invocation; embedded in outputs."""
    skip = {"func", "seed"}
    params: dict[str, Any] = {}
    inputs: list[str] = []
    outputs: list[str] = []
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if key == "inputs":
            inputs.extend(value)
            continue
        if key.startswith("in") and isinstance(value, str):
            inputs.append(value)
            continue
        if key.startswith("out") and isinstance(value, str):
            outputs.append(value)
            continue
        params[key] = value
    return {
        "subcommand": subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": outputs,
        "format": fmt,
        "version": __version__,
    }


def _compact(run: dict[str, Any]) -> str:
    return json.dumps(run, sort_keys=True, separators=(",", ":"))


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _emit_json(path: str | None, payload: dict[str, Any]) -> None:
    _emit(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _text_meta(run: dict[str, Any]) -> dict[str, str]:
    return {"version": __version__, "run": _compact(run)}


def _csv_text(
    run: dict[str, Any], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> str:
    """CSV text under '# version' and '# run' comment lines."""
    buf = io.StringIO()
    buf.write(f"# version: {__version__}\n# run: {_compact(run)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _ids(spec: str) -> tuple[int, ...]:
    """Parse a comma or space separated id list like '0,3,5'."""
    parts = spec.replace(",", " ").split()
    return tuple(int(p) for p in parts)


def _with_budget(budget_ms: int | None, label: str, fn: Callable[[], Any]) -> Any:
    """Call fn under a budget_ms budget; an overrun stops it before any output."""
    with budget(budget_ms, label):
        return fn()


# -- gen ---------------------------------------------------------------------------


_GEN_NEEDS: dict[str, tuple[str, ...]] = {
    "er": ("n",),
    "planted": ("n", "kappa"),
    "pattern": ("k",),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    meta = _text_meta(_run_record(args, f"gen {args.kind}", fmt="text"))
    if args.kind == "er":
        g = sample_er(args.n, args.p, args.seed, index=args.index)
    elif args.kind == "planted":
        inst = sample_planted(args.n, args.p, args.kappa, args.seed, index=args.index)
        g = inst.graph
        meta["clique"] = " ".join(map(str, inst.clique))
    else:
        g = sample_pattern(args.k, args.seed, index=args.index)
    _emit(args.out, dump_graph(g, meta=meta))
    print(f"wrote graph n={g.n} m={g.m}", file=sys.stderr)
    return EXIT_OK


# -- rgp ---------------------------------------------------------------------------


def _cmd_rgp(args: argparse.Namespace) -> int:
    run = _run_record(args, "rgp", fmt="text")
    g = load_graph(_read(args.infile))
    if args.n is not None and args.n != g.n:
        print(f"--n {args.n} disagrees with input graph n={g.n}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    product, fam = rgp(g, args.N, args.ell, args.seed, index=args.index)
    if args.check:
        rep = check_edge_rule(g, fam, product)
        if not rep.ok:
            print(
                f"edge rule violated on {rep.violation_count} pairs", file=sys.stderr
            )
            return EXIT_INVARIANT
    meta = _text_meta(run)
    _emit(args.out_graph, dump_graph(product, meta=meta))
    _emit(args.out_family, dump_family(fam, meta=meta))
    dt = time.perf_counter() - t0
    print(
        f"product N={product.n} m={product.m} from n={g.n} in {dt:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


# -- solve -------------------------------------------------------------------------


def _solve_payload(args: argparse.Namespace) -> dict[str, Any]:
    p, text = args.problem, _read(args.infile)
    if p == "steiner-k-forest":
        edges, cost = oracles.steiner_k_forest(load_steiner(text))
        return {"edges": [list(e) for e in edges], "cost": str(cost)}
    if p == "dsn":
        arcs, cost = oracles.directed_steiner_network(load_dsn(text))
        return {"arcs": [list(a) for a in arcs], "cost": str(cost)}
    if p == "densest-k-subhypergraph":
        vs, contained = oracles.densest_k_subhypergraph(load_hypergraph(text), args.k)
        return {"solution": list(vs), "hyperedges": contained}

    g = load_graph(text)
    if p == "max-clique":
        clique = oracles.max_clique(g)
        return {"solution": list(clique), "size": len(clique)}
    if p == "count-cliques":
        return {"count": oracles.count_cliques(g, args.r)}
    if p == "densest-k-subgraph":
        vs, e = oracles.densest_k_subgraph(g, args.k)
        return {"solution": list(vs), "edges": e}
    if p == "den-leq-k":
        val = oracles.den_leq_k(g, args.k)
        return {"value": str(val), "value_float": float(val)}
    if p == "balanced-biclique":
        a, b = oracles.max_balanced_biclique(g)
        return {"a": list(a), "b": list(b), "size": len(a)}
    if p == "count-bicliques":
        return {"count": oracles.count_bicliques(g, args.ell)}
    if p == "contains-ktt":
        return {"contains": oracles.contains_ktt(g, args.t)}
    if p == "smallest-k-edge-subgraph":
        vs = oracles.smallest_k_edge_subgraph(g, args.k)
        return {"solution": list(vs), "size": len(vs)}
    if p == "detect-pattern":
        h = load_graph(_read(args.pattern))
        mapping = oracles.detect_pattern(g, h, args.induced)
        return {
            "found": mapping is not None,
            "mapping": None if mapping is None else list(mapping),
        }
    raise AssertionError(p)


_SOLVE_NEEDS: dict[str, tuple[str, ...]] = {
    "max-clique": (),
    "count-cliques": ("r",),
    "densest-k-subgraph": ("k",),
    "den-leq-k": ("k",),
    "balanced-biclique": (),
    "count-bicliques": ("ell",),
    "contains-ktt": ("t",),
    "smallest-k-edge-subgraph": ("k",),
    "steiner-k-forest": (),
    "dsn": (),
    "densest-k-subhypergraph": ("k",),
    "detect-pattern": ("pattern",),
}


def _cmd_solve(args: argparse.Namespace) -> int:
    run = _run_record(args, f"solve {args.problem}")
    t0 = time.perf_counter()
    payload = _with_budget(
        args.budget_ms, f"solve {args.problem}", lambda: _solve_payload(args)
    )
    payload["problem"] = args.problem
    payload["run"] = run
    _emit_json(args.out, payload)
    print(f"solved {args.problem} in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK


# -- reduce ------------------------------------------------------------------------


_REDUCE_NEEDS: dict[str, tuple[str, ...]] = {
    "skes-to-steiner-forest": ("out_instance", "out_cert"),
    "skes-to-dsn": ("seed", "out_instance", "out_cert"),
    "biclique-to-dksh": ("ell", "out_instance", "out_cert"),
    "dks-to-induced-pattern": ("seed", "pattern", "out_instance", "out_cert"),
    "dks-from-biclique": ("side_a", "side_b"),
    "dks-via-skes": ("solution",),
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    name = args.name
    run = _run_record(args, f"reduce {name}")
    meta = _text_meta(run)
    g = load_graph(_read(args.infile))
    rainbow = _ids(args.rainbow) if args.rainbow else None

    if name in ("dks-from-biclique", "dks-via-skes"):
        if name == "dks-from-biclique":
            sides = (_ids(args.side_a), _ids(args.side_b))
            vs = reductions.dks_from_biclique(g, args.k, sides)
        else:
            vs = reductions.dks_via_skes(g, args.k, _ids(args.solution))
        payload = {"solution": list(vs), "k": args.k, "run": run}
        _emit_json(args.out_instance, payload)
        print(f"selected {len(vs)} vertices", file=sys.stderr)
        return EXIT_OK

    if name == "skes-to-steiner-forest":
        inst, cert = reductions.skes_to_steiner_forest(g, args.k)
        text = dump_steiner(inst, meta=meta)
    elif name == "skes-to-dsn":
        inst, cert = reductions.skes_to_dsn(
            g, args.k, args.seed, rainbow=rainbow, index=args.index
        )
        text = dump_dsn(inst, meta=meta)
    elif name == "biclique-to-dksh":
        hyper, rho, ell, cert = reductions.biclique_to_dksh(g, args.k, args.ell)
        text = dump_hypergraph(hyper, meta=meta)
    else:
        h = load_graph(_read(args.pattern))
        host, cert = reductions.dks_to_induced_pattern(
            g, h, args.seed, rainbow=rainbow, index=args.index
        )
        text = dump_graph(host, meta=meta)
    _emit(args.out_instance, text)
    cert_payload = cert.to_json_dict()
    cert_payload["run"] = run
    _emit_json(args.out_cert, cert_payload)
    print(f"reduced via {name}", file=sys.stderr)
    return EXIT_OK


# -- verify ------------------------------------------------------------------------


def _at_least(floor: int) -> Callable[[str], int]:
    """The argparse type of a count of at least floor; less is a usage error."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return count


_at_least_one = _at_least(1)


# lemma -> (its function in verify, the flags it requires, the flags it takes
# with a default); each flag's name is the function's keyword for it
_VERIFY: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "completeness": ("verify_completeness", ("n", "delta", "ell", "N", "k"), ()),
    "soundness": (
        "verify_soundness_structure",
        ("n", "ell", "N", "k"),
        ("kappa", "j_samples", "j_size"),
    ),
    "disperser": (
        "verify_disperser",
        ("n", "ell", "N", "delta", "max_set_size"),
        ("mode", "samples"),
    ),
    "lemma44": ("verify_lemma44", ("kappa", "t", "ell"), ("max_retries",)),
    "averaging": ("verify_averaging_trials", ("n", "s_size", "k"), ("p",)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    lemma = args.lemma
    fn_name, needs, defaults = _VERIFY[lemma]
    t0 = time.perf_counter()
    # looked up by name at call time, so a replaced function is the one called
    report = getattr(verify, fn_name)(
        **{flag: getattr(args, flag) for flag in needs + defaults},
        trials=args.trials,
        seed=args.seed,
        threads=args.threads or 1,
    )
    dt = time.perf_counter() - t0

    run = _run_record(args, f"verify {lemma}", fmt="csv+json")
    if args.out_json or not args.out_csv:
        _emit_json(args.out_json, {**report.to_json_dict(), "run": run})
    if args.out_csv:
        _emit(args.out_csv, _csv_text(run, *report.csv_rows()))
    rate = report.aggregates.get("success_rate")
    rate_note = "" if rate is None else f" success_rate={rate:.4f}"
    print(
        f"verify {lemma}: verdict={report.verdict}{rate_note} ({dt:.2f}s)",
        file=sys.stderr,
    )
    return _VERDICT_EXIT[report.verdict]


# -- params ------------------------------------------------------------------------


def _cmd_params(args: argparse.Namespace) -> int:
    if args.C is not None and args.g is not None:
        print("--C and --g are mutually exclusive", file=sys.stderr)
        return EXIT_USAGE
    if args.g is not None:
        mode, factor = "ratio", Fraction(args.g)
    else:
        mode, factor = "constant", Fraction(args.C if args.C is not None else 1)
    params = paper_params(args.n, args.delta, args.k, mode=mode, factor=factor)
    print(f"ell = {params.ell}")
    exactness = "exact" if params.d_is_exact else "upper bound, n not a power of 2"
    print(f"d = {params.d} ({exactness})")
    print(f"log2(N) ~= {params.N_log2_approx:.6g}")
    for cond_name in SIDE_CONDITION_NAMES:
        print(f"{cond_name} = {params.side_condition(cond_name)}")
    if args.exact_side_conditions:
        exact = check_side_conditions_exact(
            args.n, params.delta, args.k, params.ell, params.N_exact
        )
        for cond_name, value in exact.items():
            print(f"exact:{cond_name} = {value}")
    return EXIT_OK


# -- report ------------------------------------------------------------------------


@dataclass
class _LemmaPool:
    files: list[str] = field(default_factory=list)
    columns: tuple[str, ...] | None = None
    rows: list[dict[str, str]] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)


_VERDICT_ORDER = [PASS, DIAGNOSTIC, STATISTICAL_FAIL, INVARIANT_FAIL]


def _read_trial_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = [ln for ln in _read(path).splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty CSV") from None
    for required in ("lemma", "verdict", "trial"):
        if required not in header:
            raise ValueError(f"{path}: missing required column '{required}'")
    rows = []
    for raw in reader:
        if len(raw) != len(header):
            raise ValueError(f"{path}: row width {len(raw)} != header {len(header)}")
        rows.append(dict(zip(header, raw)))
    return header, rows


def _cmd_report(args: argparse.Namespace) -> int:
    pools: dict[str, _LemmaPool] = {}
    for path in args.inputs:
        try:
            header, rows = _read_trial_csv(path)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        for row in rows:
            pool = pools.setdefault(row["lemma"], _LemmaPool())
            cols = tuple(sorted(header))
            if pool.columns is None:
                pool.columns = cols
            elif pool.columns != cols:
                offending = sorted(set(pool.columns) ^ set(cols))[0]
                print(
                    f"{path}: schema mismatch for lemma '{row['lemma']}' "
                    f"on column '{offending}'",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            if path not in pool.files:
                pool.files.append(path)
            pool.rows.append(row)
            pool.verdicts.append(row["verdict"])

    run = _run_record(args, "report", fmt="csv+json")
    summary: dict[str, Any] = {"run": run, "lemmas": {}}
    for lemma in sorted(pools):
        pool = pools[lemma]
        entry: dict[str, Any] = {
            "files": pool.files,
            "trials": len(pool.rows),
            "verdict": max(set(pool.verdicts), key=_VERDICT_ORDER.index),
            "verdicts_seen": sorted(set(pool.verdicts)),
        }
        if pool.columns and "success" in pool.columns:
            hits = sum(1 for r in pool.rows if r["success"] == "True")
            entry["hits"] = hits
            entry["pooled_success_rate"] = hits / len(pool.rows) if pool.rows else 0.0
        summary["lemmas"][lemma] = entry
    _emit_json(args.out_summary, summary)

    if args.out_long:
        rows = [
            [lemma, col, row["trial"], row[col]]
            for lemma in sorted(pools)
            for row in pools[lemma].rows
            for col in sorted(row)
            if col not in ("lemma", "trial", "verdict")
        ]
        header = ["lemma", "param", "trial", "value"]
        _emit(args.out_long, _csv_text(run, header, rows))
    print(f"merged {len(args.inputs)} file(s), {len(pools)} lemma(s)", file=sys.stderr)
    return EXIT_OK


# -- parser wiring -----------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: argparse makes a help
    formatter per argument, and main() parses with the one tree each call."""
    parser = _Parser(prog="cliquelab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    gen = sub.add_parser("gen", help="sample graphs from the built-in ensembles")
    gen.add_argument("kind", choices=list(_GEN_NEEDS))
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", default="1/2", help="edge probability (float or p/q)")
    gen.add_argument("--kappa", type=int, help="planted clique size")
    gen.add_argument("--k", type=int, help="pattern size")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--index", type=int, default=0)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    rgp_p = sub.add_parser("rgp", help="randomized graph product of an input graph")
    rgp_p.add_argument("--in", dest="infile", required=True)
    rgp_p.add_argument("--n", type=int, help="expected source size, checked if given")
    rgp_p.add_argument("--ell", type=int, required=True)
    rgp_p.add_argument("--N", type=int, required=True)
    rgp_p.add_argument("--seed", type=int, required=True)
    rgp_p.add_argument("--index", type=int, default=0)
    rgp_p.add_argument("--check", action="store_true", help="re-derive every edge")
    rgp_p.add_argument("--out-graph", required=True)
    rgp_p.add_argument("--out-family", required=True)
    rgp_p.set_defaults(func=_cmd_rgp)

    solve = sub.add_parser("solve", help="run an exact solver on an instance file")
    solve.add_argument("problem", choices=sorted(_SOLVE_NEEDS))
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--k", type=int)
    solve.add_argument("--r", type=int, help="clique size for count-cliques")
    solve.add_argument("--ell", type=int, help="side size for count-bicliques")
    solve.add_argument("--t", type=int, help="side size for contains-ktt")
    solve.add_argument("--pattern", help="pattern graph file for detect-pattern")
    solve.add_argument("--induced", action="store_true")
    solve.add_argument("--budget-ms", type=int)
    solve.add_argument("--out", help="output path (default stdout)")
    solve.set_defaults(func=_cmd_solve)

    reduce_p = sub.add_parser("reduce", help="rewrite an instance for another problem")
    reduce_p.add_argument("name", choices=list(_REDUCE_NEEDS))
    reduce_p.add_argument("--in", dest="infile", required=True)
    reduce_p.add_argument("--k", type=int, required=True)
    reduce_p.add_argument("--ell", type=int, help="half clique size for dksh")
    reduce_p.add_argument("--seed", type=int, help="partition/coloring seed")
    reduce_p.add_argument("--index", type=int, default=0)
    reduce_p.add_argument("--rainbow", help="ids pinned one per class, e.g. '0,3,5'")
    reduce_p.add_argument("--pattern", help="pattern graph for dks-to-induced-pattern")
    reduce_p.add_argument("--side-a", help="biclique side A ids")
    reduce_p.add_argument("--side-b", help="biclique side B ids")
    reduce_p.add_argument("--solution", help="vertex ids of a small-set solution")
    reduce_p.add_argument("--out-instance", help="target instance path")
    reduce_p.add_argument("--out-cert", help="certificate path")
    reduce_p.set_defaults(func=_cmd_reduce)

    ver = sub.add_parser("verify", help="Monte Carlo / exhaustive lemma checks")
    ver.add_argument("lemma", choices=list(_VERIFY))
    ver.add_argument("--n", type=int)
    ver.add_argument("--delta", help="float or p/q")
    ver.add_argument("--ell", type=int)
    ver.add_argument("--N", type=int)
    ver.add_argument("--k", type=int)
    ver.add_argument("--kappa", type=int)
    ver.add_argument("--t", type=int)
    ver.add_argument("--p", default=0.5, help="edge probability for averaging")
    ver.add_argument("--s-size", type=int, help="superset size for averaging")
    ver.add_argument("--j-samples", type=_at_least_one, default=20)
    # a J of one index has no pairs
    ver.add_argument("--j-size", type=_at_least(2), default=6)
    ver.add_argument("--max-set-size", type=int)
    ver.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    ver.add_argument("--samples", type=_at_least_one, default=1000)
    ver.add_argument("--max-retries", type=int, default=60)
    ver.add_argument("--trials", type=_at_least_one, required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument(
        "--threads", type=_at_least_one, help="default: 1, trials on the calling thread"
    )
    ver.add_argument("--out-json")
    ver.add_argument("--out-csv")
    ver.set_defaults(func=_cmd_verify)

    par = sub.add_parser("params", help="product parameters for a target size")
    par.add_argument("--n", type=int, required=True)
    par.add_argument("--delta", required=True, help="float or p/q")
    par.add_argument("--k", type=int, required=True)
    par.add_argument("--C", help="approximation constant (constant-factor regime)")
    par.add_argument("--g", help="ratio value g(k) (super-constant regime)")
    par.add_argument(
        "--exact-side-conditions",
        action="store_true",
        help="also evaluate side conditions by exact big-integer arithmetic",
    )
    par.set_defaults(func=_cmd_params)

    rep = sub.add_parser("report", help="merge trial CSVs into a summary")
    rep.add_argument("inputs", nargs="+", metavar="CSV")
    rep.add_argument("--out-summary", help="summary JSON path (default stdout)")
    rep.add_argument("--out-long", help="plot-ready long-format CSV path")
    rep.set_defaults(func=_cmd_report)

    return parser


# subcommand -> (the argument naming its variant, the flags each variant requires)
_NEEDS: dict[str, tuple[str, dict[str, tuple[str, ...]]]] = {
    "gen": ("kind", _GEN_NEEDS),
    "solve": ("problem", _SOLVE_NEEDS),
    "reduce": ("name", _REDUCE_NEEDS),
    "verify": ("lemma", {lemma: spec[1] for lemma, spec in _VERIFY.items()}),
}


def _check_required(args: argparse.Namespace) -> str | None:
    if args.subcommand not in _NEEDS:
        return None
    attr, needs = _NEEDS[args.subcommand]
    variant = getattr(args, attr)
    missing = [f for f in needs[variant] if getattr(args, f) is None]
    if missing:
        flag = missing[0].replace("_", "-")
        return f"{args.subcommand} {variant} requires --{flag}"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _check_required(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (CapExceeded, InfeasibleError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
