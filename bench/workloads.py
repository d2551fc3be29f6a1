"""The benchmark's workloads: which CLI invocations make up one op.

A workload is a list of ops that forms one round; a run repeats whole rounds.
Every op is a fixed list of `cliquelab` command lines, so an op at a given
position of the round does the same work each time it runs.  Output paths
name the placeholder `{dir}`, the op's output directory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    key: str  # identifies the op's work; ops with equal keys write equal bytes
    trials: int
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # files the calls write under {dir}

    def argv(self, call: tuple[str, ...], directory: str) -> list[str]:
        return [arg.replace("{dir}", directory) for arg in call]


# Criterion 4's shape: n=60, ell=2, N=500, k=4, 20 J-samples of size 6.
SOUNDNESS_N = 60
SOUNDNESS_PRODUCT_N = 500
SOUNDNESS_KAPPA = 20
SOUNDNESS_TRIALS = 12

# Criterion 2's shape: n=100, delta=1/2 (kappa=10), ell=2, k=3, N=3000.
COMPLETENESS_N = 100
COMPLETENESS_PRODUCT_N = 3000
COMPLETENESS_K = 3
COMPLETENESS_TRIALS = 200

# The omega-gap path: n=60 sources, kappa=20, ell=2, N=2000.
GAP_N = 60
GAP_KAPPA = 20
GAP_PRODUCT_N = 2000
GAP_TRIALS_PER_ROUND = 12
GAP_BUDGET_MS = 120_000

ARMS = ("null", "planted")

# The untimed warm-up op is the first op of the round built from this seed,
# whatever --seed is, so that set-up time does not vary with the inputs.
WARM_UP_SEED = 0
WARM_UP_KEY = "warm-up"


def soundness(seed: int) -> list[Op]:
    """Null arm then planted arm, SOUNDNESS_TRIALS trials each."""
    base = (
        "verify", "soundness",
        "--n", str(SOUNDNESS_N), "--ell", "2", "--N", str(SOUNDNESS_PRODUCT_N),
        "--k", "4", "--j-samples", "20", "--j-size", "6",
        "--trials", str(SOUNDNESS_TRIALS), "--seed", str(seed),
    )
    ops = []
    for arm in ARMS:
        planted = ("--kappa", str(SOUNDNESS_KAPPA)) if arm == "planted" else ()
        out = f"{{dir}}/soundness-{arm}.json"
        ops.append(
            Op(arm, SOUNDNESS_TRIALS, (base + planted + ("--out-json", out),), (out,))
        )
    return ops


def completeness(seed: int) -> list[Op]:
    """One op of COMPLETENESS_TRIALS trials, on one thread.

    The trials hold the GIL, so on the default pool of 2 threads they wait
    for each other's hand-offs: the op is slower than on one thread, and its
    wall time swung by a quarter between runs on a shared 2-vCPU host.
    """
    out = "{dir}/completeness.json"
    call = (
        "verify", "completeness",
        "--n", str(COMPLETENESS_N), "--delta", "1/2", "--ell", "2",
        "--N", str(COMPLETENESS_PRODUCT_N), "--k", str(COMPLETENESS_K),
        "--trials", str(COMPLETENESS_TRIALS), "--seed", str(seed),
        "--threads", "1", "--out-json", out,
    )
    return [Op("completeness", COMPLETENESS_TRIALS, (call,), (out,))]


def gap_paths(arm: str) -> dict[str, str]:
    return {
        name: f"{{dir}}/{arm}-{name}.{ext}"
        for name, ext in (
            ("source", "txt"), ("product", "txt"), ("family", "txt"), ("clique", "json")
        )
    }


def clique_gap(seed: int) -> list[Op]:
    """One op per trial index: both arms through gen, rgp --check and solve."""
    ops = []
    for index in range(GAP_TRIALS_PER_ROUND):
        calls: list[tuple[str, ...]] = []
        outputs: list[str] = []
        for arm in ARMS:
            p = gap_paths(arm)
            kind = ("er",) if arm == "null" else ("planted", "--kappa", str(GAP_KAPPA))
            calls.append(
                ("gen",) + kind + (
                    "--n", str(GAP_N), "--seed", str(seed), "--index", str(index),
                    "--out", p["source"],
                )
            )
            calls.append(
                (
                    "rgp", "--in", p["source"], "--ell", "2",
                    "--N", str(GAP_PRODUCT_N), "--seed", str(seed),
                    "--index", str(index), "--check",
                    "--out-graph", p["product"], "--out-family", p["family"],
                )
            )
            calls.append(
                (
                    "solve", "max-clique", "--in", p["product"],
                    "--budget-ms", str(GAP_BUDGET_MS), "--out", p["clique"],
                )
            )
            outputs.extend(p.values())
        ops.append(Op(f"trial-{index}", 1, tuple(calls), tuple(outputs)))
    return ops


WORKLOADS = {
    "soundness": soundness,
    "completeness": completeness,
    "clique-gap": clique_gap,
}
