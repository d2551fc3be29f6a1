"""Randomized graph product, its parameter calculator, and family checks.

A product instance is defined by a family of N vertex subsets of the source
graph, each the deduplicated result of ell uniform draws with replacement.
Product vertices i and j are adjacent exactly when the union of their subsets
induces a clique in the source.  The family is kept as the (N, ell) array of
its draws.  Construction computes each adjacency row as ell + 1 ANDs of N-bit
index masks, built from the source graph's closed neighborhoods; an
independent checker re-derives every edge decision through a different
formulation (counting forbidden pairs by matrix products) and compares the
decisions with the product's rows packed into little-endian bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .caps import budget, check_bits, check_budget, check_vertices
from .ensembles import Seed, as_fraction, as_seed, uniform_subset
from .exactmath import (
    approx_log2_fraction,
    ceil_frac_log2,
    ceil_pow_product,
    compare_pow,
    exact_log2,
)
from .graph import Graph, bit_rows, packed_rows
from .oracles import _search


class SubsetFamily:
    """N subsets of the source vertex set, each from ell draws with replacement.

    The family is held as `draws`, a read-only (N, ell) integer array whose
    row i lists the members of set i in ascending order, with a member
    repeated where draws coincided (or, for a family built from its sets, to
    fill the row).  The tuples `sets` and bitmasks `masks` are derived from it
    on first use.
    """

    __slots__ = ("source_n", "ell", "draws", "_sets", "_masks")

    def __init__(self, source_n: int, ell: int, sets: Sequence[Sequence[int]]):
        if source_n < 1:
            raise ValueError("source_n must be positive")
        if ell < 1:
            raise ValueError("ell must be positive")
        sets = tuple(tuple(s) for s in sets)
        for s in sets:
            if not 1 <= len(s) <= ell:
                raise ValueError(f"set {s} has size outside 1..{ell}")
            if list(s) != sorted(set(s)):
                raise ValueError(f"set {s} is not sorted and deduplicated")
            if s[0] < 0 or s[-1] >= source_n:
                raise ValueError(f"set {s} out of range for n={source_n}")
        rows = [s + s[-1:] * (ell - len(s)) for s in sets]
        draws = np.array(rows, dtype=np.int64).reshape(len(rows), ell)
        self._init(source_n, ell, draws)
        self._sets = sets

    @classmethod
    def _from_draws(cls, source_n: int, ell: int, draws: np.ndarray) -> "SubsetFamily":
        """A family from an (N, ell) array of in-range draws sorted along each row."""
        fam = cls.__new__(cls)
        fam._init(source_n, ell, draws)
        return fam

    def _init(self, source_n: int, ell: int, draws: np.ndarray) -> None:
        draws.flags.writeable = False
        self.source_n = source_n
        self.ell = ell
        self.draws = draws
        self._sets = None
        self._masks = None

    @property
    def N(self) -> int:
        return self.draws.shape[0]

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        if self._sets is None:
            # rows are sorted, so dropping repeats leaves each set in order
            self._sets = tuple(tuple(dict.fromkeys(row)) for row in self.draws.tolist())
        return self._sets

    @property
    def masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(bit_rows(self.membership()))
        return self._masks

    def membership(self) -> np.ndarray:
        """(N, source_n) boolean matrix, True where set i holds vertex u."""
        member = np.zeros((self.N, self.source_n), dtype=bool)
        member[np.arange(self.N)[:, None], self.draws] = True
        return member

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubsetFamily)
            and self.source_n == other.source_n
            and self.ell == other.ell
            and self.sets == other.sets
        )

    def __hash__(self) -> int:
        return hash((self.source_n, self.ell, self.sets))

    def __repr__(self) -> str:
        return f"SubsetFamily(source_n={self.source_n}, ell={self.ell}, N={self.N})"


def sample_family(
    n: int, N: int, ell: int, seed: int | Seed, index: int = 0
) -> SubsetFamily:
    """Draw N subsets, each the set of ell uniform vertex draws."""
    if n < 1 or N < 1 or ell < 1:
        raise ValueError("need n >= 1, N >= 1, ell >= 1")
    rng = as_seed(seed).stream("rgp-family", index)
    draws = rng.integers(0, n, size=(N, ell))
    draws.sort(axis=1)
    return SubsetFamily._from_draws(n, ell, draws)


def product_edge(g: Graph, fam: SubsetFamily, i: int, j: int) -> bool:
    """The defining rule, evaluated literally for one index pair."""
    if i == j:
        return False
    union = set(fam.sets[i]) | set(fam.sets[j])
    return g.is_clique(union)


def product_graph(g: Graph, fam: SubsetFamily) -> Graph:
    """Materialize the product graph for the given family.

    Let A_j be the intersection of the closed neighborhoods of S_j's members.
    The union of S_i and S_j is a clique iff both sets are cliques (S_i within
    A_i, S_j within A_j) and S_i lies within A_j.  That last condition says
    every member of S_i is adjacent or equal to every member of S_j, so it
    also gives S_j within A_i.  Over N-bit index masks, with C the indices of
    clique sets and P_u the indices j with u in A_j, the row of i in C is
    C & AND_{u in S_i} P_u less bit i; the row of a set that is no clique is
    empty.
    """
    if fam.source_n != g.n:
        raise ValueError("family was drawn from a different vertex count")
    N = fam.N
    check_vertices(N)
    closed = g.to_bool_matrix() | np.eye(g.n, dtype=bool)
    draws = fam.draws
    allowed = closed[draws[:, 0]]
    for c in range(1, fam.ell):
        allowed &= closed[draws[:, c]]
    clique = np.take_along_axis(allowed, draws, axis=1).all(axis=1)
    P = bit_rows(allowed.T)
    C = bit_rows(clique[None, :])[0]
    rows = [0] * N
    idx = np.flatnonzero(clique)
    for i, members in zip(idx.tolist(), draws[idx].tolist()):
        row = C
        for u in members:
            row &= P[u]
        rows[i] = row & ~(1 << i)
    return Graph._from_rows(N, tuple(rows))


def rgp(
    g: Graph, N: int, ell: int, seed: int | Seed, index: int = 0
) -> tuple[Graph, SubsetFamily]:
    check_vertices(N)
    fam = sample_family(g.n, N, ell, seed, index)
    return product_graph(g, fam), fam


@dataclass(frozen=True)
class EdgeRuleReport:
    ok: bool
    pairs_checked: int
    violation_count: int
    sample: tuple[tuple[int, int, bool, bool], ...]  # (i, j, expected, got)


def check_edge_rule(g: Graph, fam: SubsetFamily, product: Graph) -> EdgeRuleReport:
    """Re-derive every product edge decision by an independent formulation.

    For each pair, counts ordered (u, v) with u, v in the union and v outside
    u's closed neighborhood: the pairs inside set i (R_i), those inside set j
    (R_j), and those from set i to set j.  The union induces a clique iff the
    count is zero.  The count is assembled from dense float32 matrix products,
    sharing no code with product_graph's row build; a set with R_i > 0 is no
    clique, so its row is expected empty and skips the product.  Each chunk of
    expected rows is packed into little-endian bytes and compared with the
    product's rows as bytes, so the product is never unpacked; only rows that
    differ are unpacked, to list their violations in row-major order.
    """
    if fam.source_n != g.n or product.n != fam.N:
        raise ValueError("mismatched source graph, family, or product")
    N, n = fam.N, g.n
    B = np.zeros((N, n), dtype=np.float32)
    B[np.arange(N)[:, None], fam.draws] = 1.0
    closed = g.to_bool_matrix() | np.eye(n, dtype=bool)
    F = (~closed).astype(np.float32)
    D = B @ F  # D[i, v] = how many members of set i forbid v
    R = (B * D).sum(axis=1)
    got = packed_rows(product.rows, N)
    violations = 0
    sample: list[tuple[int, int, bool, bool]] = []
    chunk = max(1, (1 << 22) // max(N, 1))
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        # every term is a sum of non-negative counts, so == 0 is exact in float32
        cliques = np.flatnonzero(R[lo:hi] == 0.0)
        S = D[lo + cliques] @ B.T
        S += R[None, :]
        expected = np.zeros((hi - lo, N), dtype=bool)
        expected[cliques] = S == 0.0
        expected[np.arange(hi - lo), np.arange(lo, hi)] = False
        packed = np.packbits(expected, axis=1, bitorder="little")
        packed ^= got[lo:hi]
        differ = np.flatnonzero(packed.any(axis=1))
        if differ.size:
            # the differing bits of the differing rows, in row-major order
            a, b = np.nonzero(np.unpackbits(packed[differ], axis=1, count=N, bitorder="little"))
            violations += a.size
            for i, j in zip(differ[a[: 50 - len(sample)]].tolist(), b.tolist()):
                want = bool(expected[i, j])
                sample.append((i + lo, j, want, not want))
    return EdgeRuleReport(
        ok=violations == 0,
        pairs_checked=N * (N - 1) // 2,
        violation_count=violations // 2,  # symmetric mismatches counted once
        sample=tuple(sample),
    )


def implied_edges(
    fam: SubsetFamily, product_edges: Iterable[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    """Source edges forced by a set of product edges.

    For a product edge {i, j}, every pair (u, v) with u in set i, v in set j,
    u != v must be a source edge whenever the product edge is genuine.
    """
    out: set[tuple[int, int]] = set()
    draws = fam.draws
    for i, j in product_edges:
        # a row may repeat a member; the repeats only re-add the same pairs
        si, sj = draws[i].tolist(), draws[j].tolist()
        for u in si:
            for v in sj:
                if u != v:
                    out.add((u, v) if u < v else (v, u))
    return frozenset(out)


# -- parameter calculator -----------------------------------------------------


@dataclass(frozen=True)
class RgpParams:
    """Exact product parameters for a target instance size.

    N_exact is lazy and capped: at the formulas' own scale it would be a
    multi-gigabit integer, so it raises CapExceeded above SLOW_BIT_CAP bits.
    """

    n: int
    delta: Fraction
    k: int
    mode: str
    factor: Fraction
    ell: int
    d: Fraction
    d_is_exact: bool
    side_conditions: tuple[tuple[str, bool], ...]

    @cached_property
    def N_exact(self) -> int:
        return ceil_pow_product(100 * self.k, self.n, (1 - self.delta) * self.ell)

    @property
    def N_log2_approx(self) -> float:
        return math.log2(100 * self.k) + float((1 - self.delta) * self.ell) * math.log2(
            self.n
        )

    def side_condition(self, name: str) -> bool:
        for key, val in self.side_conditions:
            if key == name:
                return val
        raise KeyError(name)


SIDE_CONDITION_NAMES = (
    "N_at_least_10k_pow",
    "N_at_most_1000k_pow",
    "ell_at_least_k",
    "k_ell_at_most_n_pow_099delta",
)


def paper_params(
    n: int, delta, k: int, mode: str = "constant", factor=1
) -> RgpParams:
    """Product parameters from the stated formulas, log base 2 throughout.

    mode "constant" treats factor as the approximation constant C; mode
    "ratio" treats it as the value of the ratio function g at k.  The two
    formulas share one shape, ell = ceil(1e8 * factor * log2(n) / (delta^2 k)),
    N = ceil(100 k n^((1-delta) ell)), d = 1e7 log2(n) / (ell delta^2).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 20:
        raise ValueError("k must be at least 20")
    if mode not in ("constant", "ratio"):
        raise ValueError(f"mode must be 'constant' or 'ratio', got {mode!r}")
    delta = as_fraction(delta)
    if not 0 < delta <= Fraction(1, 2):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    factor = as_fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")

    coeff = Fraction(10**8) * factor / (delta * delta * k)
    ell = ceil_frac_log2(coeff, n)

    s = exact_log2(n)
    if s is not None:
        d = Fraction(10**7) * s / (ell * delta * delta)
        d_exact = True
    else:
        d = Fraction(10**7) * approx_log2_fraction(n) / (ell * delta * delta)
        d_exact = False

    # The two N range conditions hold by construction:
    # N = ceil(100 k n^e) >= 100 k n^e >= 10 k n^e, and
    # N <= 100 k n^e + 1 <= 1000 k n^e because 900 k n^e >= 1.
    exp2 = Fraction(99, 100) * delta
    cmp = compare_pow(k * ell, exp2.denominator, n, exp2.numerator)
    conditions = (
        (SIDE_CONDITION_NAMES[0], True),
        (SIDE_CONDITION_NAMES[1], True),
        (SIDE_CONDITION_NAMES[2], ell >= k),
        (SIDE_CONDITION_NAMES[3], cmp <= 0),
    )
    return RgpParams(
        n=n,
        delta=delta,
        k=k,
        mode=mode,
        factor=factor,
        ell=ell,
        d=d,
        d_is_exact=d_exact,
        side_conditions=conditions,
    )


def check_side_conditions_exact(
    n: int, delta, k: int, ell: int, N: int
) -> dict[str, bool]:
    """Literal big-integer evaluation of all four side conditions.

    Feasible only when n^((1-delta) ell) fits the slow big-int budget; use it
    on synthetic small-ell parameter tuples, not on formula-scale ones.
    """
    delta = as_fraction(delta)
    e = (1 - delta) * ell
    p, q = e.numerator, e.denominator
    check_bits(p * n.bit_length() + q * max(N, 1000 * k).bit_length(), "literal check")
    npow = n**p
    exp2 = Fraction(99, 100) * delta
    return {
        SIDE_CONDITION_NAMES[0]: N**q >= (10 * k) ** q * npow,
        SIDE_CONDITION_NAMES[1]: N**q <= (1000 * k) ** q * npow,
        SIDE_CONDITION_NAMES[2]: ell >= k,
        SIDE_CONDITION_NAMES[3]: (k * ell) ** exp2.denominator
        <= n**exp2.numerator,
    }


# -- disperser check ----------------------------------------------------------


@dataclass(frozen=True)
class DisperserReport:
    mode: str
    max_set_size: int
    ok: bool
    violation_count: int
    violations: tuple[tuple[tuple[int, ...], int, Fraction], ...]
    worst_ratio: Fraction | None
    worst_set: tuple[int, ...] | None
    nodes_visited: int


def check_disperser(
    fam: SubsetFamily,
    delta,
    max_set_size: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int | Seed | None = None,
    index: int = 0,
) -> DisperserReport:
    """Find index sets M, |M| <= max_set_size, whose union is dispersion-poor.

    A violation is |union of S_i over M| < delta/100 * |M| * ell.  Exhaustive
    mode proves there are none via depth-first search with a sound prune: a
    partial union already as large as the largest applicable threshold cannot
    shrink, so no extension violates.  The worst-ratio diagnostic is exact for
    |M| in {1, 2} (always swept) and otherwise covers the nodes the search
    actually expanded.  Every violation is counted; the report lists the first
    100 in sweep order (singletons by index, then pairs row by row, then the
    sets the search or the sampler visits), sorted.  The pair sweep counts one
    node per pair it unions, exhaustive mode one per node it expands and
    sampled mode one per sample, in one budget scope, so each raises
    CapExceeded once past the node cap and BudgetExceeded once past an
    enclosing deadline.
    """
    delta = as_fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    N, ell = fam.N, fam.ell
    T = max_set_size
    if not 1 <= T <= N:
        raise ValueError(f"max_set_size must lie in 1..{N}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode needs a seed")

    def threshold(t: int) -> Fraction:
        return Fraction(1, 100) * delta * t * ell

    masks = fam.masks
    violations: list[tuple[tuple[int, ...], int, Fraction]] = []
    violation_count = 0
    worst_ratio: Fraction | None = None
    worst_set: tuple[int, ...] | None = None
    nodes = 0

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

    def record(t: int, union_sizes: np.ndarray, members: tuple[np.ndarray, ...]) -> None:
        # note() for every t-set at once: union_sizes[p] belongs to the set
        # (members[0][p], ..., members[t-1][p]), in sweep order
        nonlocal worst_ratio, worst_set, violation_count
        pos = int(union_sizes.argmin())
        ratio = Fraction(int(union_sizes[pos]), t * ell)
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio, worst_set = ratio, tuple(int(m[pos]) for m in members)
        # an integer union size lies below threshold(t) iff it lies below its ceiling
        bad = np.flatnonzero(union_sizes < math.ceil(threshold(t)))
        violation_count += bad.size
        for p in bad[: 100 - len(violations)].tolist():
            violations.append(
                (tuple(int(m[p]) for m in members), int(union_sizes[p]), threshold(t))
            )

    # One budget scope counts the pairs swept and the nodes searched.
    with budget(None, "disperser sweep"):
        # Exact sweep over singletons and pairs for the diagnostic.
        record(1, np.array([m.bit_count() for m in masks]), (np.arange(N),))
        if T >= 2:  # T <= N, so there are pairs
            # the membership bits packed into bytes, read eight bytes at a time
            packed = np.packbits(fam.membership(), axis=1)
            words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
            chunk = max(1, (1 << 22) // N)
            for lo in range(0, N, chunk):
                hi = min(lo + chunk, N)
                rows, cols = np.triu_indices(hi - lo, 1 + lo, N)
                check_budget(rows.size)  # one node per pair of the chunk
                pops = np.zeros((hi - lo, N), dtype=np.uint32)
                for wi in range(words.shape[1]):
                    pops += np.bitwise_count(words[lo:hi, wi, None] | words[None, :, wi])
                block = pops[rows, cols]
                rows += lo
                if block.size:  # the last chunk can be one row, with no pair
                    record(2, block, (rows, cols))

        if mode == "exhaustive":
            thr_max = threshold(T)

            def node(members: tuple[int, ...], union: int):
                # one search node per index set, rooted at each single index
                nonlocal nodes
                nodes += 1
                size = union.bit_count()
                if len(members) > 2:  # depths 1 and 2 already swept exactly
                    note(members, size)
                if len(members) < T and size < thr_max:
                    for idx in range(members[-1] + 1, N):
                        yield members + (idx,), union | masks[idx]

            if T > 2:
                for idx in range(N):
                    _search(node, (idx,), masks[idx])
            # Depth <= 2 violations were found in the exact sweep above.
        else:
            rng = as_seed(seed).stream("disperser-sample", index)
            for _ in range(samples):
                t = int(rng.integers(1, T + 1))
                members = uniform_subset(N, t, rng)
                union = 0
                for i in members:
                    union |= masks[i]
                nodes += 1
                check_budget()
                if t > 2:  # t <= 2 was swept exactly; it still counts as a sample
                    note(members, union.bit_count())

    violations.sort()
    return DisperserReport(
        mode=mode,
        max_set_size=T,
        ok=violation_count == 0,
        violation_count=violation_count,
        violations=tuple(violations),
        worst_ratio=worst_ratio,
        worst_set=worst_set,
        nodes_visited=nodes,
    )
