"""Seeded random graph ensembles.

All sampling goes through named substreams derived from (seed, tag, index),
so any trial of any experiment can be reproduced in isolation.  The generator
is numpy's PCG64 seeded via SeedSequence over the triple; the tag is hashed
with blake2s to a stable 64-bit key (Python's hash() is salted per process
and would break reproducibility).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import ceil_pow_product
from .graph import Graph

GENERATOR_ID = f"numpy-pcg64-seedsequence(seed,blake2s(tag),index) numpy={np.__version__}"


def _tag_key(tag: str) -> int:
    return int.from_bytes(hashlib.blake2s(tag.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Seed:
    """64-bit base seed with named, independent substreams."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def stream(self, tag: str, index: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence([self.value, _tag_key(tag), index])
        return np.random.Generator(np.random.PCG64(ss))


def as_seed(seed: int | Seed) -> Seed:
    return seed if isinstance(seed, Seed) else Seed(seed)


def as_probability(p) -> float:
    p = float(Fraction(p)) if isinstance(p, str) else float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return p


def as_fraction(x) -> Fraction:
    """Exact rational from Fraction/int/str; floats go through their shortest
    decimal repr so 0.37 means 37/100, not the binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class PlantedInstance:
    graph: Graph
    clique: tuple[int, ...]
    n: int
    p: float
    kappa: int
    seed: int
    index: int


@functools.lru_cache(maxsize=4)
def _upper(n: int) -> np.ndarray:
    """Read-only mask of the pairs u < v, True in row-major pair order."""
    mask = ~np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _er_matrix(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[_upper(n)] = rng.random(n * (n - 1) // 2) < p
    adj |= adj.T
    return adj


def sample_er(n: int, p, seed: int | Seed, index: int = 0) -> Graph:
    """G(n, p) with one uniform draw per vertex pair, in pair order."""
    p = as_probability(p)
    rng = as_seed(seed).stream("er", index)
    return Graph.from_bool_matrix(_er_matrix(n, p, rng))


def sample_planted(
    n: int, p, kappa: int, seed: int | Seed, index: int = 0
) -> PlantedInstance:
    """G(n, p) plus a clique on a uniform kappa-subset.

    The kappa-subset comes from uniform_subset on its own substream,
    so with kappa = 1 the edge set coincides with sample_er at the same seed.
    """
    p = as_probability(p)
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must lie in 1..{n}, got {kappa}")
    s = as_seed(seed)
    adj = _er_matrix(n, p, s.stream("er", index))
    clique = uniform_subset(n, kappa, s.stream("planted-clique", index))
    members = np.array(clique)
    adj[np.ix_(members, members)] = True
    adj[members, members] = False
    return PlantedInstance(
        graph=Graph.from_bool_matrix(adj),
        clique=clique,
        n=n,
        p=p,
        kappa=kappa,
        seed=s.value,
        index=index,
    )


def sample_pattern(k: int, seed: int | Seed, index: int = 0) -> Graph:
    """Uniform graph on k labeled vertices (every edge with probability 1/2)."""
    rng = as_seed(seed).stream("pattern", index)
    return Graph.from_bool_matrix(_er_matrix(k, 0.5, rng))


def planted_kappa(n: int, delta) -> int:
    """ceil(n**delta) exactly, via integer roots."""
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ValueError(f"delta must lie in (0, 1), got {d}")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    return ceil_pow_product(1, n, d)


def uniform_subset(n: int, size: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform size-subset of range(n) by Fisher-Yates prefix."""
    return uniform_subsets(n, size, 1, rng)[0]


def uniform_subsets(
    n: int, size: int, count: int, rng: np.random.Generator
) -> tuple[tuple[int, ...], ...]:
    """count uniform size-subsets of range(n), each by Fisher-Yates prefix.

    Swap i of a subset takes a position in i..n-1.  All count * size offsets
    come from one rng.integers call over the bounds n, n-1, ..., n-size+1,
    repeated count times; numpy draws an array of bounds one element after
    the other, so the subsets, and the generator's state after them, are
    those of count successive single draws (tests pin this).
    """
    if not 0 <= size <= n:
        raise ValueError(f"size must lie in 0..{n}")
    offsets = rng.integers(0, np.tile(np.arange(n, n - size, -1), count)).tolist()
    subsets = []
    for c in range(count):
        moved: dict[int, int] = {}  # the positions swapped so far, and their values
        for i, j in enumerate(offsets[c * size : (c + 1) * size]):
            j += i
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        subsets.append(tuple(sorted(moved[i] for i in range(size))))
    return tuple(subsets)


def expected_er_edges(n: int, p: float) -> float:
    return math.comb(n, 2) * p
