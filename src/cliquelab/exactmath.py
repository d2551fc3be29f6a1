"""Exact integer and rational arithmetic helpers.

Everything here returns an exact value or raises CapExceeded.  A bound on an
irrational value is rounded up: the least prec-bit binary float at or above
it.  Powers like n^(p/q) are handled through integer q-th roots, so ceilings
are computed without floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .caps import check_bits


def pow2_split(n: int) -> tuple[int, int]:
    """n = odd << s with odd odd; returns (s, odd)."""
    if n <= 0:
        raise ValueError("n must be positive")
    s = (n & -n).bit_length() - 1
    return s, n >> s


def exact_log2(n: int) -> int | None:
    """log2(n) when n is a power of two, else None."""
    s, odd = pow2_split(n)
    return s if odd == 1 else None


def approx_log2_fraction(n: int) -> Fraction:
    """An upper bound on log2(n), exact for powers of two: the least 200-bit
    float at or above it."""
    if n < 1:
        raise ValueError("n must be positive")
    s = exact_log2(n)
    if s is not None:
        return Fraction(s)
    return _least_float_above(lambda bits: _log2_bounds(n, bits), 200)


def iroot_floor(x: int, q: int) -> int:
    """Largest r with r**q <= x, for x >= 0, q >= 1."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1 or x < 2:
        return x
    if q == 2:
        return math.isqrt(x)
    # Newton iteration from an overestimate; decreasing, so it terminates.
    r = 1 << -(-x.bit_length() // q)
    while True:
        nr = ((q - 1) * r + x // r ** (q - 1)) // q
        if nr >= r:
            break
        r = nr
    while r**q > x:
        r -= 1
    while (r + 1) ** q <= x:
        r += 1
    return r


def ceil_root(x: int, q: int) -> int:
    """Smallest r with r**q >= x, for x >= 0."""
    r = iroot_floor(x, q)
    return r if r**q == x else r + 1


def ceil_pow_product(a: int, n: int, exponent: Fraction) -> int:
    """Exact ceil(a * n**exponent) for positive a, n and positive rational exponent.

    With exponent = p/q, it is the ceiling q-th root of a**q * n**p, which is
    refused above SLOW_BIT_CAP bits.
    """
    if a <= 0 or n <= 1 or exponent <= 0:
        raise ValueError("need a >= 1, n >= 2, exponent > 0")
    p, q = exponent.numerator, exponent.denominator
    check_bits(p * n.bit_length() + q * a.bit_length(), "exact power")
    return ceil_root(a**q * n**p, q)


def _log2_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= log2(n) <= hi for n >= 1, about 2**-bits apart: repeated squaring
    of the fixed-point mantissa (Majithia and Levan, Proc. IEEE 1973), rounded
    down throughout for lo and up for hi."""
    e, f = n.bit_length() - 1, bits + 8
    ends = []
    for up in (0, 1):
        shr = (lambda v, k: -(-v >> k)) if up else (lambda v, k: v >> k)
        y, acc = shr(n << f, e), e  # y / 2**f in [1, 2]
        for _ in range(bits):
            y, acc = shr(y * y, f), 2 * acc
            if y >> f + 1:
                y, acc = shr(y, 1), acc + 1
        ends.append(Fraction(acc + up, 1 << bits))
    return ends[0], ends[1]


def _exp_neg_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= exp(-x) <= hi for x >= 0, at most 2**-bits apart: two consecutive
    partial sums of the alternating series sum_j (-x)**j / j!, taken once its
    terms decrease."""
    p, q = x.numerator, x.denominator
    num, den, t, j = 1, 1, 1, 0  # num/den sums the terms 0..j; t = (-p)**j
    while True:
        j, t = j + 1, -t * p
        num2, den2 = num * q * j + t, den * q * j
        if j >= x and abs(t) << bits <= den2:
            return tuple(sorted((Fraction(num, den), Fraction(num2, den2))))
        num, den = num2, den2


def _round_up(v: Fraction, prec: int) -> Fraction:
    """The least prec-bit binary float >= v, for v > 0."""
    s = prec - (v.numerator.bit_length() - v.denominator.bit_length())
    m = math.ceil(v * Fraction(2) ** s)  # between 2**(prec-1) and 2**(prec+1)
    if m.bit_length() > prec:
        m, s = -(-m >> 1), s - 1
    return m / Fraction(2) ** s


def _least_float_above(bounds, prec: int) -> Fraction:
    """The least prec-bit float >= v, from enclosures (lo, hi) = bounds(bits)
    of v: bits doubles until both ends round up to the same float, which
    ends when v is irrational."""
    bits = prec
    while True:
        lo, hi = bounds(bits)
        if lo > 0 and (up := _round_up(hi, prec)) == _round_up(lo, prec):
            return up
        bits *= 2


def exp_neg_upper(x: Fraction) -> Fraction:
    """An upper bound on exp(-x): the least 120-bit float at or above it."""
    if x < 0:
        raise ValueError("x must be non-negative")
    return _least_float_above(lambda bits: _exp_neg_bounds(x, bits), 120)


def compare_pow(a: int, ea: int, b: int, eb: int) -> int:
    """Sign of a**ea - b**eb for positive ints, avoiding huge materialization."""
    if a <= 0 or b <= 0 or ea < 0 or eb < 0:
        raise ValueError("need positive bases and non-negative exponents")
    (alo, ahi), (blo, bhi) = _log2_bounds(a, 400), _log2_bounds(b, 400)
    if ea * ahi < eb * blo:
        return -1
    if eb * bhi < ea * alo:
        return 1
    # The enclosures overlap; fall back to exact comparison if affordable.
    check_bits(max(ea * a.bit_length(), eb * b.bit_length()), "close power comparison")
    va, vb = a**ea, b**eb
    return (va > vb) - (va < vb)


def ceil_frac_log2(coeff: Fraction, n: int) -> int:
    """Exact ceil(coeff * log2(n)) for n >= 2 and positive rational coeff."""
    if n < 2 or coeff <= 0:
        raise ValueError("need n >= 2 and coeff > 0")
    s = exact_log2(n)
    if s is not None:
        return math.ceil(coeff * s)
    lo, hi = (math.ceil(coeff * v) for v in _log2_bounds(n, 400))
    if lo == hi:
        return lo
    # The enclosure straddles an integer m: decide val <= m exactly via
    # n**num <= 2**(m*den).  Only powers of two tie exactly, handled above.
    a, b = coeff.numerator, coeff.denominator
    for m in range(lo, hi + 1):
        if compare_pow(n, a, 2, m * b) <= 0:
            return m
    return hi


def binom_cdf(n: int, k: int, p: Fraction | int) -> Fraction:
    """Exact P[Binomial(n, p) <= k] for a rational p.

    With p = a/D in lowest terms and b = D - a, each term C(n, i) p^i (1-p)^(n-i)
    is the integer C(n, i) a^i b^(n-i) over D^n.  The integers of the shorter
    tail (i <= k when 2k < n, else i > k) are summed and divided once.
    """
    if not isinstance(p, (int, Fraction)):
        raise TypeError(f"p must be an int or a Fraction, got {type(p).__name__}")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if k < 0:
        return Fraction(0)
    if k >= n:
        return Fraction(1)
    a, d = p.numerator, p.denominator
    b = d - a
    lower = 2 * k < n
    terms = range(k + 1) if lower else range(k + 1, n + 1)
    tail = Fraction(sum(math.comb(n, i) * a**i * b ** (n - i) for i in terms), d**n)
    return tail if lower else 1 - tail
