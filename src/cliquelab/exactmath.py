"""Exact integer and rational arithmetic helpers.

Everything here either returns an exact value or raises CapExceeded; nothing
silently rounds.  Powers like n^(p/q) are handled through integer q-th roots,
so ceilings are computed without floating point.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv

from .caps import check_bits

# mpmath's iv.prec is process-wide; every change to it holds this lock, so a
# caller on another thread never computes at someone else's precision.
_PREC_LOCK = threading.RLock()


@contextmanager
def _working_prec(prec: int):
    """Run the block with iv.prec = prec, restoring it after, under _PREC_LOCK."""
    with _PREC_LOCK:
        old = iv.prec
        iv.prec = prec
        try:
            yield
        finally:
            iv.prec = old


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


def approx_log2_fraction(n: int, prec: int = 200) -> Fraction:
    """An upper bound on log2(n), exact for powers of two: the upper end of a
    prec-bit interval enclosure."""
    if n < 1:
        raise ValueError("n must be positive")
    s = exact_log2(n)
    if s is not None:
        return Fraction(s)
    with _working_prec(prec):
        return _iv_bounds(iv.log(iv.mpf(n)) / iv.log(iv.mpf(2)))[1]


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


def _raw_to_fraction(data: tuple) -> Fraction:
    """Exact value of an mpf data tuple (sign, mantissa, exponent, bitcount)."""
    sign, man, exp, _ = data
    man = int(man)
    if man == 0 and exp != 0:
        raise ValueError("non-finite value")
    v = Fraction(man) * (Fraction(2) ** int(exp))
    return -v if sign else v


def _iv_bounds(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an interval float."""
    lo, hi = x._mpi_
    return _raw_to_fraction(lo), _raw_to_fraction(hi)


def exp_neg_upper(x: Fraction, prec: int = 120) -> Fraction:
    """A rational upper bound on exp(-x), tight to the working precision."""
    if x < 0:
        raise ValueError("x must be non-negative")
    with _working_prec(prec):
        val = iv.exp(-iv.mpf(x.numerator) / x.denominator)
        return _iv_bounds(val)[1]


def compare_pow(a: int, ea: int, b: int, eb: int) -> int:
    """Sign of a**ea - b**eb for positive ints, avoiding huge materialization."""
    if a <= 0 or b <= 0 or ea < 0 or eb < 0:
        raise ValueError("need positive bases and non-negative exponents")
    with _working_prec(400):
        la = iv.log(iv.mpf(a)) * ea
        lb = iv.log(iv.mpf(b)) * eb
        if la.b < lb.a:
            return -1
        if lb.b < la.a:
            return 1
    # Interval enclosures overlap; fall back to exact comparison if affordable.
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
    with _working_prec(400):
        val = (iv.log(iv.mpf(n)) / iv.log(iv.mpf(2))) * iv.mpf(
            coeff.numerator
        ) / coeff.denominator
        blo, bhi = _iv_bounds(val)
        lo = math.ceil(blo)
        hi = math.ceil(bhi)
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
