from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from cliquelab.errors import CapExceeded
from cliquelab.exactmath import (
    approx_log2_fraction,
    binom_cdf,
    ceil_frac_log2,
    ceil_pow_product,
    ceil_root,
    compare_pow,
    exact_log2,
    exp_neg_upper,
    iroot_floor,
    pow2_split,
)
from cliquelab.reductions import lemma44_bound
from cliquelab.verify import exact_tail_p_value


def test_pow2_split_basics():
    assert pow2_split(1) == (0, 1)
    assert pow2_split(12) == (2, 3)
    assert pow2_split(2**20) == (20, 1)


def test_exact_log2():
    assert exact_log2(1) == 0
    assert exact_log2(2**17) == 17
    assert exact_log2(3) is None
    assert exact_log2(12) is None


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
def test_iroot_floor_is_floor(x, q):
    r = iroot_floor(x, q)
    assert r**q <= x < (r + 1) ** q


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=5))
def test_ceil_root_is_ceiling(x, q):
    r = ceil_root(x, q)
    assert (r - 1) ** q < x <= r**q or (x == 0 and r == 0)


def test_ceil_pow_product_integer_exponent():
    assert ceil_pow_product(3, 10, Fraction(2)) == 300
    assert ceil_pow_product(5, 2, Fraction(10)) == 5120
    with pytest.raises(ValueError):
        ceil_pow_product(1, 2, Fraction(0))
    # a power of two gets no larger bit cap than any other base
    with pytest.raises(CapExceeded):
        ceil_pow_product(1, 2, Fraction(10**7 + 1))


_small_fraction = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=4),
)


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=2, max_value=12),
    _small_fraction,
)
def test_ceil_pow_product_matches_fraction_power(a, n, exponent):
    got = ceil_pow_product(a, n, exponent)
    # independent check: a * n^(p/q) <= got < a * n^(p/q) + 1, via q-th powers
    q = exponent.denominator
    p = exponent.numerator
    lhs = a**q * n**p  # (a n^e)^q
    assert (got - 1) ** q < lhs <= got**q


@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=40),
)
def test_compare_pow_matches_integers(a, ea, b, eb):
    lhs, rhs = a**ea, b**eb
    want = (lhs > rhs) - (lhs < rhs)
    assert compare_pow(a, ea, b, eb) == want


def test_ceil_frac_log2_known_values():
    # ceil(c * log2 n) for hand-checkable pairs
    assert ceil_frac_log2(Fraction(1), 2) == 1
    assert ceil_frac_log2(Fraction(1), 1024) == 10
    assert ceil_frac_log2(Fraction(3, 2), 8) == 5  # 4.5 -> 5
    assert ceil_frac_log2(Fraction(1, 3), 8) == 1  # exactly 1


@given(
    st.builds(
        Fraction,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
    ),
    st.integers(min_value=2, max_value=10**6),
)
def test_ceil_frac_log2_is_ceiling(coeff, n):
    r = ceil_frac_log2(coeff, n)
    # r - 1 < coeff*log2(n) <= r, checked in exact integer arithmetic:
    # coeff*log2(n) <= r  <=>  n^num <= 2^(r*den)
    num, den = coeff.numerator, coeff.denominator
    assert n**num <= 2 ** (r * den)
    assert n**num > 2 ** ((r - 1) * den)


def test_approx_log2_fraction_brackets_true_value():
    for n in (2, 3, 10, 1_048_576, 10**9 + 7):
        approx = approx_log2_fraction(n)
        assert abs(float(approx) - math.log2(n)) < 1e-12


def test_approx_log2_fraction_is_an_upper_bound():
    # log2(n) is irrational here; within 2**-990 of a 1000-bit float
    for n in (3, 1000, 10**9 + 7):
        with mp.workprec(1000):
            man, exp = mp.log(n, 2).man_exp
        assert approx_log2_fraction(n) >= man * Fraction(2) ** exp + Fraction(1, 2**990)


def test_exp_neg_upper_is_an_upper_bound():
    for x in (Fraction(1, 32), Fraction(1), Fraction(7, 3)):
        ub = exp_neg_upper(x)
        assert float(ub) >= math.exp(-float(x))
        assert float(ub) - math.exp(-float(x)) < 1e-12


def _least_float_at_or_above(x, bits: int) -> Fraction:
    """The least bits-bit float >= a value that the 1100-bit mpf x gives to
    within 2**-1000 relative; both ends of that range must agree."""
    man, exp = x.man_exp
    mid = man * Fraction(2) ** exp
    ends = set()
    for v in (mid - mid / 2**1000, mid + mid / 2**1000):
        e = 0
        while v * Fraction(2) ** e >= 2**bits:
            e -= 1
        while v * Fraction(2) ** e < 2 ** (bits - 1):
            e += 1
        ends.add(math.ceil(v * Fraction(2) ** e) / Fraction(2) ** e)
    assert len(ends) == 1
    return ends.pop()


@pytest.mark.parametrize(
    "x", [Fraction(1, 32), Fraction(1, 3), Fraction(7, 3), Fraction(50), Fraction(1000, 7)]
)
def test_exp_neg_upper_is_the_least_120_bit_float_above(x):
    with mp.workprec(1100):
        value = mp.exp(-mp.mpf(x.numerator) / x.denominator)
    want = _least_float_at_or_above(value, 120)
    assert exp_neg_upper(x) == want


@pytest.mark.parametrize("n", [3, 1000, 10**9 + 7, 2**20 + 1, 12345678901234567])
def test_approx_log2_fraction_is_the_least_200_bit_float_above(n):
    with mp.workprec(1100):
        value = mp.log(n, 2)
    want = _least_float_at_or_above(value, 200)
    assert approx_log2_fraction(n) == want


def test_binom_cdf_exact_small_cases():
    # Bin(2, 1/2): P[X <= 0] = 1/4, P[X <= 1] = 3/4, P[X <= 2] = 1
    p = Fraction(1, 2)
    assert binom_cdf(2, 0, p) == Fraction(1, 4)
    assert binom_cdf(2, 1, p) == Fraction(3, 4)
    assert binom_cdf(2, 2, p) == 1


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=8).map(lambda q: Fraction(q, 8)),
)
def test_binom_cdf_sums_to_one_and_monotone(n, p):
    values = [binom_cdf(n, k, p) for k in range(n + 1)]
    assert values[-1] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))
    brute = sum(
        Fraction(math.comb(n, j)) * p**j * (1 - p) ** (n - j) for j in range(n // 2 + 1)
    )
    assert binom_cdf(n, n // 2, p) == brute


def _binom_cdf_reference(n: int, k: int, p: Fraction) -> Fraction:
    """The former binom_cdf: the lower tail summed in Fraction powers."""
    if k < 0:
        return Fraction(0)
    if k >= n:
        return Fraction(1)
    q = 1 - p
    total = Fraction(0)
    for i in range(k + 1):
        total += math.comb(n, i) * p**i * q ** (n - i)
    return total


@st.composite
def _binom_case(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    k = draw(st.integers(min_value=-1, max_value=n + 1))
    m = draw(st.integers(min_value=1, max_value=1000))
    p = draw(
        st.one_of(
            st.just(Fraction(0)),
            st.just(Fraction(1)),
            st.integers(min_value=0, max_value=m).map(lambda q: Fraction(q, m)),
        )
    )
    return n, k, p


@settings(max_examples=300, deadline=None)
@given(_binom_case())
# 2k = n sums the upper tail and 2k = n - 1 the lower one.
@example((60, 30, Fraction(7, 997)))
@example((59, 29, Fraction(7, 997)))
def test_binom_cdf_equals_the_fraction_power_sum(case):
    n, k, p = case
    want = _binom_cdf_reference(n, k, p)
    got = binom_cdf(n, k, p)
    assert type(got) is Fraction
    assert got == want
    assert exact_tail_p_value(n, k, p) == want


def test_binom_cdf_rejects_float_p():
    with pytest.raises(TypeError):
        binom_cdf(3, 1, 0.5)
    assert binom_cdf(3, 1, Fraction(1, 2)) == Fraction(1, 2)
    assert binom_cdf(3, 1, 0) == 1
    assert binom_cdf(3, 1, 1) == 0


def test_log2_and_exp_bounds_agree_across_threads():
    # Two threads on different inputs get the values one thread gets alone.
    def work(n: int, x: Fraction) -> list[Fraction]:
        return [approx_log2_fraction(n), exp_neg_upper(x), lemma44_bound(64, 4, 2)]

    cases = ((10**9 + 7, Fraction(1, 3)), (12345678901234567, Fraction(7, 3)))
    want = {case: work(*case) for case in cases}
    got: dict[tuple, list[list[Fraction]]] = {case: [] for case in cases}

    def loop(case: tuple) -> None:
        for _ in range(300):
            got[case].append(work(*case))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop, args=(case,)) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for case in cases:
        assert len(got[case]) == 300
        assert all(values == want[case] for values in got[case])


def test_domain_errors():
    with pytest.raises(ValueError):
        iroot_floor(-1, 2)
    with pytest.raises(ValueError):
        exact_log2(0)
    with pytest.raises(ValueError):
        binom_cdf(3, 1, Fraction(3, 2))
