import decimal
import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from quadcf.gauss_kuzmin import (
    Cylinder,
    GaussMeasure,
    Pattern,
    c_w,
    _window_counts,
    cylinder,
    pattern_frequency,
)
from quadcf.experiments import ScanConfig, converge_scan
from quadcf.surd import CFExpansion, cf_expand, make_surd
from helpers import random_surd, window_count


def test_single_digit_cylinders():
    # x starts with digit a exactly when x is in [1/(a+1), 1/a]
    for a in range(1, 30):
        cyl = cylinder((a,))
        assert (cyl.low, cyl.high) == (Fraction(1, a + 1), Fraction(1, a))


def test_two_digit_cylinder():
    cyl = cylinder((1, 1))
    assert (cyl.low, cyl.high) == (Fraction(1, 2), Fraction(2, 3))
    cyl = cylinder((2, 3))
    # [0;2,3] = 3/7, mediant with [0;2] = 1/2 gives 4/9
    assert (cyl.low, cyl.high) == (Fraction(3, 7), Fraction(4, 9))


def test_cylinder_endpoints_from_continuant_oracle():
    rng = random.Random(90)
    for _ in range(200):
        w = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        # continuants of [0; w] via the standard recurrence
        p0, q0, p1, q1 = 1, 0, 0, 1
        for a in w:
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        end = Fraction(p1, q1)
        med = Fraction(p1 + p0, q1 + q0)
        cyl = cylinder(w)
        assert {cyl.low, cyl.high} == {end, med}
        assert cyl.low < cyl.high


def test_cylinder_validation():
    with pytest.raises(ValueError):
        cylinder(())
    with pytest.raises(ValueError):
        cylinder((0,))
    with pytest.raises(ValueError):
        Cylinder(Fraction(1, 2), Fraction(1, 2))


def test_measure_ratios_are_exact():
    assert c_w((1,)).ratio == Fraction(4, 3)
    assert c_w((2,)).ratio == Fraction(9, 8)
    assert c_w((1, 1)).ratio == Fraction(10, 9)
    assert abs(c_w((1, 1)).as_float() - 0.1520031) < 1e-7


def test_single_digit_measures_telescope():
    # the product of (a+1)^2 / (a(a+2)) collapses to 2(A+1)/(A+2)
    for bound in (1, 10, 100, 1000):
        prod = Fraction(1)
        for a in range(1, bound + 1):
            prod *= c_w((a,)).ratio
        assert prod == Fraction(2 * (bound + 1), bound + 2)


def test_measure_as_float_matches_log2():
    g = c_w((3, 1, 2))
    assert isinstance(g, GaussMeasure)
    assert abs(g.as_float() - math.log2(g.ratio)) < 1e-15
    assert g.as_float() > 0


def test_measure_as_float_precision_on_short_patterns():
    # every pinned converge table takes c_w of patterns of at most 3 digits,
    # each <= 8; there log2(num) - log2(den) keeps a relative error <= 1e-9
    # (3.7e-10 at worst, at (6, 8, 8) and its reverse), though it cancels
    # for the small measures of long patterns
    ctx = decimal.Context(prec=60)
    ln2 = ctx.ln(Decimal(2))
    patterns = [w for k in (1, 2, 3) for w in itertools.product(range(1, 9), repeat=k)]
    assert len(patterns) == 584
    for w in patterns:
        m = c_w(w)
        exact = ctx.divide(ctx.ln(ctx.divide(Decimal(m.num), Decimal(m.den))), ln2)
        assert abs(Decimal(m.as_float()) - exact) <= Decimal("1e-9") * exact, w


def test_pattern_frequency_golden_ratio():
    e = cf_expand(make_surd(1, 1, 5, 2))  # all digits are 1
    assert pattern_frequency(e, (1,)) == 1
    assert pattern_frequency(e, (1, 1, 1)) == 1
    assert pattern_frequency(e, (1,) * 7) == 1
    assert pattern_frequency(e, (2,)) == 0


def test_pattern_frequency_counts_cyclically():
    e = cf_expand(make_surd(0, 1, 8, 1))  # sqrt(8) = [2; 1, 4 repeating]
    assert e.period == (1, 4)
    assert pattern_frequency(e, (1,)) == Fraction(1, 2)
    assert pattern_frequency(e, (4, 1)) == Fraction(1, 2)  # wraps around
    assert pattern_frequency(e, (1, 4, 1)) == Fraction(1, 2)  # longer than period
    assert pattern_frequency(e, (1, 4, 1, 4, 1)) == Fraction(1, 2)  # three copies
    assert pattern_frequency(e, (4, 1, 4, 1, 4, 4)) == 0
    assert pattern_frequency(e, (1, 1)) == 0


def test_pattern_frequency_of_factors_several_periods_long():
    rng = random.Random(93)
    for _ in range(200):
        e = cf_expand(random_surd(rng))
        L = len(e.period)
        k = rng.randint(-(-5 * L // 2), 3 * L + 2)
        i = rng.randrange(L)
        ext = e.period * (k // L + 2)
        w = ext[i : i + k]  # a factor of the digit tail
        count = sum(ext[j : j + k] == w for j in range(L))
        assert count >= 1
        assert pattern_frequency(e, w) == Fraction(count, L)


def test_pattern_frequency_memory_is_linear_in_period_plus_pattern():
    # 1999*sqrt(2) has the longest period (1496) of the primes below 2000;
    # k shifted slices of the period would hold k*L references (24 MB here)
    e = cf_expand(make_surd(0, 1999, 2, 1))
    assert len(e.period) == 1496
    w = (e.period * 3)[5:2005]
    tracemalloc.start()
    try:
        freq = pattern_frequency(e, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert freq == Fraction(1, 1496)
    assert peak < 2 * 10**6, peak


def test_pattern_frequency_matches_string_oracle():
    rng = random.Random(91)
    for _ in range(200):
        x = random_surd(rng)
        e = cf_expand(x)
        L = len(e.period)
        w = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        # count occurrences in the doubled-period word, windows starting
        # in the first copy
        ext = e.period * (2 + len(w) // max(L, 1))
        count = sum(
            1 for i in range(L) if tuple(ext[i : i + len(w)]) == w
        )
        assert pattern_frequency(e, w) == Fraction(count, L)


def test_window_counts_match_the_tuple_window_oracle():
    # several words per call, bordered ones among them, and k up to 3L + 2
    rng = random.Random(94)
    for _ in range(300):
        e = cf_expand(random_surd(rng))
        period, L = e.period, len(e.period)
        words = [(1,), (1, 1), (1, 2, 1), (2, 1, 2)]
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 3 * L + 2)
            if rng.random() < 0.5:  # a factor of the digit tail
                i = rng.randrange(L)
                words.append((period * (k // L + 2))[i : i + k])
            else:
                words.append(tuple(rng.choice(period + (1, 2)) for _ in range(k)))
        want = [window_count(period, w) for w in words]
        assert _window_counts(period, words) == want, period
        for w, count in zip(words, want):
            assert pattern_frequency(e, w) == Fraction(count, L)


# byte-lane boundaries, and digits the 32-bit array cannot hold
WIDE_DIGITS = (255, 256, 257, 65537, 2**24 + 1, 2**32 - 1, 2**32, 2**40 + 3)


def test_window_counts_on_synthetic_periods_with_wide_digits():
    rng = random.Random(95)
    for _ in range(600):
        alphabet = [1, 2, *rng.sample(WIDE_DIGITS, rng.randint(1, 3))]
        L = rng.choice((1, 1, 2, 3, rng.randint(4, 40)))
        e = CFExpansion((rng.randint(-3, 3),), tuple(rng.choice(alphabet) for _ in range(L)))
        period = e.period
        words = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 3 * L + 2)
            if rng.random() < 0.5:
                i = rng.randrange(L)
                words.append((period * (k // L + 2))[i : i + k])
            else:  # digits off the period too, one byte apart from its own
                pool = alphabet + [rng.choice(WIDE_DIGITS), 1 + 256 * rng.randint(1, 2**24)]
                words.append(tuple(rng.choice(pool) for _ in range(k)))
        want = [window_count(period, w) for w in words]
        assert _window_counts(period, words) == want, (period, words)
        for w, count in zip(words, want):
            assert pattern_frequency(e, w) == Fraction(count, L)


def test_window_counts_of_bordered_words_count_overlapping_windows():
    period = (1, 1, 2, 1, 2, 1)  # (1, 1) and (1, 1, 1) also start at its last digit
    assert _window_counts(period, [(1, 1), (1, 2, 1), (1, 1, 1), (2, 1, 1), (2,)]) == [
        2, 2, 1, 1, 2,
    ]
    assert _window_counts((7,), [(7,), (7,) * 5, (7, 8), (8,)]) == [1, 1, 0, 0]
    assert _window_counts((2**32, 1), [(2**32,), (1, 2**32, 1), (2**32 + 1,)]) == [1, 1, 0]
    assert _window_counts((257, 1), [(1,), (257,), (2,), (1, 257)]) == [1, 1, 0, 1]


def test_window_counts_memory_is_linear_in_the_period():
    # no mask outlives its digit: 64 distinct digits, one word of all of
    # them and 64 words of one each, peak at a small multiple of L bytes
    # where holding every digit's mask would take 59 L
    e = cf_expand(make_surd(0, 1999, 2, 1))
    period, L = e.period, len(e.period)
    assert L == 1496
    digits = sorted(set(period))
    assert len(digits) == 59
    digits += [2**8 + 3, 2**16 + 3, 2**24 + 3, 2**32 - 3, 2**40 + 3]
    for words in ([tuple(digits)], [(a,) for a in digits]):
        tracemalloc.start()
        try:
            counts = _window_counts(period, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [window_count(period, w) for w in words]
        assert peak < 20 * L, peak


def test_refinement_identity_is_exact():
    # the frequency of w is the sum of the frequencies of w extended by
    # one more digit, since every occurrence has exactly one successor
    rng = random.Random(92)
    for _ in range(100):
        x = random_surd(rng)
        e = cf_expand(x)
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        total = sum(
            (pattern_frequency(e, w + (a,)) for a in range(1, max(e.period) + 1)),
            Fraction(0),
        )
        assert total == pattern_frequency(e, w)


def test_deviation_value_for_sqrt8():
    # the N = 2 row of a sqrt(2) scan is 2*sqrt(2) = sqrt(8) = [2; (1, 4)]
    (row,) = converge_scan(ScanConfig(d=2, patterns=((1,),), bound=2))
    assert row.N == 2
    want = abs(0.5 - math.log2(Fraction(4, 3)))
    assert abs(row.deviation - want) < 1e-12
    assert abs(want - 0.08496250072115608) < 1e-15


def test_pattern_label():
    assert Pattern((1, 1)).label() == "1-1"
    assert Pattern((12,)).label() == "12"
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ValueError):
        Pattern((1, 0))
