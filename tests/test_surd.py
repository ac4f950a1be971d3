import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from quadcf.surd import (
    CFExpansion,
    Surd,
    cf_expand,
    compare_to_fraction,
    convergents,
    eval_approx,
    is_reduced,
    make_surd,
    mobius,
    mobius_coeffs,
    periodic_tail,
    scale,
)
import quadcf.surd as surd
from quadcf.arith import InvariantError, is_square
from quadcf.surd import _state_walk
from quadcf.quad_orders import surd_coords
from helpers import (
    cf_digits_of_fraction,
    cycle_shape,
    cycle_states,
    dict_state_walk,
    random_surd,
    reduced_by_fractions,
    surd_fraction,
)


def test_make_surd_rescales_when_divisibility_fails():
    # (0 + sqrt(7))/3: 3 does not divide 7, so (P,Q,D) -> (0, 9, 63)
    x = make_surd(0, 1, 7, 3)
    assert (x.P, x.Q, x.D) == (0, 9, 63)


def test_make_surd_folds_the_coefficient_into_the_radicand():
    x = make_surd(1, 3, 2, 1)  # 1 + 3*sqrt(2) = 1 + sqrt(18)
    assert x.D == 18
    assert abs(float(x) - (1 + 3 * math.sqrt(2))) < 1e-12


def test_make_surd_negative_coefficient():
    x = make_surd(1, -1, 2, 1)  # 1 - sqrt(2) < 0
    assert abs(float(x) - (1 - math.sqrt(2))) < 1e-12
    assert x.Q * x.Q * x.D == x.D * x.Q**2  # canonical ints, no crash
    assert (x.D - x.P * x.P) % x.Q == 0


def test_make_surd_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        make_surd(1, 0, 5, 1)  # rational
    with pytest.raises(ValueError):
        make_surd(1, 1, 5, 0)  # zero denominator
    with pytest.raises(ValueError):
        make_surd(1, 1, 9, 1)  # square radicand
    with pytest.raises(ValueError):
        make_surd(1, 1, -2, 1)


def test_surd_validation():
    with pytest.raises(ValueError):
        Surd(0, 3, 7)  # 3 does not divide 7
    with pytest.raises(ValueError):
        Surd(0, 0, 5)
    with pytest.raises(ValueError):
        Surd(0, 1, 4)


def test_canonical_invariant_holds_on_random_inputs():
    rng = random.Random(501)
    for _ in range(500):
        x = random_surd(rng, ms=(2, 3, 5, 6, 7, 11, 13, 21))
        assert x.Q != 0 and x.D > 0
        assert (x.D - x.P * x.P) % x.Q == 0
        # value survives normalization
        p = rng.randint(-40, 40)
        r = rng.choice([i for i in range(-12, 13) if i])
        q = rng.choice([i for i in range(-10, 11) if i])
        y = make_surd(p, r, 7, q)
        want = (p + r * math.sqrt(7)) / q
        assert abs(float(y) - want) < 1e-9 * max(1, abs(want))


def test_surd_coords_identify_equal_numbers():
    a = make_surd(1, 2, 3, 2)     # (1 + 2*sqrt(3))/2
    b = make_surd(2, 4, 3, 4)     # same number, doubled
    c = make_surd(3, 2, 27, 6)    # (3 + 2*sqrt(27))/6, same after folding
    assert surd_coords(a) == surd_coords(b) == surd_coords(c)
    assert surd_coords(a) != surd_coords(make_surd(1, 2, 3, -2))


def test_mobius_coeffs_match_a_fraction_oracle():
    # y = (a*x + b)/c at 160 bits, on random pairs of one field (Q < 0 too)
    rng = random.Random(81)
    negative_q = 0
    for _ in range(600):
        m = rng.choice([2, 3, 5, 13])
        x, y = random_surd(rng, ms=(m,)), random_surd(rng, ms=(m,))
        negative_q += x.Q < 0 and y.Q < 0
        a, b, c = mobius_coeffs(x, y)
        assert c > 0 and math.gcd(a, b, c) == 1, (x, y)
        assert abs((a * surd_fraction(x) + b) / c - surd_fraction(y)) < Fraction(1, 2**120), (x, y)
        assert mobius_coeffs(mobius(x, a, b, c), y) == (1, 0, 1)
    assert negative_q > 50
    # equal values written differently, and a sign flip
    assert mobius_coeffs(Surd(0, 1, 2), Surd(0, 2, 8)) == (1, 0, 1)
    assert mobius_coeffs(Surd(0, 1, 2), Surd(0, -1, 2)) == (-1, 0, 1)
    assert mobius_coeffs(Surd(0, 1, 2), make_surd(3, 5, 2, 7)) == (5, 3, 7)


def test_mobius_coeffs_is_the_identity_exactly_on_equal_values():
    rng = random.Random(82)
    equal = 0
    for _ in range(600):
        m = rng.choice([2, 3, 5, 13])
        x = random_surd(rng, ms=(m,), span=6)
        if rng.random() < 0.3:
            k = rng.randint(1, 6)  # the same number, written with k*P, k*Q, k*k*D
            y = Surd(k * x.P, k * x.Q, k * k * x.D)
        else:
            y = random_surd(rng, ms=(m,), span=6)
        same = surd_coords(x) == surd_coords(y)
        equal += same
        assert (mobius_coeffs(x, y) == (1, 0, 1)) == same, (x, y)
    assert equal > 150
    for m, n in [(2, 3), (5, 13), (2, 8 * 3), (13, 52 * 5)]:
        with pytest.raises(ValueError, match="different fields"):
            mobius_coeffs(Surd(0, 1, m), Surd(1, 1, n))


def test_conjugate_flips_the_root():
    x = make_surd(3, 1, 2, 5)
    y = x.conjugate()
    # sum and product are rational: x + conj = 2P/Q, x*conj = (P^2-D)/Q^2
    assert abs((float(x) + float(y)) - 2 * x.P / x.Q) < 1e-12
    assert abs(float(x) * float(y) - (x.P**2 - x.D) / x.Q**2) < 1e-9


def test_floor_matches_high_precision_oracle():
    rng = random.Random(77)
    for _ in range(400):
        x = random_surd(rng, ms=(2, 3, 5, 13, 17, 29), span=120)
        fr = surd_fraction(x)
        assert cf_expand(x).digits(1) == [math.floor(fr)], x


def test_compare_to_fraction_is_exact():
    rng = random.Random(78)
    for _ in range(300):
        x = random_surd(rng)
        fr = surd_fraction(x)
        target = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        want = 1 if fr > target else -1
        assert compare_to_fraction(x, target) == want


def test_scale_and_mobius_track_float_arithmetic():
    rng = random.Random(79)
    for _ in range(200):
        x = random_surd(rng)
        n = rng.randint(1, 30)
        d = rng.randint(1, 9)
        assert abs(float(scale(x, n)) - float(x) * n) < 1e-9
        assert abs(float(mobius(x, n, 0, d)) - float(x) * n / d) < 1e-9
        a, b, c = rng.randint(-9, 9) or 1, rng.randint(-20, 20), rng.randint(1, 9)
        assert abs(float(mobius(x, a, b, c)) - (a * float(x) + b) / c) < 1e-9
    with pytest.raises(ValueError):
        scale(x, 0)


def test_classic_expansions():
    assert cf_expand(make_surd(0, 1, 2, 1)).preperiod == (1,)
    assert cf_expand(make_surd(0, 1, 2, 1)).period == (2,)
    assert cf_expand(make_surd(0, 1, 3, 1)).period == (1, 2)
    e7 = cf_expand(make_surd(0, 1, 7, 1))
    assert (e7.preperiod, e7.period) == ((2,), (1, 1, 1, 4))
    e13 = cf_expand(make_surd(0, 1, 13, 1))
    assert (e13.preperiod, e13.period) == ((3,), (1, 1, 1, 1, 6))
    golden = cf_expand(make_surd(1, 1, 5, 2))
    assert (golden.preperiod, golden.period) == ((), (1,))
    assert cf_expand(make_surd(0, 1, 5, 1)).period == (4,)


def test_sqrt_families():
    # sqrt(n^2+1) = [n; 2n repeating], sqrt(n^2-1) = [n-1; 1, 2n-2 repeating]
    for n in range(1, 30):
        e = cf_expand(make_surd(0, 1, n * n + 1, 1))
        assert (e.preperiod, e.period) == ((n,), (2 * n,))
    for n in range(2, 30):
        e = cf_expand(make_surd(0, 1, n * n - 1, 1))
        assert (e.preperiod, e.period) == ((n - 1,), (1, 2 * n - 2))


def test_digit_stream_matches_fraction_oracle():
    rng = random.Random(80)
    for _ in range(200):
        x = random_surd(rng, ms=(2, 3, 5, 7, 13, 19), span=25)
        want = cf_digits_of_fraction(surd_fraction(x, bits=400), 25)
        e = cf_expand(x)
        assert e == CFExpansion(*e), x  # built unchecked, it passes the checks
        got = list(e.digits(25))
        assert got == want[: len(got)], x


def test_purely_periodic_iff_reduced():
    rng = random.Random(81)
    seen_reduced = 0
    for _ in range(400):
        x = random_surd(rng)
        e = cf_expand(x)
        assert (len(e.preperiod) == 0) == is_reduced(x) == reduced_by_fractions(x), x
        seen_reduced += is_reduced(x)
    assert 0 < seen_reduced < 400  # both branches exercised


GOLDEN = make_surd(1, 1, 5, 2)  # (1 + sqrt(5))/2
SQRT7_THIRD = make_surd(1, 1, 7, 3)  # (1 + sqrt(7))/3


def multiples(x: Surd, count: int) -> list[Surd]:
    """N*x for N = 1 .. count."""
    return [scale(x, N) for N in range(1, count + 1)]


def cycle_rotations(xs: list[Surd]) -> list[Surd]:
    """Every state of each x's cycle, a purely periodic surd whose period
    starts at another place."""
    return [Surd(P, Q, x.D) for x in xs for P, Q in cycle_states(x)[:-1]]


def test_state_walk_matches_dict_hashing_oracle():
    rng = random.Random(84)
    randoms = [random_surd(rng, ms=(2, 3, 5, 6, 7, 13, 19, 43), span=120) for _ in range(3000)]
    negative_q = sum(x.Q < 0 for x in randoms)
    below_one = sum(surd_fraction(x) < 1 for x in randoms)
    long_preperiod = 0
    roots = [Surd(0, 1, D) for D in range(2, 300) if not is_square(D)]
    xs = randoms + multiples(GOLDEN, 300) + multiples(SQRT7_THIRD, 300)
    xs += cycle_rotations(roots + multiples(GOLDEN, 20) + multiples(SQRT7_THIRD, 20))
    shapes, lengths = Counter(), Counter()
    for k, x in enumerate(xs):
        digits, start, _ = want = dict_state_walk(x)
        assert _state_walk(x) == want, x
        long_preperiod += k < len(randoms) and start > 1
        shapes[cycle_shape(x), start > 0] += 1
        lengths[len(digits) - start] += 1
    assert min(negative_q, below_one, long_preperiod) > 100
    # every cycle shape, both at the input and after a preperiod
    for shape in ("q-before", "p-before", "elsewhere", "none"):
        assert shapes[shape, False] >= 5 and shapes[shape, True] >= 20, shape
    assert lengths[1] >= 20 and lengths[2] >= 20


def test_pure_root_half_walk_matches_the_general_walk():
    # sqrt(D) written as sqrt(4D)/2 never has Q = 1, and its states are
    # those of sqrt(D) doubled, so it has the same centres and digits
    for D in range(2, 20_000):
        if is_square(D):
            continue
        digits, start, (P, Q) = _state_walk(Surd(0, 1, D))
        assert _state_walk(Surd(0, 2, 4 * D)) == (digits, start, (2 * P, 2 * Q)), D


def test_pure_root_half_walk_matches_dict_hashing_oracle():
    for D in range(2, 2000):
        if not is_square(D):
            assert _state_walk(Surd(0, 1, D)) == dict_state_walk(Surd(0, 1, D)), D


class Counting(int):
    """A radicand that counts its subtractions D - P*P: one per walked
    digit, and one for the start test."""

    uses = 0

    def __sub__(self, other):
        Counting.uses += 1
        return int(self) - other


def counted_walk(x: Surd) -> int:
    y = tuple.__new__(Surd, (x.P, x.Q, Counting(x.D)))  # skips validation
    Counting.uses = 0
    assert _state_walk(y) == dict_state_walk(x), x
    return Counting.uses


def test_walk_stops_half_a_period_after_a_centre_before_the_start():
    rng = random.Random(87)
    centred = [Surd(0, 1, D) for D in range(2, 3000) if not is_square(D)]
    centred += multiples(GOLDEN, 200)
    others = multiples(SQRT7_THIRD, 200)
    others += [random_surd(rng, ms=(2, 3, 5, 6, 7, 13, 19, 43), span=60) for _ in range(1000)]
    shape_of = {x: cycle_shape(x) for x in centred + others}
    # every sqrt(D) and every N*(1 + sqrt(5))/2 has a centre before its start
    assert {shape_of[x] for x in centred} == {"q-before", "p-before"}
    shapes = Counter(shape_of.values())
    assert len(shapes) == 4 and min(shapes.values()) >= 50
    for x, shape in shape_of.items():
        digits, start, _ = dict_state_walk(x)
        L = len(digits) - start
        uses = counted_walk(x)
        if shape in ("q-before", "p-before"):
            assert uses <= start + L // 2 + 2, x
        elif shape == "elsewhere":
            assert uses - 1 < start + L, x  # stops at the second centre
        else:
            assert uses == start + 1 + L, x  # closes on its start


def test_walk_reaching_q_one_after_a_preperiod():
    # x = [c1; c2, ..., P + sqrt(D)]: the period starts one digit after the
    # state P + sqrt(D), P != isqrt(D), at sqrt(D)'s first reduced state,
    # at any depth of the preperiod.
    # Digits can be put in front of P + sqrt(D) only when it exceeds 1.
    rng = random.Random(85)
    for D in (2, 3, 7, 13, 19, 43, 94, 151, 331, 1000, 4097):
        s = math.isqrt(D)
        for P in (-s - 3, -s, -1, 0, 1 - s, s - 1, s + 1, 5 * s + 2):
            if P == s:
                continue
            x = Surd(P, 1, D)
            for depth in range(4 if P + s >= 1 else 1):
                want = dict_state_walk(x)
                assert _state_walk(x) == want, x
                assert want[1:] == (depth + 1, (s, D - s * s)), x
                # x -> c + 1/x, with 1/x = (-P + sqrt(D)) / ((D - P^2)/Q)
                q = (D - x.P * x.P) // x.Q
                x = Surd(rng.randint(1, 5) * q - x.P, q, D)


WALK_SHAPES = [
    # sqrt(D) = [s; period of L digits], from its first reduced state
    # (s, D - s*s): q-before for L = 1, p-before above
    pytest.param(Surd(0, 1, 2), 1, 1, (1, 1), "q-before", id="2-1"),
    pytest.param(Surd(0, 1, 3), 1, 2, (1, 2), "p-before", id="3-2"),
    pytest.param(Surd(0, 1, 7), 1, 4, (2, 3), "p-before", id="7-4"),
    pytest.param(Surd(0, 1, 13), 1, 5, (3, 4), "p-before", id="13-5"),
    # one preperiod digit, then a cycle of each other shape
    pytest.param(Surd(-44, 3, 13), 1, 5, (2, 3), "q-before", id="q-before-5"),
    pytest.param(Surd(-56, 3, 7), 1, 4, (2, 1), "elsewhere", id="elsewhere-4"),
    pytest.param(Surd(-39, 4, 13), 1, 5, (3, 1), "elsewhere", id="elsewhere-5"),
    pytest.param(Surd(-132, 9, 288), 1, 4, (15, 7), "none", id="none-4"),
    pytest.param(Surd(-240, 25, 325), 1, 3, (15, 4), "none", id="none-3"),
]


@pytest.mark.parametrize("x, pre, L, tail, shape", WALK_SHAPES)
def test_walk_budget_is_exact_at_both_parities(monkeypatch, x, pre, L, tail, shape):
    # the expansion takes pre + L digits, mirrored ones included
    assert cycle_shape(x) == shape
    monkeypatch.setattr(surd, "MAX_WALK_STEPS", pre + L)
    e = cf_expand(x)
    assert len(e.preperiod) == pre and len(e.period) == L
    assert periodic_tail(x) == Surd(*tail, x.D)
    monkeypatch.setattr(surd, "MAX_WALK_STEPS", pre + L - 1)
    for walk in (cf_expand, periodic_tail):
        with pytest.raises(ValueError, match=f"within {pre + L - 1} digits"):
            walk(x)


def test_both_walks_keep_the_lattice_witness():
    def unchecked(P, Q, D):
        return tuple.__new__(Surd, (P, Q, D))  # skips Surd's validation

    class Drifting(int):
        """A radicand whose subtraction is off by one after its first use."""

        uses = 0

        def __sub__(self, other):
            Drifting.uses += 1
            return int(self) - other + (Drifting.uses > 1)

    # (0 + sqrt(7))/3 is off the lattice at its first step: the preperiod
    # loop; sqrt(7) drifts after its first step: the periodic loop;
    # (2 + sqrt(7))/4 is reduced but off the lattice: the periodic loop
    for x in (unchecked(0, 3, 7), unchecked(0, 1, Drifting(7)), unchecked(2, 4, 7)):
        with pytest.raises(InvariantError, match="integral lattice"):
            _state_walk(x)


def test_state_walk_stops_at_its_step_budget(monkeypatch):
    x = make_surd(0, 1, 7, 1)  # sqrt(7) = [2; 1, 1, 1, 4]: five digits, two mirrored
    monkeypatch.setattr(surd, "MAX_WALK_STEPS", 5)
    assert cf_expand(x) == CFExpansion((2,), (1, 1, 1, 4))
    monkeypatch.setattr(surd, "MAX_WALK_STEPS", 4)
    for walk in (cf_expand, periodic_tail):
        with pytest.raises(ValueError, match="within 4 digits"):
            walk(x)


def test_periodic_tail_is_purely_periodic_rotation():
    rng = random.Random(82)
    for _ in range(200):
        x = random_surd(rng)
        e = cf_expand(x)
        tail = periodic_tail(x)
        te = cf_expand(tail)
        assert te.preperiod == ()
        assert len(te.period) == len(e.period)
        doubled = e.period + e.period
        assert any(
            doubled[i : i + len(te.period)] == te.period
            for i in range(len(e.period))
        )


def test_convergents_determinant_and_quality():
    rng = random.Random(83)
    for _ in range(60):
        x = random_surd(rng)
        e = cf_expand(x)
        pq = list(convergents(e.digits(12)))
        prev = (1, 0)
        for k, (p, q) in enumerate(pq):
            if k:
                det = p * prev[1] - prev[0] * q
                assert det == (-1) ** (k + 1)
            prev = (p, q)
        # |x - p/q| < 1/q^2 for the last convergent, checked exactly
        p, q = pq[-1]
        lo = Fraction(p, q) - Fraction(1, q * q)
        hi = Fraction(p, q) + Fraction(1, q * q)
        assert compare_to_fraction(x, lo) == 1 and compare_to_fraction(x, hi) == -1


def test_eval_approx_is_tight():
    rng = random.Random(84)
    for _ in range(100):
        x = random_surd(rng)
        got = eval_approx(x, bits=70)
        ref = surd_fraction(x, bits=200)
        assert abs(got - ref) <= Fraction(1, 2**66)


def test_cfexpansion_contract():
    with pytest.raises(ValueError):
        CFExpansion((1,), ())
    with pytest.raises(ValueError):
        CFExpansion((), (1, 0))
    with pytest.raises(ValueError):
        CFExpansion((1, 0), (1,))  # a 0 after the first digit, in the preperiod
    # the first digit may be 0 or negative, and the preperiod may be empty
    assert CFExpansion((-3, 1), (2,)).digits(3) == [-3, 1, 2]
    assert CFExpansion((0,), (1,)).digits(2) == [0, 1]
    assert CFExpansion((), (3,)).digits(2) == [3, 3]
    e = CFExpansion((4,), (2, 1))
    assert list(e.digits(6)) == [4, 2, 1, 2, 1, 2]
    assert e.period_length == 2


def test_repr_mentions_the_three_parameters():
    assert repr(make_surd(0, 1, 2, 1)) == "Surd((0+sqrt(2))/1)"
