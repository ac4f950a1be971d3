import math
import random
from fractions import Fraction

import pytest

from quadcf import matrix_orders, quad_orders
from quadcf.arith import InvariantError, factorize, is_square
from quadcf.matrix_orders import mat_order_mod
from quadcf.quad_orders import (
    AlgInt,
    Mat2,
    OrderSpec,
    R_of,
    _log_value,
    _unit_from_period,
    alg_mul,
    alg_pow,
    alg_value,
    conductor_of_surd,
    field_data,
    in_suborder,
    phi,
    regulator_of_order,
    surd_coords,
    unit_group_index,
)
from quadcf.surd import make_surd, mobius, periodic_tail, scale
from helpers import (
    brute_pell,
    brute_sign_index,
    brute_unit_index,
    element_norm,
    frac_sqrt,
    fraction_log_value,
    mat_mul,
    random_surd,
)

SQUAREFREE_TO_60 = [
    m for m in range(2, 61)
    if all(m % (p * p) for p in (2, 3, 5, 7))
]


def test_field_data_frozen_shapes():
    f5 = field_data(5)
    assert (f5.m, f5.D, f5.t, f5.nrm) == (5, 5, 1, -1)
    assert (f5.epsD.a, f5.epsD.b) == (0, 1)  # golden ratio is xD itself
    assert f5.unit_norm == -1
    f2 = field_data(2)
    assert (f2.m, f2.D, f2.t, f2.nrm) == (2, 8, 0, -2)
    assert (f2.epsD.a, f2.epsD.b) == (1, 1)  # 1 + sqrt(2)
    assert field_data(8).D == 8  # fundamental discriminant accepted too
    assert field_data(12).m == 3


def test_field_data_rejections():
    for bad in (0, 1, -5, 4, 9, 16, 18, 20, 27, 45):
        with pytest.raises(ValueError):
            field_data(bad)


def test_fundamental_units_match_pell_oracle():
    # oracle: exhaustive search for the smallest (a, b) solving the unit
    # equation, independent of any continued-fraction machinery
    for m in SQUAREFREE_TO_60:
        a, b, norm = brute_pell(m)
        f = field_data(m)
        assert (f.epsD.a, f.epsD.b) == (a, b), m
        assert f.unit_norm == norm == element_norm(f, f.epsD), m
        val = a + b * ((1 + math.sqrt(m)) / 2 if m % 4 == 1 else math.sqrt(m))
        assert abs(f.regD - math.log(val)) < 1e-9, m


def test_frozen_regulators():
    # log(golden), log(1+sqrt 2), log(2+sqrt 3), log((3+sqrt 13)/2)
    for d, reg in [(5, 0.4812118250596035), (8, 0.8813735870195430),
                   (12, 1.3169578969248166), (13, 1.1947632172871094)]:
        assert abs(field_data(d).regD - reg) < 1e-12


def test_alg_arithmetic_identities():
    rng = random.Random(31)
    for _ in range(200):
        f = field_data(rng.choice([5, 8, 12, 13]))
        u = AlgInt(rng.randint(-9, 9), rng.randint(-9, 9))
        v = AlgInt(rng.randint(-9, 9), rng.randint(-9, 9))
        prod = alg_mul(f, u, v)
        # multiplication tracks real values
        assert abs(
            float(alg_value(f, prod)) - float(alg_value(f, u)) * float(alg_value(f, v))
        ) < 1e-6
        # norm multiplicative, trace linear, u * conj(u) = norm
        assert element_norm(f, prod) == element_norm(f, u) * element_norm(f, v)
        assert phi(f, u).trace == 2 * u.a + u.b * f.t
        assert alg_mul(f, u, AlgInt(u.a + u.b * f.t, -u.b)) == AlgInt(element_norm(f, u), 0)
        k = rng.randint(0, 6)
        pw = AlgInt(1, 0)
        for _ in range(k):
            pw = alg_mul(f, pw, u)
        assert alg_pow(f, u, k) == pw


def test_alg_log_matches_repeated_multiplication():
    f = field_data(13)
    assert abs(_log_value(f.xD, alg_pow(f, f.epsD, 5)) - 5 * f.regD) < 1e-9
    f = field_data(5)  # xD = (1 + sqrt(5))/2
    for u in (AlgInt(-1, 0), AlgInt(0, 0), AlgInt(1, -1), AlgInt(-2, 1)):
        assert alg_value(f, u) <= 0
        with pytest.raises(ValueError, match="^log of a non-positive element$"):
            _log_value(f.xD, u)


def test_integer_log_matches_the_fraction_route_bit_for_bit():
    # every squarefree m < 3000: regD, eps^k for k <= 4, the regulator at f = 12
    fields = 0
    for m in range(2, 3000):
        if is_square(m) or not factorize(m).is_squarefree():
            continue
        f = field_data(m)
        fields += 1
        reg = fraction_log_value(f.xD, f.epsD)
        assert f.regD.hex() == reg.hex(), m
        for k in range(5):
            e = alg_pow(f, f.epsD, k)
            assert _log_value(f.xD, e).hex() == fraction_log_value(f.xD, e).hex(), (m, k)
        got = regulator_of_order(OrderSpec(f, 12))
        assert got.hex() == (reg * unit_group_index(f, 12)).hex(), m
    assert fields == 1823


def test_phi_frozen_and_homomorphic():
    f5 = field_data(5)
    assert phi(f5, f5.epsD) == Mat2(0, 1, 1, 1)
    rng = random.Random(32)
    for _ in range(200):
        f = field_data(rng.choice([5, 8, 12, 13]))
        u = AlgInt(rng.randint(-9, 9), rng.randint(-9, 9))
        v = AlgInt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert phi(f, alg_mul(f, u, v)) == mat_mul(phi(f, u), phi(f, v))
        assert phi(f, u).det == element_norm(f, u)
        assert phi(f, u).trace == 2 * u.a + u.b * f.t


def test_surd_coords_round_trip():
    rng = random.Random(33)
    for _ in range(300):
        x = random_surd(rng)
        m, u, v, w = surd_coords(x)
        assert w > 0 and v != 0 and math.gcd(math.gcd(u, v), w) == 1
        xd = (1 + frac_sqrt(m)) / 2 if m % 4 == 1 else frac_sqrt(m)
        diff = (u + v * xd) / w - (x.P + frac_sqrt(x.D)) / x.Q
        assert abs(diff) < Fraction(1, 2**100)


def test_in_suborder_coordinate_rule():
    rng = random.Random(34)
    for _ in range(300):
        f = field_data(rng.choice([5, 8, 12, 13]))
        alpha = AlgInt(rng.randint(-30, 30), rng.randint(-30, 30))
        n = rng.randint(1, 40)
        # the function cross-checks the scalar-matrix route internally
        assert in_suborder(f, alpha, n) == (alpha.b % n == 0)
    with pytest.raises(ValueError):
        in_suborder(field_data(5), AlgInt(1, 1), 0)


def test_unit_group_index_frozen_values():
    for d, n, want in [(5, 2, 3), (5, 5, 5), (8, 5, 3), (5, 4, 6), (13, 3, 2)]:
        f = field_data(d)
        assert brute_unit_index(f, n) == want
        assert unit_group_index(f, n) == want
    assert unit_group_index(field_data(5), 1) == 1


def test_unit_indices_refuse_n_below_one():
    # mat_order_mod's own check refuses it: unit_group_index has none
    for index in (unit_group_index, R_of):
        for n in (0, -3):
            with pytest.raises(ValueError, match="N must be >= 1"):
                index(field_data(5), n)


def test_unit_group_index_random_against_brute():
    rng = random.Random(35)
    for _ in range(80):
        f = field_data(rng.choice([5, 8, 12, 13]))
        n = rng.randint(2, 250)
        assert unit_group_index(f, n) == brute_unit_index(f, n), (f.D, n)


def test_sign_index_frozen_values():
    for d, n, want in [(5, 2, 3), (5, 5, 10), (8, 5, 6), (5, 11, 10), (12, 7, 4)]:
        f = field_data(d)
        assert brute_sign_index(f, n) == want
        assert R_of(f, n) == want


def test_sign_index_random_against_brute_and_divisibility():
    rng = random.Random(36)
    for _ in range(80):
        f = field_data(rng.choice([5, 8, 12, 13]))
        n = rng.randint(2, 250)
        r = R_of(f, n)
        assert r == brute_sign_index(f, n), (f.D, n)
        # phi(eps)^u = c*I with c^2 = +-1, so phi(eps)^(2u) = +-I
        u = unit_group_index(f, n)
        assert r in (u, 2 * u)


def test_unit_indices_match_the_ring_oracle_below_300():
    # units of norm -1 (d = 2, 5, 13) and of norm +1 (d = 3, 6, 7): the
    # Lucas ladder takes its det = -1 and det = +1 steps for each
    for d, norm in ((2, -1), (5, -1), (13, -1), (3, 1), (6, 1), (7, 1)):
        f = field_data(d)
        assert f.unit_norm == norm, d
        for n in range(1, 301):
            assert unit_group_index(f, n) == brute_unit_index(f, n), (d, n)
            assert R_of(f, n) == brute_sign_index(f, n), (d, n)


def test_unit_group_index_is_the_matrix_order_over_1_2_or_4():
    # phi(eps)^u = c*I with c^4 = 1, so u is o, o/2 or o/4 for the order o;
    # o/u = 4 needs c = +-sqrt(-1), so c^2 = N(eps)^u = -1 and N(eps) = -1
    seen = {}
    for d in (2, 3, 5, 6, 7, 13, 14, 85):
        f = field_data(d)
        M = phi(f, f.epsD)
        for n in range(1, 400):
            u = unit_group_index(f, n)
            assert u == brute_unit_index(f, n), (d, n)
            seen.setdefault(f.unit_norm, set()).add(mat_order_mod(M, n) // u)
    assert seen == {-1: {1, 2, 4}, 1: {1, 2}}


def test_unit_group_index_takes_at_most_two_powers_past_the_order(monkeypatch):
    # the index is read off the order o with M^(o/4) and M^(o/2) alone:
    # no factorization of o and no strip of its primes
    calls = []
    real = matrix_orders._lucas

    def counting(t, det, k, n):
        calls.append(k)
        return real(t, det, k, n)

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    fields = [field_data(d) for d in (5, 3, 85)]  # field_data factors d
    monkeypatch.setattr(matrix_orders, "_lucas", counting)
    monkeypatch.setattr(quad_orders, "factorize", refuse)
    for f in fields:
        M = phi(f, f.epsD)
        for n in (1, 2, 4, 5, 12, 48, 97, 360, 1001, 2**10 * 3**4, 65537):
            calls.clear()
            mat_order_mod(M, n)
            order_ladders = len(calls)
            calls.clear()
            unit_group_index(f, n)
            assert len(calls) - order_ladders <= 2, (f.D, n)


def test_sign_index_witness_trips_on_a_wrong_unit_index(monkeypatch):
    # R_of reads c off phi(eps)^u = c*I; a u whose power is not scalar, or
    # whose scalar breaks c^2 = N(eps)^u, is refused instead of doubled
    f = field_data(5)
    assert (unit_group_index(f, 5), R_of(f, 5)) == (5, 10)
    monkeypatch.setattr(quad_orders, "unit_group_index", lambda f, n: 4)
    with pytest.raises(InvariantError, match="not a scalar"):
        R_of(f, 5)


def test_regulator_of_suborders():
    f = field_data(5)
    o = OrderSpec(f, 2)
    assert o.disc == 20
    # smallest unit of the conductor-2 order is golden^3 = 2 + sqrt(5)
    assert abs(regulator_of_order(o) - math.log(2 + math.sqrt(5))) < 1e-12
    assert regulator_of_order(OrderSpec(f, 1)) == f.regD
    with pytest.raises(ValueError):
        OrderSpec(f, 0)
    with pytest.raises(ValueError):
        OrderSpec(f, -3)


def test_conductor_frozen_values():
    f2 = field_data(2)
    assert conductor_of_surd(f2, f2.xD) == 1
    assert conductor_of_surd(f2, scale(f2.xD, 3)) == 3
    assert conductor_of_surd(f2, make_surd(1, 1, 2, 5)) == 5
    f5 = field_data(5)
    assert conductor_of_surd(f5, f5.xD) == 1
    assert conductor_of_surd(f5, mobius(f5.xD, 1, 0, 5)) == 5  # xD / 5
    with pytest.raises(ValueError):
        conductor_of_surd(f2, f5.xD)


def test_conductor_matches_lattice_stabilizer_oracle():
    # oracle: scan l = 1, 2, ... and test the two defining memberships
    # l*xD in Z + Z*x and l*xD*x in Z + Z*x by solving s + t*x = target
    rng = random.Random(37)
    checked = 0
    for _ in range(400):
        x = random_surd(rng, span=8)
        m, u, v, w = surd_coords(x)
        f = field_data(m)
        got = conductor_of_surd(f, x)
        if got > 400:
            continue

        def in_lattice(c0, c1):
            t = Fraction(c1) * w / v
            return t.denominator == 1 and (Fraction(c0) - t * Fraction(u, w)).denominator == 1

        l = 1
        while True:
            ok = in_lattice(0, l)  # l*xD
            # l*xD*x: xD * (u + v*xD)/w = (-v*nrm + (u + v*t)*xD)/w
            ok = ok and in_lattice(Fraction(-l * v * f.nrm, w), Fraction(l * (u + v * f.t), w))
            if ok:
                break
            l += 1
            assert l <= 400
        assert got == l, (x, got, l)
        checked += 1
    assert checked >= 200


def test_unit_from_period_is_minimal_power_landing_in_stabilizer():
    # two independent routes to the same unit: continued-fraction automorph
    # of the periodic tail vs epsD raised to the unit-group index of the
    # surd's conductor
    rng = random.Random(38)
    checked = 0
    for _ in range(200):
        m = rng.choice([2, 3, 5, 13])
        f = field_data(m)
        z = random_surd(rng, ms=(m,), span=15)
        l = conductor_of_surd(f, z)
        if l > 2000:
            continue
        eps_z = _unit_from_period(f.xD, f.t, f.nrm, periodic_tail(z))[0]
        assert eps_z == alg_pow(f, f.epsD, unit_group_index(f, l)), (z, l)
        checked += 1
    assert checked >= 120


def test_unit_from_period_rejects_foreign_surd():
    f = field_data(5)
    with pytest.raises(ValueError):
        _unit_from_period(f.xD, f.t, f.nrm, periodic_tail(make_surd(0, 1, 2, 1)))


@pytest.mark.parametrize("bump, message", [(1, "non-integral coordinates"), (2, "norm disagrees")])
def test_unit_from_period_keeps_its_witnesses(monkeypatch, bump, message):
    # sqrt(3) = [1; 1, 2] has the tail y = (1 + sqrt(3))/2. A last digit one
    # too large makes M21 odd, so M21*y + M22 leaves the lattice; two too
    # large keeps M21 even, and the "unit" 3 + 2*sqrt(3) has norm -3
    real = quad_orders._state_walk

    def wrong_digit(x):
        digits, i, state = real(x)
        return digits[:-1] + [digits[-1] + bump], i, state

    monkeypatch.setattr(quad_orders, "_state_walk", wrong_digit)
    with pytest.raises(InvariantError, match=message):
        field_data(3)
