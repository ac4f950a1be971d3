import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from quadcf import class_geodesics
from quadcf.arith import InvariantError, factorize
from quadcf.class_geodesics import (
    IndefForm,
    _factor_products,
    TotalLength,
    class_number,
    fundamental_decomposition,
    reduced_forms,
    rho,
    total_length,
)
from quadcf.quad_orders import field_data
from helpers import dirichlet_class_number, frac_sqrt, reduce_form, reduced_forms_by_factorize

SMALL_DISCS = [5, 8, 12, 13, 17, 20, 21, 24, 28, 32, 33, 40, 44, 45, 48, 60, 229]


def random_form(rng, disc_pool=SMALL_DISCS):
    while True:
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        c = rng.randint(-40, 40)
        if a == 0 or c == 0:
            continue
        d = b * b - 4 * a * c
        if d > 0 and math.isqrt(d) ** 2 != d:
            return IndefForm(a, b, c)


def test_form_validation():
    with pytest.raises(ValueError):
        IndefForm(0, 1, 1)
    with pytest.raises(ValueError):
        IndefForm(1, 3, 0)
    with pytest.raises(ValueError):
        IndefForm(1, 1, 1)  # disc -3
    with pytest.raises(ValueError):
        IndefForm(1, 3, 2)  # disc 1, a perfect square
    IndefForm(1, 4, 2)  # disc 8, constructible


def test_form_is_a_validated_triple():
    F = IndefForm(a=1, b=4, c=-2)  # keyword construction
    assert F == IndefForm(1, 4, -2) == (1, 4, -2)
    assert hash(F) == hash((1, 4, -2))
    a, b, c = F
    assert (a, b, c) == (F.a, F.b, F.c) == (1, 4, -2) and F.disc == 24
    # the repr of the frozen dataclass it replaced, byte for byte
    assert repr(F) == "IndefForm(a=1, b=4, c=-2)"
    assert repr(IndefForm(-10**20, 10**20 + 1, 3)) == (
        "IndefForm(a=-100000000000000000000, b=100000000000000000001, c=3)")
    for G in (pickle.loads(pickle.dumps(F)), pickle.loads(pickle.dumps(F, 0)),
              copy.copy(F), copy.deepcopy(F), copy.deepcopy([F])[0]):
        assert G == F and type(G) is IndefForm
    with pytest.raises(TypeError):
        IndefForm(1, 4)
    # the namedtuple helpers validate too
    assert IndefForm._make([1, 4, -2]) == F._replace(c=-2) == F
    with pytest.raises(ValueError):
        IndefForm._make((0, 1, 1))
    with pytest.raises(ValueError):
        F._replace(b=1, c=2)  # disc -7


def test_is_reduced_matches_real_inequalities():
    # oracle: the defining inequalities evaluated with 160-bit rational
    # approximations of sqrt(disc)
    rng = random.Random(61)
    seen_true = seen_false = 0
    for _ in range(500):
        F = random_form(rng)
        r = frac_sqrt(F.disc)  # within 2^-160 below the true root
        want = abs(r - 2 * abs(F.a)) < Fraction(F.b) < r
        assert F.is_reduced() == want, F
        seen_true += want
        seen_false += not want
    assert seen_true > 20 and seen_false > 20


def test_reduced_forms_frozen_small_disc():
    assert reduced_forms(5) == [IndefForm(-1, 1, 1), IndefForm(1, 1, -1)]
    assert reduced_forms(20) == [IndefForm(-1, 4, 1), IndefForm(1, 4, -1)]


def brute_reduced_forms(disc):
    # oracle: scan the full coefficient box allowed by the inequalities
    s = math.isqrt(disc)
    out = set()
    for b in range(1, s + 1):
        if (disc - b * b) % 4:
            continue
        prod = (b * b - disc) // 4  # = a*c < 0
        for a in range(-disc, disc + 1):
            if a == 0 or prod % a:
                continue
            c = prod // a
            F = IndefForm(a, b, c)
            if F.is_reduced() and math.gcd(math.gcd(abs(a), b), abs(c)) == 1:
                out.add(F)
    return out


def test_reduced_forms_match_brute_enumeration():
    for disc in SMALL_DISCS:
        got = reduced_forms(disc)
        assert len(set(got)) == len(got)
        assert set(got) == brute_reduced_forms(disc), disc
        assert all(F.disc == disc and F.is_reduced() for F in got)


def test_imprimitive_forms_are_excluded():
    # disc 32 carries the doubled disc-8 form 2x^2 + 4xy - 2y^2, which must
    # not be counted
    forms = reduced_forms(32)
    assert IndefForm(2, 4, -2) not in forms
    assert all(math.gcd(math.gcd(abs(F.a), F.b), abs(F.c)) == 1 for F in forms)
    assert class_number(32) == 2


def test_rho_permutes_the_reduced_forms():
    for disc in SMALL_DISCS:
        forms = reduced_forms(disc)
        image = {rho(F) for F in forms}
        assert image == set(forms), disc
    with pytest.raises(ValueError):
        rho(IndefForm(1, 1, -5))  # disc 21, not reduced


def test_class_numbers_frozen():
    for disc, h in [(5, 1), (8, 1), (12, 2), (13, 1), (20, 1), (32, 2),
                    (40, 2), (60, 4), (229, 3)]:
        assert class_number(disc) == h, disc


def test_class_numbers_match_analytic_oracle():
    # oracle: Dirichlet's formula h = sqrt(disc) * L(1, chi) / (2 * reg)
    # gives the wide count; the cycle count is the narrow one, twice the
    # wide count exactly when the fundamental unit has norm +1
    checked = 0
    for disc in range(5, 401):
        if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
            continue
        if fundamental_decomposition(disc)[1] != 1:
            continue
        f = field_data(disc)
        h_wide = dirichlet_class_number(disc, f.regD)
        h_narrow = h_wide * (2 if f.unit_norm == 1 else 1)
        assert class_number(disc) == h_narrow, disc
        checked += 1
    assert checked >= 100


def test_reduce_form_reaches_the_cycle_of_equivalent_forms():
    rng = random.Random(62)
    for _ in range(200):
        F = random_form(rng)
        R, steps = reduce_form(F)
        assert R.is_reduced() and R.disc == F.disc and steps >= 0
        # proper equivalence transforms: translations and the flip
        k = rng.randint(-5, 5)
        translated = IndefForm(F.a, F.b + 2 * k * F.a, F.a * k * k + F.b * k + F.c)
        flipped = IndefForm(F.c, -F.b, F.a)
        cycle = {R}
        G = rho(R)
        while G != R:
            cycle.add(G)
            G = rho(G)
        assert reduce_form(translated)[0] in cycle
        assert reduce_form(flipped)[0] in cycle
    already = reduced_forms(40)[0]
    assert reduce_form(already) == (already, 0)


def test_fundamental_decomposition():
    assert fundamental_decomposition(5) == (5, 1)
    assert fundamental_decomposition(12) == (12, 1)
    assert fundamental_decomposition(32) == (8, 2)
    assert fundamental_decomposition(45) == (5, 3)
    assert fundamental_decomposition(48) == (12, 2)
    assert fundamental_decomposition(500) == (5, 10)
    for bad in (7, 0, -4, 16, 36):
        with pytest.raises(ValueError):
            fundamental_decomposition(bad)


def test_total_length_values():
    t = total_length(40)
    assert isinstance(t, TotalLength)
    assert t.h == 2
    assert abs(t.reg - math.log(3 + math.sqrt(10))) < 1e-12
    assert abs(t.exponent - 0.7000118813107639) < 1e-12
    assert abs(t.total_length - t.h * t.reg) < 1e-15
    # conductor-2 order inside disc 5: regulator of the suborder, not regD
    t20 = total_length(20)
    assert t20.h == 1
    assert abs(t20.reg - math.log(2 + math.sqrt(5))) < 1e-12
    assert abs(t20.exponent - math.log(t20.total_length) / math.log(math.sqrt(20))) < 1e-15


def test_reduced_forms_match_per_b_factorize_enumeration():
    # oracle: the enumeration with one factorize call per b that the sieve replaced
    checked = 0
    for disc in range(5, 4000):
        if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
            continue
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc
        checked += 1
    assert checked == 1936


# 105 = 3*5*7 and 1365 = 3*5*7*13: sieving primes dividing disc (one root);
# 4004 = 4*7*11*13, 4*10007 and 4*30030 are 0 mod 4; 69300 = 4*9*25*77 has square factors
SIEVE_DISCS = [105, 1365, 4004, 4 * 10007, 4 * 30030, 69300, 10**6 + 1]


def test_sieve_factorizations_match_factorize():
    for disc in SIEVE_DISCS:
        got = list(_factor_products(disc))
        bs = [b for b, _, _ in got]
        assert bs == list(range(2 - disc % 2, math.isqrt(disc) + 1, 2)), disc
        for b, m, factors in got:
            assert m == (disc - b * b) // 4, (disc, b)
            assert tuple(factors) == factorize(m).factors, (disc, b)


def test_sieve_factorizations_match_factorize_at_1e10():
    disc = 10**10 + 1
    got = list(_factor_products(disc))
    assert len(got) == 50_000
    sample = got[::97] + got[-3:]
    for b, m, factors in sample:
        assert m == (disc - b * b) // 4, b
        assert tuple(factors) == factorize(m).factors, b
    # the sample reaches values with a square factor and with a large prime left over
    assert any(e > 1 for _, _, factors in sample for _, e in factors)
    assert any(factors[-1][0] > math.isqrt(got[0][1]) for _, _, factors in sample)


def test_reduced_forms_match_per_b_factorize_enumeration_on_sieve_discs():
    # square factors, 0 mod 4, imprimitive forms, and b = isqrt(disc)
    for disc in SIEVE_DISCS:
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc


def test_reduced_forms_do_not_factor_per_b(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(class_geodesics, "factorize", refuse)
    for disc in (5, 8, 229, 4004, 69300, 10**6 + 1):
        assert reduced_forms(disc), disc



def test_class_number_refuses_a_rho_that_is_not_a_permutation(monkeypatch):
    outside = IndefForm(1, 1, -57)  # disc 229 but not reduced: outside the list
    assert outside not in reduced_forms(229)
    monkeypatch.setattr(class_geodesics, "rho", lambda F: outside)
    with pytest.raises(InvariantError):
        class_number(229)
    # not injective: every form goes to the first one, which is then met twice
    first = reduced_forms(229)[0]
    monkeypatch.setattr(class_geodesics, "rho", lambda F: first)
    with pytest.raises(InvariantError):
        class_number(229)


def test_rho_keeps_its_lattice_witness():
    # correct input never leaves the lattice; an int subclass whose 4*a is
    # one too large makes the form's discriminant 21 instead of 20, so
    # (b'^2 - disc)/(4c) is no longer an integer
    class Drift(int):
        def __rmul__(self, other):
            return int(other) * int(self) + 1

    F = IndefForm(Drift(1), 4, -1)
    assert F.disc == 21
    with pytest.raises(InvariantError, match="lattice"):
        rho(F)


def test_rho_keeps_its_output_reducedness_witness(monkeypatch):
    # a wrong isqrt (5 - 2 for disc 28) still passes the input check but
    # pulls b' out of the reduced window
    F = IndefForm(-2, 2, 3)
    assert F in reduced_forms(28)
    monkeypatch.setattr(class_geodesics, "_check_disc", lambda disc: math.isqrt(disc) - 2)
    with pytest.raises(InvariantError, match="reduced set"):
        rho(F)


@pytest.mark.parametrize("disc", [229, 45, 12])
def test_class_number_calls_rho_once_per_form(monkeypatch, disc):
    # the benchmark's duke trace asserts forms == rho.calls: class_number
    # enumerates the forms once and walks each one with the public rho once.
    # 229 has N(eps) = -1, 12 has N(eps) = +1, 45 = 3^2 * 5 is not fundamental
    assert fundamental_decomposition(disc)[1] == (3 if disc == 45 else 1)
    real_forms, real_rho = reduced_forms, rho
    listed, stepped = [], []

    def counting_forms(d):
        out = real_forms(d)
        listed.append(len(out))
        return out

    def counting_rho(F):
        stepped.append(F)
        return real_rho(F)

    monkeypatch.setattr(class_geodesics, "reduced_forms", counting_forms)
    monkeypatch.setattr(class_geodesics, "rho", counting_rho)
    for run in (class_number, lambda d: total_length(d).h):
        listed.clear()
        stepped.clear()
        run(disc)
        assert len(listed) == 1
        assert len(stepped) == listed[0] == len(real_forms(disc))
        assert set(stepped) == set(real_forms(disc))
