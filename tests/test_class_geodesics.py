import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from quadcf import class_geodesics, quad_orders
from quadcf.arith import InvariantError, primes_up_to
from quadcf.class_geodesics import (
    TRIAL_DIVISION_MAX_ROOT,
    IndefForm,
    _prime_power_classes,
    TotalLength,
    class_number,
    fundamental_decomposition,
    reduced_forms,
    rho,
    total_length,
)
from quadcf.quad_orders import OrderSpec, field_data, regulator_of_order
from helpers import dirichlet_class_number, divisors, frac_sqrt, reduce_form, reduced_forms_by_factorize

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
    # oracle: the enumeration with one factorize call per b; all of 5..4000
    # lies below the trial-division cutoff
    checked = 0
    for disc in range(5, 4000):
        if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
            continue
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc
        checked += 1
    assert checked == 1936


# 105 = 3*5*7 and 1365 = 3*5*7*13: primes dividing disc (one root class);
# 4004 = 4*7*11*13, 4*10007 and 4*30030 are 0 mod 4; 69300 = 4*9*25*77 has square factors.
# Those lie below the trial-division cutoff; 10**6 + 1 and the last three
# are their twins above it, where the root walk serves: 277200 =
# 16*9*25*77 (square factors, imprimitive forms, 0 mod 4), 285285 =
# 3*5*7*11*13*19 and 4*255255 = 4*3*5*7*11*13*17
SIEVE_DISCS = [105, 1365, 4004, 4 * 10007, 4 * 30030, 69300, 10**6 + 1, 277200, 285285, 4 * 255255]


def brute_classes(disc, p, q):
    # b mod 2q with b^2 = disc mod 4q, as b mod q (odd p) or mod 2q (p = 2)
    w = 2 if p == 2 else 1
    return [b for b in range(w * q) if (b * b - disc) % (w * w * q) == 0]


def check_prime_power_classes(disc, p, bound):
    got = dict(_prime_power_classes(disc, p, bound))
    q = 1 if p == 2 else p
    while q <= bound:
        want = brute_classes(disc, p, q)
        if not want:
            # no class mod q leaves none mod any higher power: the list stops
            assert max(got, default=0) < q, (disc, p, q)
            return
        assert sorted(got.pop(q)) == want, (disc, p, q)
        q *= p
    assert not got, (disc, p)


def test_prime_power_classes_match_brute_force():
    # every odd p^e < 10**4, p | disc and p not dividing it: 10**6 + 1 =
    # 101*9901 is 1 mod 8, 5953500 = 4*3^5*5^3*7^2 has high odd powers,
    # 277200 = 16*9*25*77 has square factors, and 4*3*9973 = 119676 has a
    # p | disc near 10**4
    bound = 10**4 - 1
    for disc in (10**6 + 1, 5953500, 277200, 4 * 3 * 9973):
        for p in primes_up_to(bound)[1:]:
            check_prime_power_classes(disc, p, bound)
    # p = 2, whose congruence is mod 2^(e+2): every residue 0, 1 mod 4 of
    # disc mod 64, and high powers of 2 in disc
    for disc in [r for r in range(64, 128) if r % 4 in (0, 1)] + [2**20 * 5, 2**22 * 3, 2**14 * 7, 2**9 * 3]:
        check_prime_power_classes(disc, 2, bound)
    assert _prime_power_classes(5, 7, bound) == []  # 5 is no square mod 7


def test_root_walk_matches_per_b_factorize_enumeration_near_the_cutoff(monkeypatch):
    # the root walk serves every discriminant in 513^2 +- 3000, below the
    # cutoff too once it is lowered
    monkeypatch.setattr(class_geodesics, "TRIAL_DIVISION_MAX_ROOT", 0)
    edge = (TRIAL_DIVISION_MAX_ROOT + 1) ** 2
    checked = 0
    for disc in range(edge - 3000, edge + 3001):
        if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
            continue
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc
        checked += 1
    assert checked == 2996


def test_root_walk_mutations_are_caught(monkeypatch):
    real = class_geodesics._prime_power_classes
    disc = 10**6 + 1  # 5 does not divide it, and it is a square mod 5
    want = reduced_forms_by_factorize(disc)
    assert reduced_forms(disc) == want

    def drop_one(d, p, bound):
        out = real(d, p, bound)
        if p == 5:
            q, classes = out[0]
            out[0] = (q, classes[1:])
        return out

    monkeypatch.setattr(class_geodesics, "_prime_power_classes", drop_one)
    assert len(real(disc, 5, 10)[0][1]) == 2
    assert reduced_forms(disc) != want

    def shift_one(d, p, bound):
        out = real(d, p, bound)
        if p == 5:
            q, classes = out[0]
            out[0] = (q, [classes[0] + 1, *classes[1:]])
        return out

    monkeypatch.setattr(class_geodesics, "_prime_power_classes", shift_one)
    with pytest.raises(InvariantError, match="root walk"):
        reduced_forms(disc)


def test_reduced_forms_match_per_b_factorize_enumeration_on_sieve_discs():
    # square factors, 0 mod 4, imprimitive forms, and b = isqrt(disc), on
    # both sides of the trial-division cutoff
    above = [d for d in SIEVE_DISCS if math.isqrt(d) > TRIAL_DIVISION_MAX_ROOT]
    assert above == [10**6 + 1, 277200, 285285, 4 * 255255]
    for disc in SIEVE_DISCS:
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc
    # 277200's windows hold divisors of imprimitive forms, which are skipped
    s = math.isqrt(277200)
    assert any(math.gcd(d, b, m // d) > 1
               for b in range(2, s + 1, 2) for m in [(277200 - b * b) // 4]
               for d in divisors(m) if 2 * d - b <= s < 2 * d + b)


def test_reduced_forms_match_per_b_factorize_enumeration_across_the_cutoff():
    # every discriminant within 300 of (TRIAL_DIVISION_MAX_ROOT + 1)^2, where
    # the sieve takes over from trial division
    edge = (TRIAL_DIVISION_MAX_ROOT + 1) ** 2
    checked = 0
    for disc in range(edge - 300, edge + 301):
        if disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
            continue
        assert reduced_forms(disc) == reduced_forms_by_factorize(disc), disc
        checked += 1
    assert checked == 300


def test_reduced_forms_root_walk_only_above_the_cutoff(monkeypatch):
    def refuse(disc, s):
        raise AssertionError(f"_window_divisors_by_roots({disc}) called")

    at_cutoff = (TRIAL_DIVISION_MAX_ROOT + 1) ** 2 - 1
    above = at_cutoff + 4
    assert math.isqrt(at_cutoff) == TRIAL_DIVISION_MAX_ROOT < math.isqrt(above)
    want_at, want_above = reduced_forms(at_cutoff), reduced_forms(above)
    monkeypatch.setattr(class_geodesics, "_window_divisors_by_roots", refuse)
    assert reduced_forms(at_cutoff) == want_at and want_at
    with pytest.raises(AssertionError, match="_window_divisors_by_roots"):
        reduced_forms(above)
    assert want_above == reduced_forms_by_factorize(above)


def test_trial_division_per_pair_work_is_bounded_at_the_cutoff(monkeypatch):
    # below the cutoff a (disc, b) pair tries each d in [lo, isqrt(m)]; the
    # window starts above (sqrt(disc) - b)/2 and sqrt(m) is at most
    # (sqrt(2) - 1)/2 * sqrt(disc) past that (at b = sqrt(disc/2)), so a pair
    # costs about 0.21 * isqrt(disc), at most 107 divisions at the cutoff,
    # and check_form_work's pair cap bounds the time
    tried = []

    def counting_range(*args):
        r = range(*args)
        if r.step == 1:  # the d candidates; b steps by 2
            tried.append(len(r))
        return r

    monkeypatch.setattr(class_geodesics, "range", counting_range, raising=False)
    for disc in (TRIAL_DIVISION_MAX_ROOT**2 + 1, (TRIAL_DIVISION_MAX_ROOT + 1) ** 2 - 1):
        s = math.isqrt(disc)
        tried.clear()
        assert reduced_forms(disc), disc
        assert len(tried) == len(range(2 - disc % 2, s + 1, 2)), disc
        assert 100 <= max(tried) <= (math.sqrt(2) - 1) / 2 * math.sqrt(disc) + 1, disc
        assert max(tried) <= 107, disc


def test_reduced_forms_do_not_factor_per_b(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(class_geodesics, "factorize", refuse)
    for disc in (5, 8, 229, 4004, 69300, 10**6 + 1, 10**8 + 1):
        assert reduced_forms(disc), disc



def test_unchecked_forms_pass_the_checks():
    # reduced_forms and rho build their forms without IndefForm's checks;
    # each one must be a form the validating constructor accepts as it is
    discs = [d for d in range(5, 3001) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]
    checked = 0
    for disc in discs + SIEVE_DISCS:
        for F in reduced_forms(disc):
            for G in (F, rho(F)):
                assert type(G) is IndefForm, (disc, G)
                assert IndefForm(*G) == G, (disc, G)
                assert G.disc == disc and G.is_reduced(), (disc, G)
                checked += 1
    assert checked > 100_000


def test_total_length_factors_each_field_once(monkeypatch):
    # fundamental_decomposition factored disc, so the field is built from
    # its squarefree kernel without field_data factoring that again
    discs = [d for d in range(5, 2001) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d]
    discs += [4004, 69300, 10**6 + 1]
    oracle = {}
    for disc in discs:
        D0, f = fundamental_decomposition(disc)
        h = class_number(disc)
        reg = regulator_of_order(OrderSpec(field_data(D0), f))
        oracle[disc] = (h, reg)

    def refuse(d):
        raise AssertionError(f"field_data({d}) called")

    monkeypatch.setattr(quad_orders, "field_data", refuse)
    monkeypatch.setattr(class_geodesics, "field_data", refuse, raising=False)
    for disc in discs:
        t = total_length(disc)
        assert (t.h, t.reg) == oracle[disc], disc
        assert t.total_length == t.h * t.reg, disc


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
