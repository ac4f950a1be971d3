import math
import random

import pytest

from quadcf import arith
from quadcf.arith import (
    Factorization,
    InvariantError,
    factorize,
    is_prime,
    is_square,
    kronecker,
    primes_up_to,
    sqrt_mod,
)
from helpers import divisors, jacobi, sieve_primes, trial_factor


def test_is_square():
    squares = {k * k for k in range(100)}
    for n in range(-5, 10**4):
        assert is_square(n) == (n in squares)


def test_is_prime_matches_sieve():
    primes = set(sieve_primes(2 * 10**4))  # past 2047, the least strong pseudoprime to base 2
    for n in range(-3, 2 * 10**4 + 1):
        assert is_prime(n) == (n in primes), n
    assert is_prime(10201) is False  # 101**2
    assert is_prime(10403) is False  # 101 * 103


def test_is_prime_known_values():
    # Mersenne primes and classical pseudoprime traps
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert is_prime(2**89 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    for carmichael in (561, 1105, 1729, 2465, 41041, 825265):
        assert not is_prime(carmichael)


def test_is_prime_refuses_strong_pseudoprimes_to_the_first_primes():
    # 399165290221 * 798330580441 passes Miller-Rabin to each of the twelve
    # bases 2..37; base 41 witnesses it
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not any(arith._mr_witness(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert is_prime(n) is False
    # its balanced 12-digit factors need more Pollard rho steps than the
    # budget allows: a refusal, never n itself as a prime factor
    with pytest.raises(ValueError, match="cannot factor"):
        factorize(n)
    # the least strong pseudoprime to all thirteen bases 2..41 is where the
    # fixed bases stop; the seeded bases decide it
    assert arith._MR_DET_LIMIT == 3317044064679887385961981
    assert not any(arith._mr_witness(arith._MR_DET_LIMIT, a) for a in arith._MR_BASES)
    assert is_prime(arith._MR_DET_LIMIT) is False


def test_factorize_small_range():
    for n in range(2, 3000):
        f = factorize(n)
        prod = 1
        last = 1
        for p, e in f.factors:
            assert is_prime(p) and e >= 1
            assert p > last  # ascending, distinct
            last = p
            prod *= p**e
        assert prod == n


def test_factorize_matches_trial_division():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 10**9)
        assert dict(factorize(n).factors) == trial_factor(n)


def test_factorize_matches_smallest_factor_table():
    # oracle: factorizations read off a smallest-prime-factor table, for every
    # n < 2*10**5, so for every cofactor trial division proves prime
    bound = 2 * 10**5
    spf = list(range(bound))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for k in range(p * p, bound, p):
                if spf[k] == k:
                    spf[k] = p
    for n in range(2, bound):
        want: dict[int, int] = {}
        m = n
        while m > 1:
            want[spf[m]] = want.get(spf[m], 0) + 1
            m //= spf[m]
        assert factorize(n).factors == tuple(sorted(want.items())), n


def test_factorize_around_the_trial_bound():
    # primes on both sides of the trial bound 10**4, as products and powers
    near = [p for p in sieve_primes(10_100) if p > 9_900]
    assert near[0] < 10**4 < near[-1]
    for p in near:
        for e in (1, 2, 3):
            assert factorize(p**e).factors == ((p, e),)
            assert factorize(2 * p**e).factors == ((2, 1), (p, e))
        for q in near:
            if p < q:
                assert factorize(p * q).factors == ((p, 1), (q, 1))
                assert factorize(p * p * q).factors == ((p, 2), (q, 1))
                assert factorize(p * q * q).factors == ((p, 1), (q, 2))


def test_factorize_large_semiprimes():
    p, q = 10**9 + 7, 10**9 + 9
    assert list(factorize(p * q).factors) == [(p, 1), (q, 1)]
    assert list(factorize(p * p).factors) == [(p, 2)]
    # 64-bit products with repeated structure
    n = 2**4 * 3 * (10**9 + 7) ** 2
    assert list(factorize(n).factors) == [(2, 4), (3, 1), (p, 2)]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in (2, 7, 36, 360, 720, 1024):
        divs = divisors(n)
        assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_squarefree_kernel():
    for n in range(1, 500):
        s, k = factorize(n).squarefree_kernel()
        assert k * k * s == n
        assert all(s % (p * p) for p in range(2, 23))
    assert factorize(360).squarefree_kernel() == (10, 6)


def test_is_squarefree():
    def brute(n):
        return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))

    for n in range(1, 500):
        assert factorize(n).is_squarefree() == brute(n)


def test_factorize_rejects_nonpositive():
    assert factorize(1).factors == ()
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


def assert_left_by_trial_division(m):
    # _pollard_brent has no even-n case: factorize hands it only cofactors
    # that are odd and have no prime factor up to the trial bound 10**4
    assert m % 2 == 1, m
    assert all(m % p for p in sieve_primes(10**4)), m


def test_factorize_budget_counts_every_pollard_run(monkeypatch):
    # three primes above the trial bound: two Pollard runs, of 254 and 510 steps
    n = 1000003 * 1000033 * 1000037
    real, runs = arith._pollard_brent, []

    def counting(m, rng, budget):
        assert_left_by_trial_division(m)
        g, steps = real(m, rng, budget)
        runs.append(steps)
        return g, steps

    monkeypatch.setattr(arith, "_pollard_brent", counting)
    monkeypatch.setattr(arith, "_BRENT_BUDGET", 764)
    assert factorize(n).factors == ((1000003, 1), (1000033, 1), (1000037, 1))
    assert runs == [254, 510]
    # enough for each run alone, not for both
    monkeypatch.setattr(arith, "_BRENT_BUDGET", 763)
    with pytest.raises(ValueError, match=f"cannot factor {n} within 763 "):
        factorize(n)


def test_factorize_budget_charges_each_step_per_64_bit_word(monkeypatch):
    # four primes above the trial bound: Pollard runs on an 80-bit cofactor
    # (two words a step), then on 60 and 40 bits (one word)
    n = 1000003 * 1000033 * 1000037 * 1000039
    real, runs = arith._pollard_brent, []

    def counting(m, rng, budget):
        assert_left_by_trial_division(m)
        g, steps = real(m, rng, budget)
        runs.append((m.bit_length(), budget, steps))
        return g, steps

    monkeypatch.setattr(arith, "_pollard_brent", counting)
    cost = 1022 * 2 + 2046 + 2046
    monkeypatch.setattr(arith, "_BRENT_BUDGET", cost)
    assert factorize(n).factors == ((1000003, 1), (1000033, 1), (1000037, 1), (1000039, 1))
    # each run may take what is left, in its own words' steps
    assert runs == [(80, cost // 2, 1022), (60, cost - 2044, 2046), (40, 2046, 2046)]
    monkeypatch.setattr(arith, "_BRENT_BUDGET", cost - 1)
    with pytest.raises(ValueError, match=f"cannot factor {n} within {cost - 1} "):
        factorize(n)


def test_factorization_is_hashable_record():
    f = factorize(50)
    assert isinstance(f, Factorization)
    assert f.n == 50
    assert f.primes == (2, 5)
    assert hash(f) == hash(factorize(50))


def test_primes_up_to_matches_sieve_oracle():
    for bound in (0, 1, 2, 3, 10, 97, 1000):
        assert primes_up_to(bound) == sieve_primes(bound), bound


def test_sqrt_mod():
    # oracle: squares found by brute force; p = 1 mod 8 exercises Tonelli-Shanks
    for p in sieve_primes(300)[1:] + [7937, 40961]:
        squares = {x * x % p for x in range(p)} if p < 1000 else None
        for a in range(-5, min(p, 300)):
            r = sqrt_mod(a, p)
            if r is None:
                assert jacobi(a, p) == -1, (a, p)
                if squares is not None:
                    assert a % p not in squares
            else:
                assert 0 <= r < p and r * r % p == a % p, (a, p)


def test_kronecker_obeys_the_laws_of_the_symbol():
    # laws that do not use Euler's criterion, which is kronecker's own body:
    # multiplicativity in a, the supplements at -1 and 2, and reciprocity
    primes = sieve_primes(200)
    odd = primes[1:]
    for p in primes:
        assert kronecker(1, p) == 1 and kronecker(p, p) == kronecker(-3 * p, p) == 0, p
        for a in range(-20, 21):
            for b in range(-20, 21):
                assert kronecker(a * b, p) == kronecker(a, p) * kronecker(b, p), (a, b, p)
    for p in odd:
        assert (kronecker(-1, p) == 1) == (p % 4 == 1), p
        assert (kronecker(2, p) == 1) == (p % 8 in (1, 7)), p
        for q in odd:
            if q != p:
                sign = -1 if p % 4 == q % 4 == 3 else 1
                assert kronecker(p, q) * kronecker(q, p) == sign, (p, q)


def test_kronecker_matches_reciprocity_oracle():
    for n in sieve_primes(120):
        for a in range(-30, 31):
            assert kronecker(a, n) == jacobi(a, n), (a, n)


def test_kronecker_matches_brute_force_squares():
    # 0 when p | a, else 1 or -1 as a mod p is a nonzero square or not; at
    # p = 2 the symbol depends on a mod 8 alone
    for p in sieve_primes(2000)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p + 1):
            want = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert kronecker(a, p) == want, (a, p)
    for a in range(-64, 65):
        assert kronecker(a, 2) == {1: 1, 7: 1, 3: -1, 5: -1}.get(a % 8, 0), a


def test_kronecker_edge_values():
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    with pytest.raises(ValueError):
        kronecker(1, 0)


def test_invariant_error_is_runtime_error():
    assert issubclass(InvariantError, RuntimeError)
