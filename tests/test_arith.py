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
from helpers import jacobi, sieve_primes, trial_factor


def test_is_square():
    squares = {k * k for k in range(100)}
    for n in range(-5, 10**4):
        assert is_square(n) == (n in squares)


def test_is_prime_matches_sieve():
    primes = set(sieve_primes(2 * 10**4))  # past the trial-division cutoff 101**2
    for n in range(-3, 2 * 10**4 + 1):
        assert is_prime(n) == (n in primes), n
    assert is_prime(10201) is False  # 101**2, the first composite trial division misses
    assert is_prime(10403) is False  # 101 * 103


def test_is_prime_known_values():
    # Mersenne primes and classical pseudoprime traps
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert is_prime(2**89 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    for carmichael in (561, 1105, 1729, 2465, 41041, 825265):
        assert not is_prime(carmichael)


def test_factorize_small_range():
    for n in range(2, 3000):
        f = factorize(n)
        prod = 1
        last = 1
        for p, e in f:
            assert is_prime(p) and e >= 1
            assert p > last  # ascending, distinct
            last = p
            prod *= p**e
        assert prod == n


def test_factorize_matches_trial_division():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 10**9)
        assert dict(iter(factorize(n))) == trial_factor(n)


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
    assert list(factorize(p * q)) == [(p, 1), (q, 1)]
    assert list(factorize(p * p)) == [(p, 2)]
    # 64-bit products with repeated structure
    n = 2**4 * 3 * (10**9 + 7) ** 2
    assert list(factorize(n)) == [(2, 4), (3, 1), (p, 2)]


def test_divisors():
    assert factorize(1).divisors() == [1]
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    for n in (2, 7, 36, 360, 720, 1024):
        divs = factorize(n).divisors()
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


def test_factorize_budget_counts_every_pollard_run(monkeypatch):
    # three primes above the trial bound: two Pollard runs, of 254 and 510 steps
    n = 1000003 * 1000033 * 1000037
    real, runs = arith._pollard_brent, []

    def counting(m, rng, budget):
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


def test_kronecker_euler_criterion():
    # (a/p) = a^((p-1)/2) mod p for odd primes
    for p in sieve_primes(200):
        if p == 2:
            continue
        for a in range(-20, 21):
            euler = pow(a % p, (p - 1) // 2, p)
            want = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_matches_reciprocity_oracle():
    for n in range(1, 120):
        for a in range(-30, 31):
            assert kronecker(a, n) == jacobi(a, n), (a, n)


def test_kronecker_edge_values():
    assert kronecker(3, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    with pytest.raises(ValueError):
        kronecker(1, 0)


def test_invariant_error_is_runtime_error():
    assert issubclass(InvariantError, RuntimeError)
