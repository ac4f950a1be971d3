"""Integer groundwork: primality, prime sieve, factorization, square roots
mod a prime, Kronecker symbol.

Everything here is exact; no floats. Numbers are plain Python ints and may
be arbitrarily large.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class InvariantError(RuntimeError):
    """An internal consistency check failed (library bug, not bad input)."""


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# Deterministic Miller-Rabin witnesses: these twelve bases decide primality
# correctly for every n < 3.3 * 10**24 (covers all of 2**64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DET_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# A composite with no prime factor in _SMALL_PRIMES is at least 101**2.
_SMALL_PRIMES_DECIDE_BELOW = 101**2


def primes_up_to(bound: int) -> list[int]:
    """The primes <= bound, ascending (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(2, bound + 1) if sieve[i]]


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test.

    Trial division by the primes up to 97 decides every n below 101**2.
    Deterministic Miller-Rabin decides the rest below 3.3e24 (so everything
    under 2**64). Above that, 64 Miller-Rabin rounds with bases derived
    from a seeded generator; error probability below 4**-64 = 2**-128.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _SMALL_PRIMES_DECIDE_BELOW:
        return True
    if n < _MR_DET_LIMIT:
        return not any(_mr_witness(n, a) for a in _MR_BASES if a % n)
    rng = random.Random(n)
    for _ in range(64):
        if _mr_witness(n, rng.randrange(2, n - 1)):
            return False
    return True


def _pollard_brent(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Brent's cycle variant of Pollard rho on composite n with no prime
    factor below the trial bound: (a nontrivial factor, steps taken), or
    (1, steps taken) once more than budget steps would be needed. A step
    is one y -> y*y + c; each round of r steps is charged 2r up front,
    for the walk ahead and its batched gcds."""
    if n % 2 == 0:
        return 2, 0
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r
            if steps > budget:
                return 1, steps
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # batch overshot; retry from ys one step at a time, at most m steps
            steps += m
            if steps > budget:
                return 1, steps
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
        # unlucky cycle, pick new parameters


_TRIAL_BOUND = 10_000
# Brent steps one factorize call may take over all its Pollard rho runs
# before it refuses n. The most measured in use is 131 070, for `unit
# --conductor` at balanced 18-digit semiprimes; `unit --d 10**60+1` takes
# 106 490 and the tests and benchmark tables at most 32 766.
_BRENT_BUDGET = 2**20


@dataclass(frozen=True)
class Factorization:
    """n = product of p**e over factors, p ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors of n, ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            block = []
            for _ in range(e):
                pk *= p
                block += [d * pk for d in divs]
            divs += block
        return sorted(divs)

    def squarefree_kernel(self) -> tuple[int, int]:
        """(s, k) with n = k*k*s and s squarefree."""
        s = k = 1
        for p, e in self.factors:
            if e % 2:
                s *= p
            k *= p ** (e // 2)
        return s, k


def factorize(n: int) -> Factorization:
    """Full factorization: trial division to 10**4, then Pollard rho (Brent)
    on whatever is left, recursing until all cofactors are proven prime. A
    cofactor left once trial division passes its square root is prime
    without a test. ValueError when the Pollard runs would take more than
    _BRENT_BUDGET steps in all."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    m = n
    budget = _BRENT_BUDGET
    counts: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if d * d > m:
        # trial division passed sqrt(m): what is left is 1 or a prime
        stack = []
        if m > 1:
            counts[m] = 1
    else:
        stack = [m]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        if is_square(m):
            r = math.isqrt(m)
            stack.extend((r, r))
            continue
        g, steps = _pollard_brent(m, random.Random(m), budget)
        if g == 1:
            raise ValueError(f"cannot factor {n} within {_BRENT_BUDGET} Pollard rho steps")
        budget -= steps
        stack.extend((g, m // g))
    fac = Factorization(n, tuple(sorted(counts.items())))
    check = 1
    for p, e in fac.factors:
        check *= p ** e
    if check != n:
        raise InvariantError(f"factorization of {n} does not multiply back")
    return fac


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None when a is not a
    square mod p (Euler's criterion, then Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, k = p - 1, 0
    while q % 2 == 0:
        q //= 2
        k += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then b = c^(2^(k-i-1)) halves t's order
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (k - i - 1), p)
        k, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1.

    Completely multiplicative in n; extends the Jacobi symbol with
    (a|2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8.
    """
    if n < 1:
        raise ValueError("kronecker expects n >= 1")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
