"""Integer groundwork: primality, prime sieve, factorization, square roots
mod a prime, the Kronecker symbol at a prime, and the base of the
validated records.

Everything here is exact; no floats. Numbers are plain Python ints and may
be arbitrarily large. A scan over N <= bound installs one table of smallest
prime factors (_spf_scope); while it is in place, factorize and is_prime
answer every n it covers from it (_spf_factors) and serve the rest.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import namedtuple
from contextlib import contextmanager
from typing import NamedTuple


class InvariantError(RuntimeError):
    """An internal consistency check failed (library bug, not bad input)."""


def _checked_make(cls, iterable):
    return cls(*iterable)


def checked_record(name: str, fields: str) -> type:
    """The named-tuple base of a record whose subclass validates in __new__.
    Its _make, which _replace calls too, builds through cls(...), where the
    generated one would skip the checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(_checked_make)
    return base


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# Deterministic Miller-Rabin witnesses: the thirteen primes up to 41 decide
# every n < _MR_DET_LIMIT (about 3.3 * 10**24, all of 2**64), the least strong
# pseudoprime to all of them; the twelve up to 37 only n < 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DET_LIMIT = 3317044064679887385961981
# Most multiples of a prime _spf_table writes in one slice assignment.
_SPF_BLOCK = 2**16


def primes_up_to(bound: int) -> list[int]:
    """The primes <= bound, ascending (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(2, bound + 1) if sieve[i]]


def _spf_table(bound: int) -> array:
    """The smallest prime factor of every n <= bound, as array('I'): entry n
    is n itself when n is 0, 1 or prime. Each prime p <= isqrt(bound) writes
    p over its multiples from p*p on by slice assignment, _SPF_BLOCK at a
    time so the temporary array stays short, the primes taken in descending
    order, so the smallest prime of n writes last."""
    spf = array("I", range(bound + 1))
    for p in reversed(primes_up_to(math.isqrt(bound))):
        for lo in range(p * p, bound + 1, p * _SPF_BLOCK):
            hi = min(lo + p * _SPF_BLOCK, bound + 1)
            spf[lo:hi:p] = array("I", [p]) * len(range(lo, hi, p))
    return spf


def _spf_factors(spf: array, n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n).factors read off the table spf, 1 <= n < len(spf): the
    entry of n is its least prime, divided out as often as it goes, and
    the entry of the cofactor gives the next. An entry that is not a
    factor > 1 of its n raises InvariantError naming n, so a wrong table
    cannot loop."""
    factors = []
    while n > 1:
        p = spf[n]
        if p < 2 or n % p:
            raise InvariantError(f"smallest-prime-factor table gives {p} at {n}, not a factor of it")
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    return tuple(factors)


# The running scan's table; empty outside a scan. Forked workers inherit it.
_spf = array("I")


@contextmanager
def _spf_scope(bound: int):
    """The smallest-prime-factor table of every n <= bound, in place for the
    body of the with-statement and removed after it, raised or not."""
    global _spf
    _spf = _spf_table(bound)
    try:
        yield
    finally:
        _spf = array("I")


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

    The scan's table decides every n it covers, parity every even n, and
    Miller-Rabin the odd rest: exactly below _MR_DET_LIMIT with the bases
    _MR_BASES (a base that n divides is skipped; base 2 alone is exact below
    2047), and at or above it with 64 bases drawn from random.Random(n),
    wrong with probability below 2**-128.
    """
    if n < len(_spf):
        return n > 1 and _spf[n] == n
    if n < 3 or n % 2 == 0:
        return n == 2
    if n < _MR_DET_LIMIT:
        bases = _MR_BASES
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(64))
    return not any(_mr_witness(n, a) for a in bases if a % n)


def _pollard_brent(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Brent's cycle variant of Pollard rho on composite n with no prime
    factor below the trial bound: (a nontrivial factor, steps taken), or
    (1, steps taken) once more than budget steps would be needed. A step
    is one y -> y*y + c; each round of r steps is charged 2r up front,
    for the walk ahead and its batched gcds."""
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
# Cost one factorize call may spend over all its Pollard rho runs before it
# refuses n. A run on a cofactor m costs its Brent steps times the 64-bit
# words of m, ceil(bits(m)/64), since a step's products grow with m; below
# 2**64 a step costs 1. The most measured in use is 131 070, for `unit
# --conductor` at balanced 18-digit semiprimes; `unit --d 10**60+1` takes
# 106 490 steps on cofactors of 139 to 187 bits, a cost of 319 470, and the
# tests and benchmark tables at most 32 766 steps.
_BRENT_BUDGET = 2**20


class Factorization(NamedTuple):
    """n = product of p**e over factors, p ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def squarefree_kernel(self) -> tuple[int, int]:
        """(s, k) with n = k*k*s and s squarefree."""
        s = k = 1
        for p, e in self.factors:
            if e % 2:
                s *= p
            k *= p ** (e // 2)
        return s, k


def factorize(n: int) -> Factorization:
    """Full factorization: read off the scan's table where it covers n, else
    trial division to 10**4, then Pollard rho (Brent) on whatever is left,
    recursing until all cofactors are proven prime. A cofactor left once
    trial division passes its square root is prime without a test.
    ValueError when the Pollard runs would cost more than _BRENT_BUDGET in
    all, each step weighted by its cofactor's 64-bit words."""
    if 0 < n < len(_spf):
        return Factorization(n, _spf_factors(_spf, n))
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
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        if is_square(m):
            r = math.isqrt(m)
            stack.extend((r, r))
            continue
        words = -(-m.bit_length() // 64)
        g, steps = _pollard_brent(m, random.Random(m), budget // words)
        if g == 1:
            raise ValueError(f"cannot factor {n} within {_BRENT_BUDGET} Pollard rho steps, "
                             "each counted once per 64-bit word of its number")
        budget -= steps * words
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
    square mod p (Euler's criterion by kronecker, then Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, k = p - 1, 0
    while q % 2 == 0:
        q //= 2
        k += 1
    z = 2
    while kronecker(z, p) != -1:
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


def kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a|p) at the prime p: 0 when p divides a, else 1 or
    -1 as a is a square mod p or not. Euler's criterion a^((p-1)/2) mod p
    for odd p; at p = 2, 1 for a = +-1 mod 8 and -1 for a = +-3 mod 8."""
    if p < 2:
        raise ValueError("kronecker expects a prime p")
    if p == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e
