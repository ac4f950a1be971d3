"""Multiplicative orders of 2x2 integer matrices mod N.

The order mod N is the lcm of the orders mod each p^e || N (CRT). The
order mod p^e is stripped out of a multiple k of it: each prime q of k is
divided out of k for as long as M^(k/q) = I still holds. k is p^(e-1),
the exponent of the kernel of reduction mod p^e -> p, times a multiple of
the order mod p. Mod an odd p the characteristic polynomial gives that
multiple (p-1 split, p+1 or 2(p+1) inert depending on det, p^2-1 inert
otherwise, p(p-1) for a double root); mod 2 it is 6, the exponent of
GL2(F2) = S3.

A scan installs one smallest-prime-factor table around its items (see
arith); while it is in place, factorize and is_prime read N and the
multiples of the orders mod p off it. A scan over N <= bound meets the
same p^e again at every multiple of it, so it also installs an order memo
on (M, p, e) (_order_scope), which keeps the order mod p^e when 2p^e <=
bound: a larger p^e divides no other N of the scan. The unit command
installs one for the three numbers it reads off the order mod its
conductor. Elsewhere nothing is memoised: what a call costs, and which
checks it runs, depend on its arguments alone.

The witness mod N proves the order o: A = M^(o/q0) mod N for the least
prime q0 of o shows M^(o/q0) != I, its power A^q0, which is M^o mod N,
shows M^o = I, and M^(o/q) != I is tested for every other prime q of o;
at o = 1 the one check is M = I. That is 1 + omega(o) powers mod N, M^o
coming from the small exponent q0. The witness runs wherever its verdict
is new to the call: for every N with two or more prime powers, where the
lcm is new, and for N = p^e on a memo hit, so a wrong memo entry raises.
It does not run when N = p^e has just computed its order, since the strip
has then proven the same facts mod N: M^o = I is its last kept removal
(or the multiple it started from), and for each prime q of o the removal
that stopped it found M^(k/q) != I at a multiple k of o, so M^(o/q) != I
as well.

Every power M^k mod n comes from the pair (U_k, U_(k-1)) of the Lucas
sequence of M's characteristic polynomial (Cayley-Hamilton), carried up
the bits of k on two residues instead of four matrix entries (_lucas).
A power that is only tested, against I or for being scalar, is read off
the pair and M's entries without building the matrix; the entries, trace
and det are reduced mod n once per (M, n) (_reduce).

Mat2 lives here, with the code that powers it. quad_orders builds its
matrices (phi), reads the unit-group index off mat_order_mod's order with
_is_scalar_power and the power at that index with _power; this module
imports nothing from quad_orders, not even for annotations.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from .arith import InvariantError, factorize, kronecker


class Mat2(NamedTuple):
    """Integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_scalar_mod(self, n: int) -> bool:
        return (
            self.b % n == 0
            and self.c % n == 0
            and (self.a - self.d) % n == 0
        )


def _reduce(M: Mat2, n: int) -> tuple[int, int, int, int, int, int]:
    """(a, b, c, d, trace, det) of M, each reduced mod n: what the power
    tests and _power read, computed once per (M, n)."""
    a, b, c, d = M.a % n, M.b % n, M.c % n, M.d % n
    return a, b, c, d, (a + d) % n, (a * d - b * c) % n


def _lucas(t: int, det: int, k: int, n: int) -> tuple[int, int]:
    """(U_k, U_(k-1)) mod n for k >= 1, where t and det are M's trace and
    determinant reduced mod n.

    By Cayley-Hamilton M^k = U_k*M - det*U_(k-1)*I, where U_0 = 0, U_1 = 1,
    U_(j+1) = t*U_j - det*U_(j-1). A ladder over the bits of k carries
    (U_j, U_(j-1)) mod n: doubling takes it to (U_2j, U_(2j-1))
    = (U_j*(t*U_j - 2*det*U_(j-1)), U_j^2 - det*U_(j-1)^2), and a set bit
    steps it to (U_(j+1), U_j). That is five products per doubling and two
    per set bit, where 2x2 square and multiply needs five and eight. The
    matrix of a unit has det = +-1, which the ladder steps without the det
    products: four per doubling and one per set bit.
    """
    u, v = 1, 0  # (U_j, U_(j-1)) at j = 1, the leading bit of k
    if det == 1:
        for bit in bin(k)[3:]:
            u, v = u * (t * u - 2 * v) % n, (u * u - v * v) % n
            if bit == "1":
                u, v = (t * u - v) % n, u
    elif det == n - 1:  # det = -1
        for bit in bin(k)[3:]:
            u, v = u * (t * u + 2 * v) % n, (u * u + v * v) % n
            if bit == "1":
                u, v = (t * u + v) % n, u
    else:
        for bit in bin(k)[3:]:
            dv = det * v % n
            u, v = u * (t * u - 2 * dv) % n, (u * u - dv * v) % n
            if bit == "1":
                u, v = (t * u - det * v) % n, u
    return u, v


def _power(R: tuple, k: int, n: int) -> tuple[int, int, int, int, int, int]:
    """_reduce(M^k, n) from R = _reduce(M, n), for k >= 1."""
    a, b, c, d, t, det = R
    u, v = _lucas(t, det, k, n)
    dv = det * v
    a, b, c, d = (u * a - dv) % n, u * b % n, u * c % n, (u * d - dv) % n
    return a, b, c, d, (a + d) % n, (a * d - b * c) % n


def _is_identity_power(R: tuple, k: int, n: int) -> bool:
    """M^k = I mod n, for R = _reduce(M, n) and k >= 1: U_k*b = U_k*c = 0
    and U_k*a - det*U_(k-1) = U_k*d - det*U_(k-1) = 1 mod n."""
    a, b, c, d, t, det = R
    u, v = _lucas(t, det, k, n)
    if u * b % n or u * c % n:
        return False
    dv = det * v
    return (u * a - dv) % n == (u * d - dv) % n == 1 % n


def _is_scalar_power(R: tuple, k: int, n: int) -> bool:
    """M^k is scalar mod n, for R = _reduce(M, n) and k >= 1: U_k*b = U_k*c
    = U_k*(a - d) = 0 mod n."""
    a, b, c, d, t, det = R
    u = _lucas(t, det, k, n)[0]
    return not (u * b % n or u * c % n or u * (a - d) % n)


def _order_multiple(M: Mat2, p: int) -> int:
    """A multiple of the order of M mod the prime p, det M a unit mod p."""
    if p == 2:
        return 6  # exponent of GL2(F2) = S3
    t, d = M.trace % p, M.det % p
    delta = (t * t - 4 * d) % p
    if delta == 0:
        return p * (p - 1)  # double eigenvalue: scalar times unipotent
    if kronecker(delta, p) == 1:
        return p - 1  # eigenvalues in F_p
    if d == 1:
        return p + 1  # inert, det 1: lambda^(p+1) = 1
    if d == p - 1:
        return 2 * (p + 1)  # inert, det -1: lambda^(p+1) = -1
    return p * p - 1  # inert, general det


# The running scan's memo, (M, p, e) -> (order of M mod p^e, the primes of
# that order), and the bound of its N; empty and 0 outside a scan. Forked
# workers inherit them.
_order_memo: dict[tuple[Mat2, int, int], tuple[int, tuple[int, ...]]] = {}
_order_bound = 0


@contextmanager
def _order_scope(bound: int):
    """An empty order memo for a scan over N <= bound, in place for the body
    of the with-statement and removed after it, raised or not."""
    global _order_memo, _order_bound
    _order_memo, _order_bound = {}, bound
    try:
        yield
    finally:
        _order_memo, _order_bound = {}, 0


def _prime_power_order(M: Mat2, p: int, e: int) -> tuple[int, tuple[int, ...], bool]:
    """Order of M mod p^e, det M a unit mod p, the primes of that order, and
    whether this call computed them (True) or read them from _order_memo.
    A computed order is kept when 2p^e <= _order_bound."""
    entry = _order_memo.get((M, p, e))
    if entry is not None:
        return (*entry, False)
    n = p**e
    R = _reduce(M, n)
    m = _order_multiple(M, p)
    o = m * p ** (e - 1)
    if not _is_identity_power(R, o, n):
        raise InvariantError(f"candidate exponent {o} is not annihilating mod {n}")
    primes = sorted({*factorize(m).primes, p})
    for q in primes:
        while o % q == 0 and _is_identity_power(R, o // q, n):
            o //= q
    entry = o, tuple(q for q in primes if o % q == 0)
    if 2 * n <= _order_bound:
        _order_memo[M, p, e] = entry
    return (*entry, True)


def mat_order_mod(M: Mat2, N: int) -> int:
    """Multiplicative order of M modulo N; requires gcd(det M, N) = 1.

    The result o is verified mod N: M^o = I and M^(o/q) != I for every
    prime q dividing o, M^o as the q0-th power of M^(o/q0) for the least
    prime q0. When N = p^e computes its order rather than reading it from
    an installed (M, p, e) memo, the strip that found o has just proven both
    mod N; otherwise they are tested here.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if math.gcd(M.det, N) != 1:
        raise ValueError("matrix is not invertible mod N")
    if N == 1:
        return 1
    factors = factorize(N).factors
    o, primes = 1, set()
    for p, e in factors:
        op, qs, fresh = _prime_power_order(M, p, e)
        o = math.lcm(o, op)
        primes.update(qs)
    if fresh and len(factors) == 1:
        return o
    # the witness over the primes of o: a wrong memo entry may list others,
    # and o // q0 must be exact for A^q0 to be M^o
    qs = sorted(q for q in primes if o % q == 0)
    R = _reduce(M, N)
    if not qs:  # o = 1
        if not _is_identity_power(R, o, N):
            raise InvariantError("claimed order does not annihilate")
        return o
    A = _power(R, o // qs[0], N)
    if A[:4] == (1 % N, 0, 0, 1 % N):
        raise InvariantError("claimed order is not minimal")
    if not _is_identity_power(A, qs[0], N):
        raise InvariantError("claimed order does not annihilate")
    for q in qs[1:]:
        if _is_identity_power(R, o // q, N):
            raise InvariantError("claimed order is not minimal")
    return o
