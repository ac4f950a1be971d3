"""Quadratic surds in an exact normal form and their periodic continued
fractions.

A Surd holds (P + sqrt(D)) / Q with integer P, Q, D subject to
    D > 0 and not a perfect square,  Q != 0,  Q divides D - P*P.
The divisibility makes the classical continued-fraction state recursion
integral forever, so expansions need no rational fallback and no floats.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .arith import InvariantError, checked_record, is_square

if TYPE_CHECKING:
    from fractions import Fraction


class Surd(checked_record("Surd", "P Q D")):
    __slots__ = ()

    def __new__(cls, P: int, Q: int, D: int):
        if D <= 0 or is_square(D):
            raise ValueError(f"D must be positive and nonsquare, got {D}")
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if (D - P * P) % Q != 0:
            raise ValueError(f"Q={Q} does not divide D-P^2={D - P**2}")
        return tuple.__new__(cls, (P, Q, D))

    def conjugate(self) -> "Surd":
        """(P - sqrt(D))/Q, rewritten to keep +sqrt(D) in the numerator."""
        return Surd(-self.P, -self.Q, self.D)

    def __float__(self) -> float:
        return float(eval_approx(self, 64))

    def __repr__(self) -> str:
        return f"Surd(({self.P}+sqrt({self.D}))/{self.Q})"


def make_surd(p: int, r: int, d: int, q: int) -> Surd:
    """Canonical surd for the number (p + r*sqrt(d))/q.

    Folds r into the radicand (D = r*r*d) and, when q does not divide
    D - P*P, rescales (P, Q, D) -> (P|Q|, Q|Q|, D*Q*Q), which preserves the
    value while restoring the divisibility invariant.
    """
    if r == 0:
        raise ValueError("r = 0 gives a rational, not a quadratic surd")
    if q == 0:
        raise ValueError("q must be nonzero")
    if d <= 0 or is_square(d):
        raise ValueError(f"radicand must be positive and nonsquare, got {d}")
    if r < 0:
        p, r, q = -p, -r, -q
    P, Q, D = p, q, r * r * d
    if (D - P * P) % Q != 0:
        a = abs(Q)
        P, D, Q = P * a, D * a * a, Q * a
    return Surd(P, Q, D)


def scale(x: Surd, n: int) -> Surd:
    """The surd n * x."""
    if n == 0:
        raise ValueError("scaling by zero gives a rational")
    return make_surd(n * x.P, n, x.D, x.Q)


def mobius(x: Surd, a: int, b: int, c: int) -> Surd:
    """The surd (a*x + b) / c."""
    if a == 0:
        raise ValueError("a = 0 gives a rational")
    if c == 0:
        raise ValueError("c must be nonzero")
    return make_surd(a * x.P + b * x.Q, a, x.D, c * x.Q)


def mobius_coeffs(x: Surd, y: Surd) -> tuple[int, int, int]:
    """The inverse of mobius: (a, b, c) with y = (a*x + b)/c, c > 0 and
    gcd(a, b, c) = 1, unique since x is irrational. (1, 0, 1) means equal
    values.

    With s = sqrt(x.D*y.D), sqrt(y.D) = s*sqrt(x.D)/x.D and sqrt(x.D) =
    x.Q*x - x.P. s is an integer exactly when the surds share a field;
    otherwise ValueError.
    """
    s = math.isqrt(x.D * y.D)
    if s * s != x.D * y.D:
        raise ValueError("surds lie in different fields")
    a, b, c = s * x.Q, x.D * y.P - s * x.P, x.D * y.Q
    g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
    return a // g, b // g, c // g


def compare_to_fraction(x: Surd, fr: Fraction) -> int:
    """Sign of x - fr (never 0: x is irrational). Exact."""
    a, b = fr.numerator, fr.denominator
    # x - a/b = (b*P - a*Q + b*sqrt(D)) / (b*Q), b > 0
    u = b * x.P - a * x.Q
    s = math.isqrt(b * b * x.D)  # floor(b*sqrt(D))
    num_positive = -u <= s  # b*sqrt(D) > -u
    return (1 if num_positive else -1) * (1 if x.Q > 0 else -1)


def _reduced(P: int, Q: int, s: int) -> bool:
    """Is (P + sqrt(D))/Q reduced, i.e. x > 1 and its conjugate in (-1, 0)?
    s = isqrt(D). Term by term: x > 1 is Q <= P + s, conjugate < 0 is
    P <= s, conjugate > -1 is s < P + Q; the last two force Q > 0, and
    no surd with Q < 0 is reduced."""
    return Q <= P + s and P <= s < P + Q


def is_reduced(x: Surd) -> bool:
    """Purely periodic criterion: x > 1 and conjugate strictly in (-1, 0)."""
    return _reduced(x.P, x.Q, math.isqrt(x.D))


def _approx_ratio(x: Surd, bits: int) -> tuple[int, int]:
    """(num, den), den != 0 and of x.Q's sign, with num/den within a
    relative error of 2**-bits of x; not in lowest terms. It is
    (x.P*2**s + isqrt(x.D*4**s)) / (x.Q*2**s) for the least s in bits + 8,
    2*(bits + 8), 4*(bits + 8), ... that takes |num| past 2**bits."""
    if bits < 1:
        raise ValueError("bits must be positive")
    shift = bits + 8
    while True:
        r = math.isqrt(x.D << (2 * shift))
        num = (x.P << shift) + r
        # relative error is at most 1/|num|; demand it under 2**-bits
        if abs(num) > (1 << bits):
            return num, x.Q << shift
        shift *= 2


def eval_approx(x: Surd, bits: int) -> Fraction:
    """Rational approximation with relative error below 2**-bits: the
    Fraction of _approx_ratio's pair. Only this function of the module
    builds a Fraction, so only its callers load ``fractions``."""
    # imported here, so a command that builds no Fraction skips the 2 ms
    # that fractions, decimal and numbers take to load
    from fractions import Fraction

    return Fraction(*_approx_ratio(x, bits))


class CFExpansion(checked_record("CFExpansion", "preperiod period")):
    """Continued-fraction digits: finite preperiod, then period repeating
    forever. The period is nonempty and of least length. Every digit after
    the first is >= 1; the first may be <= 0 for small or negative surds."""

    __slots__ = ()

    def __new__(cls, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise ValueError("period must be nonempty")
        if min(preperiod[1:], default=1) < 1 or min(period) < 1:
            raise ValueError("digits after the first must be >= 1")
        return tuple.__new__(cls, (preperiod, period))

    def digits(self, n: int) -> list[int]:
        """First n digits of the full (eventually periodic) digit stream."""
        if n < 0:
            raise ValueError(f"digit count must be >= 0, got {n}")
        out = list(self.preperiod[:n])
        i = 0
        while len(out) < n:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out

    @property
    def period_length(self) -> int:
        return len(self.period)


# Most digits one expansion may take before its period closes, for a
# radicand of at most 127 bits. A period can be about sqrt(D) long; the
# longest a scan within its bound needs, N*sqrt(2) at N = 999983 (a 41-bit
# D), has 742793. A step's cost grows with the size of D, so a radicand of
# 64k bits and up may take MAX_WALK_STEPS // k digits.
MAX_WALK_STEPS = 10**6


def _state_walk(x: Surd) -> tuple[list[int], int, tuple[int, int]]:
    """Run the state recursion until the period closes. Returns (digits,
    index where the cycle starts, the purely periodic state there).

    By Galois' theorem (P + sqrt(D))/Q is purely periodic exactly when it
    is reduced (_reduced), so the first reduced state (P0, Q0) starts the
    period a_0 ... a_{L-1}. Counted in half digits (a_j at 2j), a cycle has
    a centre c wherever its digits mirror, a_j = a_{c-j}: c = 2j when
    P_{j+1} = P_j, and c = 2j + 1 when Q_{j+1} = Q_j (Perron, Die Lehre von
    den Kettenbruechen). It has no centre or two, L half digits apart. One
    sits just before the start when Q_{-1} = (D - P0^2)/Q0 equals Q0
    (c = -1) or divides 2*P0 (c = -2, and a_{L-1} = 2*P0/Q_{-1}); the walk
    then stops at the next centre, half a period on, and otherwise at the
    second. Mirroring gives the rest. sqrt(D) has Q_{-1} = 1, so every
    N*sqrt(d) walks half its period. A cycle with no centre closes on its
    start. Every walked step keeps the lattice check: Q divides D - P'^2.
    (Perron's Q_{k+1} = Q_{k-1} + a_k*(P_k - P_{k+1}), witnessed by the
    product Q_{k+1}*Q_k = D - P_{k+1}^2, gives the same states, but in
    CPython 3.11 its extra operations cost more than the remainder and
    the division it would save.)
    An expansion longer than its limit, MAX_WALK_STEPS // max(1, bits(D)//64)
    digits with mirrored ones included, raises ValueError naming it."""
    P, Q, D = x.P, x.Q, x.D
    s = math.isqrt(D)
    limit = MAX_WALK_STEPS // max(1, D.bit_length() // 64)
    digits: list[int] = []
    for _ in range(limit):
        if _reduced(P, Q, s):
            break
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        digits.append(a)
        P = a * Q - P
        n = D - P * P
        if n % Q:
            raise InvariantError("state recursion left the integral lattice")
        Q = n // Q
    start, P0, Q0 = len(digits), P, Q
    Qm = (D - P * P) // Q  # Q_{-1} > 0, the cycle's last Q, if on the lattice
    first = -1 if Qm == Q else -2 if Qm > 0 and 2 * P % Qm == 0 else None
    budget = limit - start  # digits left for the period
    for i in range(budget if first is None else (budget + 1) // 2):
        a = (P + s) // Q
        digits.append(a)
        Pn = a * Q - P
        n = D - Pn * Pn
        if n % Q:
            raise InvariantError("state recursion left the integral lattice")
        Qn = n // Q
        if Pn == P or Qn == Q:
            c = 2 * i + (Pn != P)
            if first is None:
                first = c
            elif c - first > budget:
                break
            else:
                # a_j = a_{c-j} for j > i: a_{c-i-1} back to the digit after
                # the first centre, or to a_0 when that centre precedes it.
                # Indexed from the end, the stop passes the list's start only
                # when there is no preperiod, and Python clamps it there.
                digits += digits[-1 - (Pn == P) : max(first, -1) - i - 1 : -1]
                if first == -2:
                    digits.append(2 * P0 // Qm)
                return digits, start, (P0, Q0)
        elif Pn == P0 and Qn == Q0:
            return digits, start, (P0, Q0)
        P, Q = Pn, Qn
    raise ValueError(f"continued fraction period not closed within {limit} digits")


def cf_expand(x: Surd) -> CFExpansion:
    """Expansion by the exact state recursion.

    a = floor((P + sqrt(D))/Q), then P' = a*Q - P and Q' = (D - P'^2)/Q;
    the divisibility invariant keeps Q' integral, and every step checks it
    (see _state_walk). The first reduced state cuts the digit list into
    preperiod + least period. The walk proves what CFExpansion's
    constructor checks (a nonempty period, and every digit after the first
    at least 1, since each later complete quotient exceeds 1), so the
    expansion is built without that re-check.
    """
    digits, i, _ = _state_walk(x)
    return tuple.__new__(CFExpansion, (tuple(digits[:i]), tuple(digits[i:])))


def periodic_tail(x: Surd) -> Surd:
    """The purely periodic complete quotient where x's expansion cycles,
    i.e. the surd whose expansion is exactly the repeating period."""
    _, _, (P, Q) = _state_walk(x)
    return Surd(P, Q, x.D)


def convergents(digits: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield (p, q) of [a0; a1, ..., ak] for each prefix of the digits."""
    pm1, qm1 = 1, 0
    pm2, qm2 = 0, 1
    for a in digits:
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        yield p, q
        pm2, qm2 = pm1, qm1
        pm1, qm1 = p, q
