"""Quadratic surds in an exact normal form and their periodic continued
fractions.

A Surd holds (P + sqrt(D)) / Q with integer P, Q, D subject to
    D > 0 and not a perfect square,  Q != 0,  Q divides D - P*P.
The divisibility makes the classical continued-fraction state recursion
integral forever, so expansions need no rational fallback and no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import InvariantError, checked_record, is_square


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


def scale(x: Surd, num: int, den: int = 1) -> Surd:
    """The surd (num/den) * x."""
    if num == 0:
        raise ValueError("scaling by zero gives a rational")
    if den <= 0:
        raise ValueError("den must be positive")
    return make_surd(num * x.P, num, x.D, den * x.Q)


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


def eval_approx(x: Surd, bits: int = 53) -> Fraction:
    """Rational approximation with relative error below 2**-bits."""
    if bits < 1:
        raise ValueError("bits must be positive")
    shift = bits + 8
    while True:
        r = math.isqrt(x.D << (2 * shift))
        num = (x.P << shift) + r
        # relative error is at most 1/|num|; demand it under 2**-bits
        if abs(num) > (1 << bits):
            return Fraction(num, x.Q << shift)
        shift *= 2


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
    is reduced (_reduced). The first reduced state starts the period; the
    period ends when it returns. A state P + sqrt(D) (Q = 1) met before
    then is one digit away from sqrt(D)'s period, whose palindrome
    _root_period walks only half of; sqrt(D) itself, and so every N*sqrt(d),
    takes that path at its first step.
    An expansion longer than its limit, MAX_WALK_STEPS // max(1, bits(D)//64)
    digits with mirrored ones included, raises ValueError naming it."""
    P, Q, D = x.P, x.Q, x.D
    s = math.isqrt(D)
    limit = MAX_WALK_STEPS // max(1, D.bit_length() // 64)
    digits: list[int] = []
    start, P0, Q0 = -1, 0, 0  # Q is never 0, so no state matches until set
    for _ in range(limit):
        if start < 0:
            if _reduced(P, Q, s):
                start, P0, Q0 = len(digits), P, Q
            elif Q == 1:  # P + sqrt(D) with P != s; next comes (s, D - s*s)
                digits.append(P + s)
                start = len(digits)
                period = _root_period(D, s, limit - start)
                if period is None:
                    break
                digits += period
                return digits, start, (s, D - s * s)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        digits.append(a)
        P = a * Q - P
        n = D - P * P
        if n % Q:
            raise InvariantError("state recursion left the integral lattice")
        Q = n // Q
        if Q == Q0 and P == P0:
            return digits, start, (P, Q)
    raise ValueError(f"continued fraction period not closed within {limit} digits")


def _root_period(D: int, s: int, limit: int) -> list[int] | None:
    """The period a1 ... a_{L-1}, 2s of sqrt(D), s = isqrt(D), walking only
    its first half; None when L > limit.

    The period is a palindrome before its last digit, and so are its
    states: from (P1, Q1) = (s, D - s*s), the k-th step of the walk returns
    to (P1, Q1) exactly when L = k = 1, repeats P (P_{k+1} = P_k) exactly
    when L = 2k, and repeats Q exactly when L = 2k + 1 (Perron, Die Lehre
    von den Kettenbruechen). The digits a1 ... ak walked so far then give
    the rest by mirroring. Every walked step keeps the lattice check. While
    the walk has not stopped L >= 2k + 2, so it walks at most (limit + 1)//2
    steps.
    """
    P1, Q1 = P, Q = s, D - s * s
    half: list[int] = []
    for _ in range((limit + 1) // 2):
        a = (P + s) // Q
        half.append(a)
        Pn = a * Q - P
        n = D - Pn * Pn
        if n % Q:
            raise InvariantError("state recursion left the integral lattice")
        Qn = n // Q
        if Pn == P1 and Qn == Q1:
            period = half
        elif Pn == P:
            period = half + half[-2::-1] + [2 * s]
        elif Qn == Q:
            period = half + half[::-1] + [2 * s]
        else:
            P, Q = Pn, Qn
            continue
        return period if len(period) <= limit else None
    return None


def cf_expand(x: Surd) -> CFExpansion:
    """Expansion by the exact state recursion.

    a = floor((P + sqrt(D))/Q), then P' = a*Q - P and Q' = (D - P'^2)/Q;
    the divisibility invariant keeps Q' integral. The first reduced state
    cuts the digit list into preperiod + least period (see _state_walk).
    """
    digits, i, _ = _state_walk(x)
    return CFExpansion(tuple(digits[:i]), tuple(digits[i:]))


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
