"""Cycles of reduced indefinite binary quadratic forms.

A form (a, b, c) of positive nonsquare discriminant b^2 - 4ac is reduced
when |sqrt(disc) - 2|a|| < b < sqrt(disc), i.e. when the surd
(b + sqrt(disc))/(2|a|) is reduced; surd._reduced decides it exactly with
isqrt. The reduction step rho permutes the finitely many reduced forms of
a discriminant, and its cycles are the narrow form classes.

total_length is h+ * R, the narrow cycle count times the wide regulator
R = log(eps). Duke's total length is h+ * R+ = 2hR (R+ from the totally
positive units): equal to it when N(eps) = +1, twice it when N(eps) = -1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import NamedTuple

from .arith import InvariantError, checked_record, factorize, is_square, primes_up_to, sqrt_mod
from .quad_orders import OrderSpec, _squarefree_field, regulator_of_order
from .surd import _reduced


def _is_disc(disc: int) -> bool:
    """Is disc a discriminant of forms here: a positive nonsquare = 0, 1 mod 4?"""
    return disc > 0 and disc % 4 in (0, 1) and not is_square(disc)


@functools.lru_cache(maxsize=128)
def _check_disc(disc: int) -> int:
    """isqrt(disc), once _is_disc(disc) holds. Memoised, since rho asks
    again at every step of a cycle; reduced_forms and rho build their
    forms without asking."""
    if not _is_disc(disc):
        raise ValueError(f"need a positive nonsquare discriminant = 0,1 mod 4, got {disc}")
    return math.isqrt(disc)


_form = tuple.__new__  # _form(IndefForm, t) skips the checks, for proven forms


class IndefForm(checked_record("IndefForm", "a b c")):
    """The form a*x^2 + b*xy + c*y^2, as the triple (a, b, c). Built only
    when a, c != 0 and the discriminant is valid."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a == 0 or c == 0:
            raise ValueError("degenerate form")
        _check_disc(b * b - 4 * a * c)
        return tuple.__new__(cls, (a, b, c))

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        """Is the surd (b + sqrt(disc))/(2|a|) reduced?"""
        return _reduced(self.b, 2 * abs(self.a), _check_disc(self.disc))


def _factor_products(disc: int) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """(b, m, factors) with m = (disc - b^2)/4 = product of p**e over the
    factors, p ascending, for every b <= isqrt(disc) with b = disc mod 2,
    b ascending, from one sieve over the polynomial.

    With b = b0 + 2i, m is a quadratic in i. An odd prime p divides it
    exactly when b = +-sqrt(disc) mod p, i.e. for i in at most two classes
    mod p; for p = 2 the class is read off i = 0 and i = 1. Every prime up
    to the square root of the largest m is divided out of its classes, all
    of its powers, so what is left of each m is 1 or a prime.
    """
    s = _check_disc(disc)
    bs = range(2 - disc % 2, s + 1, 2)
    rest = [(disc - b * b) // 4 for b in bs]
    factors: list[list[tuple[int, int]]] = [[] for _ in bs]
    n, b0 = len(bs), bs[0]
    for p in primes_up_to(math.isqrt(rest[0])):
        if p == 2:
            starts = [i for i in range(min(2, n)) if rest[i] % 2 == 0]
        else:
            r = sqrt_mod(disc, p)
            if r is None:
                continue
            half = (p + 1) // 2  # 1/2 mod p
            starts = {(r - b0) * half % p, (-r - b0) * half % p}
        for start in starts:
            for i in range(start, n, p):
                v, e = rest[i], 0
                while v % p == 0:
                    v //= p
                    e += 1
                if not e:
                    raise InvariantError(f"sieve: {p} does not divide the value at b={bs[i]}")
                rest[i] = v
                factors[i].append((p, e))
    for i, b in enumerate(bs):
        fs, factors[i] = factors[i], None  # each list is freed once yielded
        if rest[i] > 1:
            fs.append((rest[i], 1))
        m = (disc - b * b) // 4
        check = 1
        for p, e in fs:
            check *= p**e
        if check != m:
            raise InvariantError(f"sieved factorization of {m} does not multiply back")
        yield b, m, fs


# Largest isqrt(disc) whose window divisors come from trial division rather
# than the sieve: below it a window holds too few candidates (about
# 0.14 * isqrt(disc) per b) to pay for a root per prime and a factor list
# per b.
TRIAL_DIVISION_MAX_ROOT = 512


def _window_divisors_by_trial(disc: int, s: int) -> Iterator[tuple[int, int, list[int]]]:
    """(b, m, ds) for reduced_forms: every d in [lo, isqrt(m)] is tried."""
    for b in range(2 - disc % 2, s + 1, 2):
        m = (disc - b * b) // 4
        ds = [d for d in range((s + 2 - b) // 2, math.isqrt(m) + 1)
              if m % d == 0 and math.gcd(d, b, m // d) == 1]
        if ds:
            yield b, m, ds


def _window_divisors_by_sieve(disc: int, s: int) -> Iterator[tuple[int, int, list[int]]]:
    """(b, m, ds) for reduced_forms: the divisors of m up to isqrt(m) are
    built from the factor list _factor_products gives, and those from lo
    up are kept."""
    for b, m, factors in _factor_products(disc):
        lo = (s + 2 - b) // 2
        r = math.isqrt(m)
        small = [1]  # the divisors of m up to r, built prime power by prime power
        for p, e in factors:
            if p > r:
                break  # the primes ascend: no later power is small
            block, q = [], 1
            for _ in range(e):
                q *= p
                if q > r:
                    break
                cap = r // q
                block += [d * q for d in small if d <= cap]
            small += block
        ds = [d for d in small if d >= lo and math.gcd(d, b, m // d) == 1]
        if ds:
            yield b, m, ds


def reduced_forms(disc: int) -> list[IndefForm]:
    """All primitive reduced forms of the discriminant, deterministically
    ordered.

    b runs over its parity class up to isqrt(disc); for each b the product
    a*c = (b^2 - disc)/4 is negative, and |a| must be a divisor of its
    absolute value m inside the window ((sqrt(disc)-b)/2, (sqrt(disc)+b)/2).
    The window's ends multiply to m, so a divisor d is inside it exactly
    when m/d is: the window divisors come in pairs (d, m/d), and only the
    divisors d <= isqrt(m), i.e. d in [lo, isqrt(m)] with lo the window's
    least integer, are found. Up to isqrt(disc) = TRIAL_DIVISION_MAX_ROOT
    each candidate d is tried by division; above it the divisors are built
    from the factor lists of one sieve over all b. Both signs of a occur.
    Imprimitive forms (g = gcd(a,b,c) > 1, which exist only when g^2
    divides disc) belong to disc/g^2 and are skipped. The forms are checked
    once per discriminant: each is built unchecked, since the exact
    division d * (m/d) = m = |ac| = (disc - b^2)/4 > 0 proves it.
    """
    s = _check_disc(disc)
    if s <= TRIAL_DIVISION_MAX_ROOT:
        windows = _window_divisors_by_trial(disc, s)
    else:
        windows = _window_divisors_by_sieve(disc, s)
    forms: list[IndefForm] = []
    for b, m, ds in windows:
        ds += [m // d for d in ds if d * d != m]
        ds.sort()
        # ordered by (b, a): negative a first
        forms += [_form(IndefForm, (-d, b, m // d)) for d in reversed(ds)]
        forms += [_form(IndefForm, (d, b, -(m // d))) for d in ds]
    return forms


def rho(F: IndefForm) -> IndefForm:
    """Reduction-step permutation on reduced forms: (a, b, c) becomes
    (c, b', (b'^2 - disc)/(4c)) with b' = -b mod 2|c| pulled into the
    reduced window (s - 2|c|, s]. Its forms are checked once per discriminant:
    the exact division proves b'^2 - 4cc' = disc, and c' != 0 as disc is no square."""
    a, b, c = F
    disc = b * b - 4 * a * c
    s = _check_disc(disc)
    if not _reduced(b, 2 * abs(a), s):
        raise ValueError("rho expects a reduced form")
    two_c = 2 * abs(c)
    b2 = s - (s + b) % two_c
    c2, rem = divmod(b2 * b2 - disc, 4 * c)
    if rem:
        raise InvariantError("rho left the discriminant lattice")
    if not _reduced(b2, two_c, s):
        raise InvariantError("rho left the reduced set")
    return _form(IndefForm, (c, b2, c2))


def class_number(disc: int) -> int:
    """Number of rho-cycles among the reduced forms of the discriminant."""
    return _cycles(disc)[0]


def _cycles(disc: int) -> tuple[int, int]:
    """(number of rho-cycles, number of reduced forms).

    Each cycle is walked once, and each form leaves the set of forms not
    yet visited as the walk reaches it; a form rho returns that is not in
    that set means rho is not a permutation of the reduced forms.
    """
    left = set(reduced_forms(disc))
    n = len(left)
    cycles = 0
    while left:
        F = G = left.pop()
        cycles += 1
        while (G := rho(G)) != F:
            try:
                left.remove(G)
            except KeyError:
                raise InvariantError("rho is not a permutation of the reduced forms") from None
    return cycles, n


def fundamental_decomposition(disc: int) -> tuple[int, int]:
    """disc = f^2 * D0 with D0 a fundamental discriminant; returns (D0, f)."""
    _check_disc(disc)
    s, k = factorize(disc).squarefree_kernel()
    if s % 4 == 1:
        return s, k
    if k % 2:
        raise InvariantError("squarefree part 2,3 mod 4 forces an even square part")
    return 4 * s, k // 2


class TotalLength(NamedTuple):
    """h is h+, reg the wide R, total_length = h+ * R: Duke's h+ * R+ when
    N(eps) = +1, half of it when N(eps) = -1."""

    disc: int
    h: int
    reg: float
    total_length: float
    exponent: float  # ln(total_length) / ln(sqrt(disc))


def total_length(disc: int) -> TotalLength:
    """Narrow class number times the wide regulator of the order, h+ * R,
    with the exponent ln(h*reg)/ln(sqrt(disc)) that the census tracks:
    Duke's h+ * R+ = 2hR when N(eps) = +1, hR (half) when N(eps) = -1."""
    return _total_length(disc, class_number(disc))


def _total_length(disc: int, h: int) -> TotalLength:
    D0, f = fundamental_decomposition(disc)
    # D0's kernel is squarefree: fundamental_decomposition factored disc
    reg = regulator_of_order(OrderSpec(_squarefree_field(D0 if D0 % 4 == 1 else D0 // 4), f))
    total = h * reg
    return TotalLength(disc, h, reg, total, math.log(total) / math.log(math.sqrt(disc)))
