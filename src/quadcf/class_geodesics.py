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
import itertools
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


# Largest isqrt(disc) whose window divisors come from trial division rather
# than the root walk: below it a window holds too few candidates (about
# 0.14 * isqrt(disc) per b) to pay for a root class per prime power.
TRIAL_DIVISION_MAX_ROOT = 512


def _window_divisors_by_trial(disc: int, s: int) -> Iterator[tuple[int, int, list[int]]]:
    """(b, m, ds) for reduced_forms: every d in [lo, isqrt(m)] is tried, and
    each one kept brings its partner m/d."""
    for b in range(2 - disc % 2, s + 1, 2):
        m = (disc - b * b) // 4
        ds = [d for d in range((s + 2 - b) // 2, math.isqrt(m) + 1)
              if m % d == 0 and math.gcd(d, b, m // d) == 1]
        if ds:
            yield b, m, ds + [m // d for d in reversed(ds) if d * d != m]


def _prime_power_classes(disc: int, p: int, bound: int) -> list[tuple[int, list[int]]]:
    """[(q, classes)] for the powers q = p^e <= bound, up to the first with no
    class: the b mod 2q with b^2 = disc mod 4q, that is b mod q with
    b^2 = disc mod q for odd p, and b mod 2^(e+1) with b^2 = disc mod 2^(e+2)
    for p = 2, whose list starts at q = 1. Each power is lifted from the one
    before by trying its p candidates."""
    if p == 2:
        w, q, classes = 2, 1, [disc % 2]
    else:
        r = sqrt_mod(disc, p)
        if r is None:
            return []
        w, q, classes = 1, p, sorted({r, -r % p})
    out = [(q, classes)]
    while q * p <= bound:
        mod, q = w * q, q * p
        classes = [c for r in classes for c in range(r, w * q, mod) if (c * c - disc) % (w * w * q) == 0]
        if not classes:
            break
        out.append((q, classes))
    return out


def _window_divisors_by_roots(disc: int, s: int) -> Iterator[tuple[int, int, list[int]]]:
    """(b, m, ds) for reduced_forms, from the root classes of each a <= s.

    The reduced surd (b + sqrt(disc))/(2a) is one class b mod 2a of
    b^2 = disc mod 4a (Cohen, GTM 138, 1.5), and its b is the class's one
    member in (s - 2a, s], kept when 2a <= b + s. A depth-first walk over
    a by ascending primes joins the prime-power classes by CRT; a power
    with no class ends its branch. Each kept (b, a) is packed as
    b*(s+1) + a, and the keys are sorted once and grouped by b."""
    primes = primes_up_to(s)
    powers = [_prime_power_classes(disc, p, s) for p in primes]
    keys: list[int] = []
    w = s + 1

    def walk(a: int, classes: list[int], i: int) -> None:
        two_a = 2 * a
        for r in classes:
            b = s - (s - r) % two_a
            if two_a <= b + s:
                c, rem = divmod(disc - b * b, 2 * two_a)
                if rem:
                    raise InvariantError(f"root walk: 4*{a} does not divide {disc} - {b}^2")
                if math.gcd(a, b, c) == 1:
                    keys.append(b * w + a)
        for j in range(i, len(primes)):
            if a * primes[j] > s:
                break
            for q, roots in powers[j]:
                if a * q > s:
                    break
                inv = pow(two_a, -1, q)
                walk(a * q, [r + two_a * ((t - r) * inv % q) for r in classes for t in roots], j + 1)

    for a, classes in powers[0]:  # the powers of 2, from 2^0
        walk(a, classes, 1)
    del primes, powers
    keys.append(w * w)  # above every key: the sentinel that ends the pops
    keys.sort(reverse=True)
    # popped in ascending order, so each key is freed as its forms are built
    for b, group in itertools.groupby(iter(keys.pop, w * w), w.__rfloordiv__):
        yield b, (disc - b * b) // 4, [k - b * w for k in group]


def reduced_forms(disc: int) -> list[IndefForm]:
    """All primitive reduced forms of the discriminant, deterministically
    ordered.

    b runs over its parity class up to isqrt(disc); for each b the product
    a*c = (b^2 - disc)/4 is negative, and |a| must be a divisor of its
    absolute value m inside the window ((sqrt(disc)-b)/2, (sqrt(disc)+b)/2).
    Up to isqrt(disc) = TRIAL_DIVISION_MAX_ROOT each candidate d is tried
    by division: the window's ends multiply to m, so a divisor d is inside
    it exactly when m/d is, and only the d in [lo, isqrt(m)], lo the
    window's least integer, are tried. Above it the window divisors come
    from the root classes of b^2 = disc mod 4|a|. Both signs of a occur.
    Imprimitive forms (g = gcd(a,b,c) > 1, which exist only when g^2
    divides disc) belong to disc/g^2 and are skipped. The forms are checked
    once per discriminant: each is built unchecked, since the exact
    division d * (m/d) = m = |ac| = (disc - b^2)/4 > 0 proves it.
    """
    s = _check_disc(disc)
    if s <= TRIAL_DIVISION_MAX_ROOT:
        windows = _window_divisors_by_trial(disc, s)
    else:
        windows = _window_divisors_by_roots(disc, s)
    forms: list[IndefForm] = []
    for b, m, ds in windows:
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
    return _total_length(disc, *fundamental_decomposition(disc))[0]


def _total_length(disc: int, D0: int, f: int) -> tuple[TotalLength, int]:
    """total_length(disc) and the number of reduced forms, given (D0, f) =
    fundamental_decomposition(disc): the row of duke and of classno."""
    h, forms = _cycles(disc)
    # D0 is fundamental, so its kernel is squarefree
    reg = regulator_of_order(OrderSpec(_squarefree_field(D0 if D0 % 4 == 1 else D0 // 4), f))
    total = h * reg
    return TotalLength(disc, h, reg, total, math.log(total) / math.log(math.sqrt(disc))), forms
