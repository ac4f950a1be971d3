"""Cycles of reduced indefinite binary quadratic forms.

A form (a, b, c) of positive nonsquare discriminant b^2 - 4ac is reduced
when |sqrt(disc) - 2|a|| < b < sqrt(disc); both inequalities are decided
exactly with isqrt. The reduction step rho permutes the finitely many
reduced forms of a discriminant, its cycles are the form classes, and the
cycle count times the order's regulator is the total length invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import InvariantError, factorize, is_square
from .quad_orders import OrderSpec, field_data, regulator_of_order


def _check_disc(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1) or is_square(disc):
        raise ValueError(f"need a positive nonsquare discriminant = 0,1 mod 4, got {disc}")
    return math.isqrt(disc)


@dataclass(frozen=True)
class IndefForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 or self.c == 0:
            raise ValueError("degenerate form")
        _check_disc(self.disc)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        # |sqrt(disc) - 2|a|| < b < sqrt(disc), all via s = isqrt(disc):
        # b < sqrt(disc)      <=>  b <= s        (sqrt irrational)
        # sqrt(disc) < 2|a|+b <=>  2|a|+b >= s+1
        # 2|a|-b < sqrt(disc) <=>  2|a|-b <= s
        s = math.isqrt(self.disc)
        aa = 2 * abs(self.a)
        return 0 < self.b <= s and aa + self.b >= s + 1 and aa - self.b <= s


def reduced_forms(disc: int) -> list[IndefForm]:
    """All primitive reduced forms of the discriminant, deterministically
    ordered.

    b runs over its parity class up to isqrt(disc); for each b the product
    a*c = (b^2 - disc)/4 is negative, and |a| must be a divisor of its
    absolute value inside the window ((sqrt(disc)-b)/2, (sqrt(disc)+b)/2).
    Both signs of a occur. Imprimitive forms (g = gcd(a,b,c) > 1, which
    exist only when g^2 divides disc) belong to disc/g^2 and are skipped.
    """
    s = _check_disc(disc)
    forms: list[IndefForm] = []
    b0 = 2 - (disc % 2)  # smallest positive b with b = disc mod 2
    for b in range(b0, s + 1, 2):
        m = (disc - b * b) // 4
        for d in factorize(m).divisors():
            if 2 * d - b <= s and 2 * d + b >= s + 1 and math.gcd(d, b, m // d) == 1:
                forms.append(IndefForm(d, b, -(m // d)))
                forms.append(IndefForm(-d, b, m // d))
    return sorted(forms, key=lambda F: (F.b, F.a))


def rho(F: IndefForm) -> IndefForm:
    """Reduction-step permutation on reduced forms: (a, b, c) becomes
    (c, b', (b'^2 - disc)/(4c)) with b' = -b mod 2|c| pulled into the
    reduced window (s - 2|c|, s]."""
    if not F.is_reduced():
        raise ValueError("rho expects a reduced form")
    s = math.isqrt(F.disc)
    two_c = 2 * abs(F.c)
    b2 = s - (s + F.b) % two_c
    c2, rem = divmod(b2 * b2 - F.disc, 4 * F.c)
    if rem:
        raise InvariantError("rho left the discriminant lattice")
    out = IndefForm(F.c, b2, c2)
    if not out.is_reduced():
        raise InvariantError("rho left the reduced set")
    return out


def reduce_form(F: IndefForm) -> tuple[IndefForm, int]:
    """Reduce an arbitrary form; returns (reduced form, steps taken).

    The same (a,b,c) -> (c,b',c') step, with b' chosen in (-|c|, |c|]
    while |c| is still large and in the reduced window once it is small.
    The number of steps is logarithmic in the coefficients.
    """
    s = math.isqrt(F.disc)
    max_steps = 10 + 4 * F.disc.bit_length() + 2 * max(abs(F.a), abs(F.c)).bit_length()
    steps = 0
    while not F.is_reduced():
        two_c = 2 * abs(F.c)
        if abs(F.c) > s:
            r = (-F.b) % two_c
            b2 = r if r <= abs(F.c) else r - two_c
        else:
            b2 = s - (s + F.b) % two_c
        c2, rem = divmod(b2 * b2 - F.disc, 4 * F.c)
        if rem:
            raise InvariantError("reduction left the discriminant lattice")
        F = IndefForm(F.c, b2, c2)
        steps += 1
        if steps > max_steps:
            raise InvariantError("reduction failed to terminate")
    return F, steps


def class_number(disc: int) -> int:
    """Number of rho-cycles among the reduced forms of the discriminant."""
    forms = reduced_forms(disc)
    seen: set[IndefForm] = set()
    cycles = 0
    for F in forms:
        if F in seen:
            continue
        cycles += 1
        G = F
        while True:
            seen.add(G)
            G = rho(G)
            if G == F:
                break
    if len(seen) != len(forms):
        raise InvariantError("rho-cycles did not exhaust the reduced forms")
    return cycles


def fundamental_decomposition(disc: int) -> tuple[int, int]:
    """disc = f^2 * D0 with D0 a fundamental discriminant; returns (D0, f)."""
    _check_disc(disc)
    s, k = factorize(disc).squarefree_kernel()
    if s % 4 == 1:
        return s, k
    if k % 2:
        raise InvariantError("squarefree part 2,3 mod 4 forces an even square part")
    return 4 * s, k // 2


@dataclass(frozen=True)
class TotalLength:
    disc: int
    h: int
    reg: float
    total_length: float
    exponent: float  # ln(total_length) / ln(sqrt(disc))


def total_length(disc: int) -> TotalLength:
    """Class number times the regulator of the order of that discriminant,
    with the exponent ln(h*reg)/ln(sqrt(disc)) that the census tracks."""
    h = class_number(disc)
    D0, f = fundamental_decomposition(disc)
    reg = regulator_of_order(OrderSpec(field_data(D0), f))
    total = h * reg
    return TotalLength(disc, h, reg, total, math.log(total) / math.log(math.sqrt(disc)))
