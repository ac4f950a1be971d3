"""Real quadratic orders through a single canonical generator.

For a squarefree m > 1 the generator is xD = sqrt(m), or (1 + sqrt(m))/2
when m = 1 mod 4; either way Z[xD] is the maximal order, of discriminant
D = 4m resp. m. Elements are integer pairs (a, b) meaning a + b*xD, and
multiplication by an element is the 2x2 integer matrix phi(alpha) acting
on the basis {1, xD}. Suborders are Z[f*xD] for f >= 1.

Two different power indices of the fundamental unit appear mod N:

  unit_group_index(N): least k with phi(eps)^k scalar mod N. This equals
      the index (Z[xD]^x : Z[N*xD]^x) and drives regulators of suborders.
  R_of(N): least k with phi(eps)^k = +I or -I mod N. This is u or 2u,
      u the unit-group index: phi(eps)^u = c*I with c*c = N(eps)^u = +-1
      mod N, and c need not be +-1 (Fibonacci matrix mod 5 hits 3*I at
      k = 5).

Regulators use unit_group_index; R_of is kept as the coarser +-I variant.
Since c^4 = 1, the matrix order o of phi(epsD) mod N, which matrix_orders
computes, is u, 2u or 4u, and the unit-group index is read off it with at
most two power tests; Mat2 is defined there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .arith import InvariantError, checked_record, factorize, is_square
from .matrix_orders import Mat2, _is_scalar_power, _power, _reduce, mat_order_mod
from .surd import Surd, _approx_ratio, _state_walk, eval_approx, mobius_coeffs

if TYPE_CHECKING:
    from fractions import Fraction


class AlgInt(NamedTuple):
    """a + b*xD with integer coordinates in the basis {1, xD}."""

    a: int
    b: int


class FieldData(NamedTuple):
    """The maximal order of Q(sqrt(m)) with its fundamental unit.

    t and nrm are trace and norm of xD, so xD*xD = t*xD - nrm. epsD is the
    smallest unit > 1 of Z[xD]; regD its natural log; unit_norm its norm.
    """

    m: int
    D: int
    xD: Surd
    t: int
    nrm: int
    epsD: AlgInt
    regD: float
    unit_norm: int


class OrderSpec(checked_record("OrderSpec", "field f")):
    """The suborder Z[f*xD] of conductor f inside field.D's maximal order."""

    __slots__ = ()

    def __new__(cls, field: FieldData, f: int):
        if f < 1:
            raise ValueError("conductor must be >= 1")
        return tuple.__new__(cls, (field, f))

    @property
    def disc(self) -> int:
        return self.f * self.f * self.field.D


def field_data(d: int) -> FieldData:
    """Accepts a squarefree m > 1 or a fundamental discriminant D > 0.

    Rejects perfect squares, m <= 1, and discriminants with a square
    factor that are not of the 4m shape. m and xD follow from d mod 4;
    the unit's period is walked (its length is bounded) before m is
    factored, once, to check that it is squarefree.
    """
    if d <= 1:
        raise ValueError("need an integer > 1")
    if is_square(d):
        raise ValueError(f"{d} is a perfect square")
    m = d // 4 if d % 4 == 0 else d
    not_fundamental = f"{d} is neither squarefree nor a fundamental discriminant"
    if m != d and m % 4 in (0, 1):
        raise ValueError(not_fundamental)
    fdata = _squarefree_field(m)
    if not factorize(m).is_squarefree():
        raise ValueError(not_fundamental)
    return fdata


def _squarefree_field(m: int) -> FieldData:
    """field_data of m > 1, taken to be squarefree without a check."""
    xD = _generator(m)
    D, t, nrm = (m, 1, (1 - m) // 4) if m % 4 == 1 else (4 * m, 0, -m)
    eps, norm = _unit_from_period(xD, t, nrm, xD)
    return FieldData(m, D, xD, t, nrm, eps, _log_value(xD, eps), norm)


def _generator(m: int) -> Surd:
    """xD of the squarefree m: (1 + sqrt(m))/2 when m = 1 mod 4, else sqrt(m)."""
    return Surd(1, 2, m) if m % 4 == 1 else Surd(0, 1, m)


# ---- element arithmetic ----

def alg_mul(f: FieldData, u: AlgInt, v: AlgInt) -> AlgInt:
    # (a + b x)(c + d x) with x*x = t*x - nrm
    bd = u.b * v.b
    return AlgInt(u.a * v.a - bd * f.nrm, u.a * v.b + u.b * v.a + bd * f.t)


def alg_pow(f: FieldData, u: AlgInt, k: int) -> AlgInt:
    if k < 0:
        raise ValueError("negative powers not supported here")
    r = AlgInt(1, 0)
    while k:
        if k & 1:
            r = alg_mul(f, r, u)
        u = alg_mul(f, u, u)
        k >>= 1
    return r


def alg_value(f: FieldData, u: AlgInt) -> Fraction:
    return u.a + u.b * eval_approx(f.xD, 96)


def _log_value(xD: Surd, u: AlgInt) -> float:
    """Natural log of the real value of u; u must be positive.

    With xD ~ num/d from _approx_ratio at 96 bits (d > 0, since xD's Q is
    1 or 2), u ~ n/d for n = u.a*d + u.b*num. Dividing n and d by g =
    gcd(n, d) leaves that rational in lowest terms, and lowest terms are
    unique: they are the numerator and denominator of the Fraction
    u.a + u.b*eval_approx(xD, 96), so the logs are those of the same two
    integers and the float agrees bit for bit. math.log takes integers of
    any size, and these may carry thousands of digits."""
    num, d = _approx_ratio(xD, 96)
    n = u.a * d + u.b * num
    if n <= 0:
        raise ValueError("log of a non-positive element")
    g = math.gcd(n, d)
    return math.log(n // g) - math.log(d // g)


def phi(f: FieldData, alpha: AlgInt) -> Mat2:
    """Multiplication-by-alpha matrix on the basis {1, xD}: first row the
    coordinates of alpha*1, second row those of alpha*xD. Trace and det
    are the trace and norm of alpha."""
    return Mat2(alpha.a, alpha.b, -alpha.b * f.nrm, alpha.a + alpha.b * f.t)


def surd_coords(x: Surd) -> tuple[int, int, int, int]:
    """(m, u, v, w): x = (u + v*xD)/w with w > 0, gcd(u, v, w) = 1, v != 0.

    m is the squarefree part of the radicand and fixes which xD is meant.
    The tuple is a canonical label of x's value: two surds are equal
    numbers exactly when their coordinates match.
    """
    m = factorize(x.D).squarefree_kernel()[0]
    v, u, w = mobius_coeffs(_generator(m), x)
    return m, u, v, w


def _unit_from_period(xD: Surd, t: int, nrm: int, z: Surd) -> tuple[AlgInt, int]:
    """Smallest unit > 1 of the stabilizer order of Z + Z*z, and its norm,
    read off one least period of z's continued fraction. z must lie in
    the field of the generator xD (else ValueError).

    If M is the product of the digit matrices [[a,1],[1,0]] over one
    period of the purely periodic tail y, then y is fixed by M as a Mobius
    map and eps = M21*y + M22 is the fundamental automorph; its norm is
    det M = (-1)^period_length. Only M's bottom row (c, d) is carried.
    """
    digits, i, (P, Q) = _state_walk(z)
    period = digits[i:]
    vy, uy, wy = mobius_coeffs(xD, Surd(P, Q, z.D))
    c, d = 0, 1
    for a in period:
        c, d = c * a + d, c
    a_num = c * uy + d * wy
    b_num = c * vy
    if a_num % wy or b_num % wy:
        raise InvariantError("automorph has non-integral coordinates")
    eps = AlgInt(a_num // wy, b_num // wy)
    norm = eps.a * eps.a + eps.a * eps.b * t + eps.b * eps.b * nrm
    if norm != (-1) ** len(period):
        raise InvariantError("automorph norm disagrees with period parity")
    return eps, norm


# ---- suborders ----

def in_suborder(f: FieldData, alpha: AlgInt, N: int) -> bool:
    """Membership of alpha in Z[N*xD], decided twice: the coordinate test
    (N divides b) and the scalar-matrix test (phi(alpha) scalar mod N).
    The two must agree."""
    if N < 1:
        raise ValueError("N must be >= 1")
    by_coord = alpha.b % N == 0
    by_matrix = phi(f, alpha).is_scalar_mod(N)
    if by_coord != by_matrix:
        raise InvariantError("coordinate and matrix membership tests disagree")
    return by_coord


def unit_group_index(f: FieldData, N: int) -> int:
    """(Z[xD]^x : Z[N*xD]^x): least u >= 1 with phi(epsD)^u scalar mod N.

    It is o/4, o/2 or o for the matrix order o of M = phi(epsD) mod N: the
    scalar powers of M form a subgroup of Z containing o, so u divides o,
    and M^u = c*I with c^2 = det(M)^u = +-1, so c^4 = 1, M^(4u) = I and o
    divides 4u. Hence u is o/4 when M^(o/4) is scalar, else o/2 when M^(o/2)
    is, else o."""
    M = phi(f, f.epsD)
    o = mat_order_mod(M, N)
    R = _reduce(M, N)
    for j in (4, 2):
        if o % j == 0 and _is_scalar_power(R, o // j, N):
            return o // j
    return o


def R_of(f: FieldData, N: int) -> int:
    """Least k >= 1 with phi(epsD)^k = +I or -I mod N: u or 2u, with u =
    unit_group_index(N). phi(epsD)^u is c*I mod N, and its determinant gives
    c^2 = N(eps)^u = +-1, so phi(epsD)^(2u) = +-I; R_of is u exactly when
    c = +-1 mod N."""
    u = unit_group_index(f, N)
    a, b, c, d = _power(_reduce(phi(f, f.epsD), N), u, N)[:4]  # reduced mod N
    if b or c or a != d or (a * a - f.unit_norm**u) % N:
        raise InvariantError(f"phi(eps)^{u} mod {N} is not a scalar c*I with c^2 = N(eps)^{u}")
    return u if a in (1 % N, N - 1) else 2 * u


def regulator_of_order(o: OrderSpec) -> float:
    """Regulator of Z[f*xD]: regD times the unit-group index at f. Equals
    the log of the least power of epsD landing inside Z[f*xD]."""
    return o.field.regD * unit_group_index(o.field, o.f)


def conductor_of_surd(f: FieldData, x: Surd) -> int:
    """The l >= 1 with stabilizer order of Z + Z*x equal to Z[l*xD].

    That order's discriminant l*l*f.D is the discriminant of x's primitive
    minimal polynomial (Q*x^2 - 2P*x + (P^2 - D)/Q)/g with g = gcd(Q, 2P,
    (P^2 - D)/Q), which is 4D/g^2. A surd of another field leaves a
    quotient 4D/(g^2*f.D) that is not an exact square: ValueError.
    """
    g = math.gcd(x.Q, 2 * x.P, (x.P * x.P - x.D) // x.Q)
    l2, rem = divmod(4 * x.D, g * g * f.D)
    l = math.isqrt(l2)
    if rem or l * l != l2:
        raise ValueError("surd lies in a different field")
    return l
