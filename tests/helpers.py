"""Independent oracles shared by the test modules.

Everything here is deliberately naive: trial division, brute-force
searches, Fraction arithmetic at explicit precision. The point is that
none of it shares code with the package under test, apart from the record
types it builds and reduced_forms_by_factorize, which checks the trial
division and the root walk behind reduced_forms against the package's own
factorize.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from quadcf.arith import factorize
from quadcf.class_geodesics import IndefForm
from quadcf.matrix_orders import Mat2
from quadcf.surd import Surd, make_surd


def frac_sqrt(d: int, bits: int = 160) -> Fraction:
    """Fraction below sqrt(d), within 2**-bits of it."""
    return Fraction(math.isqrt(d << (2 * bits)), 1 << bits)


def surd_fraction(x: Surd, bits: int = 160) -> Fraction:
    return (x.P + frac_sqrt(x.D, bits)) / x.Q


def cf_digits_of_fraction(fr: Fraction, count: int) -> list[int]:
    digits = []
    for _ in range(count):
        a = fr.numerator // fr.denominator
        digits.append(a)
        fr = fr - a
        if fr == 0:
            break
        fr = 1 / fr
    return digits


def sieve_primes(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(2, bound + 1) if flags[i]]


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, built from factorize(n)."""
    divs = [1]
    for p, e in factorize(n).factors:
        pk = 1
        block = []
        for _ in range(e):
            pk *= p
            block += [d * pk for d in divs]
        divs += block
    return sorted(divs)


def reduced_forms_by_factorize(disc: int) -> list[IndefForm]:
    """The reduced forms of disc enumerated with one factorize call per b:
    for each b the divisors of (disc - b^2)/4 inside the reduced window,
    both signs, primitive ones only, sorted by (b, a)."""
    s = math.isqrt(disc)
    forms = []
    for b in range(2 - disc % 2, s + 1, 2):
        m = (disc - b * b) // 4
        for d in divisors(m):
            if 2 * d - b <= s and 2 * d + b >= s + 1 and math.gcd(d, b, m // d) == 1:
                forms.append(IndefForm(d, b, -(m // d)))
                forms.append(IndefForm(-d, b, m // d))
    return sorted(forms, key=lambda F: (F.b, F.a))


def brute_pisano(n: int) -> int:
    a, b, k = 0, 1, 0
    while True:
        a, b = b, (a + b) % n
        k += 1
        if (a, b) == (0, 1):
            return k


def brute_mat_order(m: tuple[int, int, int, int], n: int, cap: int = 10**7) -> int:
    a, b, c, d = (v % n for v in m)
    x = (a, b, c, d)
    k = 1
    while x != (1 % n, 0, 0, 1 % n):
        x = (
            (x[0] * a + x[1] * c) % n,
            (x[0] * b + x[1] * d) % n,
            (x[2] * a + x[3] * c) % n,
            (x[2] * b + x[3] * d) % n,
        )
        k += 1
        if k > cap:
            raise RuntimeError("brute order runaway")
    return k


def dict_state_walk(x: Surd) -> tuple[list[int], int, tuple[int, int]]:
    """Continued-fraction state recursion that hashes every (P, Q) state
    and stops at the first repeat: (digits, cycle start, repeated state)."""
    P, Q, D = x.P, x.Q, x.D
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(digits)
        a = math.floor(surd_fraction(Surd(P, Q, D)))
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return digits, seen[(P, Q)], (P, Q)


def cycle_states(x: Surd) -> list[tuple[int, int]]:
    """The oracle's states (P_j, Q_j) of x's cycle for j = 0 .. L, from
    its first reduced state round to that state again."""
    digits, start, (P, Q) = dict_state_walk(x)
    states = [(P, Q)]
    for a in digits[start:]:
        P = a * Q - P
        Q = (x.D - P * P) // Q
        states.append((P, Q))
    return states


def cycle_shape(x: Surd) -> str:
    """Where the centres of symmetry of x's cycle lie, read off the oracle's
    states: "q-before" when Q_{-1} = Q_0 (every period of length 1),
    "p-before" when P_{-1} = P_0, "elsewhere" when some other
    P_{j+1} = P_j or Q_{j+1} = Q_j, and "none"."""
    states = cycle_states(x)
    (P0, Q0), (Pm, Qm) = states[0], states[-2]
    if Qm == Q0:
        return "q-before"
    if Pm == P0:
        return "p-before"
    pairs = zip(states, states[1:])
    if any(P == Pn or Q == Qn for (P, Q), (Pn, Qn) in pairs):
        return "elsewhere"
    return "none"


def mat_mul(A: Mat2, B: Mat2) -> Mat2:
    """The integer matrix product A*B."""
    return Mat2(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def mat_mod(M: Mat2, n: int) -> Mat2:
    """M with every entry reduced mod n."""
    return Mat2(M.a % n, M.b % n, M.c % n, M.d % n)


def repeated_mat_product(M: Mat2, k: int, n: int) -> Mat2:
    """M^k mod n as k successive Mat2 products, each reduced mod n."""
    R = mat_mod(Mat2(1, 0, 0, 1), n)
    for _ in range(k):
        R = mat_mod(mat_mul(R, M), n)
    return R


def square_multiply_mat_pow(M: Mat2, k: int, n: int) -> Mat2:
    """M^k mod n by 2x2 square and multiply on four plain ints."""
    a, b, c, d = M.a % n, M.b % n, M.c % n, M.d % n
    ra, rb, rc, rd = 1 % n, 0, 0, 1 % n
    while k:
        if k & 1:
            ra, rb, rc, rd = (
                (ra * a + rb * c) % n, (ra * b + rb * d) % n,
                (rc * a + rd * c) % n, (rc * b + rd * d) % n,
            )
        k >>= 1
        if k:
            bc, t = b * c, a + d
            a, b, c, d = (a * a + bc) % n, b * t % n, c * t % n, (d * d + bc) % n
    return Mat2(ra, rb, rc, rd)


def element_norm(f, u) -> int:
    """Norm of u = a + b*xD, with xD's trace t and norm nrm from the field:
    (a + b*xD)(a + b*xD') = a^2 + a*b*t + b^2*nrm."""
    return u.a * u.a + u.a * u.b * f.t + u.b * u.b * f.nrm


def ring_order_mod(f, alpha, N: int) -> int:
    """Order of alpha in (O/NO)^x by repeated multiplication with
    coordinates reduced mod N each step. Needs gcd(norm(alpha), N) = 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if math.gcd(element_norm(f, alpha), N) != 1:
        raise ValueError("element is not invertible mod N")
    if N == 1:
        return 1
    a0, b0 = alpha.a % N, alpha.b % N
    a, b = a0, b0
    t, nrm = f.t % N, f.nrm % N
    for k in range(1, 4 * N * N + 2):
        if a == 1 and b == 0:
            return k
        bb = b * b0 % N
        a, b = (a * a0 - bb * nrm) % N, (a * b0 + b * a0 + bb * t) % N
    raise RuntimeError("order search exceeded the group size")


def brute_unit_index(f, N: int) -> int:
    """Least k >= 1 with epsD^k in Z[N*xD]: powers of epsD multiplied out
    one at a time in coordinates mod N (xD*xD = t*xD - nrm) until the xD
    coordinate is 0."""
    a0, b0 = f.epsD
    a, b, k = a0 % N, b0 % N, 1
    while b:
        bb = b * b0
        a, b = (a * a0 - bb * f.nrm) % N, (a * b0 + b * a0 + bb * f.t) % N
        k += 1
    return k


def brute_sign_index(f, N: int) -> int:
    """Least k >= 1 with epsD^k = +1 or -1 mod N, from the same powers: the
    xD coordinate 0 and the other +-1."""
    a0, b0 = f.epsD
    a, b, k = a0 % N, b0 % N, 1
    while b or a not in (1 % N, -1 % N):
        bb = b * b0
        a, b = (a * a0 - bb * f.nrm) % N, (a * b0 + b * a0 + bb * f.t) % N
        k += 1
    return k


def reduce_form(F: IndefForm) -> tuple[IndefForm, int]:
    """Reduce an arbitrary form; returns (reduced form, steps taken).

    Each step is (a, b, c) -> (c, b', (b'^2 - disc)/(4c)) with b' = -b mod
    2|c|, taken in (-|c|, |c|] while |c| > isqrt(disc) and in the reduced
    window (s - 2|c|, s] once |c| is small. Reduced means |sqrt(disc) -
    2|a|| < b < sqrt(disc), decided here with isqrt term by term.
    """
    a, b, c = F.a, F.b, F.c
    disc = b * b - 4 * a * c
    s = math.isqrt(disc)
    max_steps = 10 + 4 * disc.bit_length() + 2 * max(abs(a), abs(c)).bit_length()
    steps = 0
    # b < sqrt(disc), sqrt(disc) < 2|a| + b, 2|a| - b < sqrt(disc)
    while not (0 < b <= s and 2 * abs(a) + b >= s + 1 and 2 * abs(a) - b <= s):
        two_c = 2 * abs(c)
        if abs(c) > s:
            r = -b % two_c
            b2 = r if r <= abs(c) else r - two_c
        else:
            b2 = s - (s + b) % two_c
        c2, rem = divmod(b2 * b2 - disc, 4 * c)
        assert rem == 0, "reduction left the discriminant lattice"
        a, b, c = c, b2, c2
        steps += 1
        if steps > max_steps:
            raise RuntimeError("reduction failed to terminate")
    return IndefForm(a, b, c), steps


def reduced_by_fractions(x: Surd) -> bool:
    """x > 1 and its conjugate strictly in (-1, 0), compared as
    160-bit fractions."""
    return surd_fraction(x) > 1 and -1 < surd_fraction(x.conjugate()) < 0


def brute_pell(m: int) -> tuple[int, int, int]:
    """Smallest unit > 1 of the maximal order of Q(sqrt(m)), m squarefree,
    as coordinates (a, b) in the basis (1, xD) plus its norm.

    For m = 1 mod 4 search (t + u*sqrt(m))/2 with t = u mod 2 and
    t^2 - m u^2 = +-4; otherwise t + u*sqrt(m) with t^2 - m u^2 = +-1.
    """
    if m % 4 == 1:
        u = 1
        while True:
            mu2 = m * u * u
            for target in (-4, 4):
                t2 = mu2 + target
                if t2 > 0:
                    t = math.isqrt(t2)
                    if t * t == t2 and (t - u) % 2 == 0:
                        return ((t - u) // 2, u, target // 4)
            u += 1
    u = 1
    while True:
        mu2 = m * u * u
        for target in (-1, 1):
            t2 = mu2 + target
            if t2 > 0:
                t = math.isqrt(t2)
                if t * t == t2:
                    return (t, u, target)
        u += 1


def window_count(period: tuple[int, ...], word: tuple[int, ...]) -> int:
    """Number of the L cyclic windows of the period equal to word, read off
    k-tuples: the period is tiled to at least L + k - 1 digits, and k
    shifted iterators over it, each stopping after L digits, zipped, are
    the windows."""
    L, k = len(period), len(word)
    tiled = period * ((k - 1) // L + 2)
    windows = zip(*(itertools.islice(tiled, j, j + L) for j in range(k)))
    return sum(map(word.__eq__, windows))


def random_surd(rng: random.Random, ms=(2, 3, 5, 13), span: int = 40) -> Surd:
    m = rng.choice(ms)
    p = rng.randint(-span, span)
    r = rng.choice([i for i in range(-12, 13) if i])
    q = rng.choice([i for i in range(-10, 11) if i])
    return make_surd(p, r, m, q)


def dirichlet_class_number(disc: int, reg: float) -> int:
    """Wide class number of a fundamental discriminant from the finite
    character sum for L(1, chi): h = sqrt(disc) * L / (2 * reg)."""
    total = 0.0
    for a in range(1, disc):
        chi = jacobi(disc, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / disc))
    L = total / math.sqrt(disc)
    h = L * math.sqrt(disc) / (2 * reg)
    assert abs(h - round(h)) < 1e-6, (disc, h)
    return round(h)


def jacobi(a: int, n: int) -> int:
    """Kronecker symbol for n >= 1, written from the reciprocity laws."""
    if n < 1:
        raise ValueError("need n >= 1")
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        two = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        return (two**e) * _jacobi_odd(a, n)
    return _jacobi_odd(a, n)


def _jacobi_odd(a: int, n: int) -> int:
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def max_element_order(f, p: int) -> int:
    """Largest order the fundamental unit can have mod an odd unramified
    prime p, with the symbol from jacobi and the unit's norm from
    element_norm: p - 1 split; inert, p + 1 for norm +1 and 2(p + 1) for
    norm -1."""
    if p == 2 or trial_factor(p) != {p: 1}:
        raise ValueError("p must be an odd prime")
    k = jacobi(f.D, p)
    if k == 0:
        raise ValueError(f"{p} is ramified")
    if k == 1:
        return p - 1
    return p + 1 if element_norm(f, f.epsD) == 1 else 2 * (p + 1)
