"""Fixed interpreted work that measures how fast the machine runs right now.

    python3 bench/calibrate.py

run.py starts this in a fresh interpreter once per round, beside the measured
CLI invocations, and divides their times by its median time (see README.md,
"Calibration"). It imports nothing from quadcf, so no library change moves
its time. Its work is of the scans' kind: continued fractions of square
roots, orders of a 2x2 matrix mod n and trial division, all on small ints.
It prints one checksum, which run.py checks.
"""

from __future__ import annotations

import math

LIMIT = 4000


def sqrt_period(n: int) -> int:
    """Period length of the continued fraction of sqrt(n), 0 for squares."""
    a0 = math.isqrt(n)
    if a0 * a0 == n:
        return 0
    m, d, a, k = 0, 1, a0, 0
    while a != 2 * a0:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        k += 1
    return k


def fibonacci_order(n: int) -> int:
    """Order of [[1, 1], [1, 0]] mod n by repeated multiplication."""
    a, b, c, d = 1, 1, 1, 0
    k = 1
    while (a, b, c, d) != (1, 0, 0, 1):
        a, b, c, d = (a + b) % n, a, (c + d) % n, c
        k += 1
    return k


def factor_count(n: int) -> int:
    """Number of prime factors of n with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


def checksum() -> int:
    total = 0
    for n in range(2, LIMIT):
        total += sqrt_period(n) + factor_count(n)
    for n in range(2, LIMIT // 4):
        total += fibonacci_order(n)
    return total


if __name__ == "__main__":
    print(checksum())
