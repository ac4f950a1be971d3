import itertools
import math
import random
import types
from collections import Counter

import pytest

from quadcf.experiments import COMPOSITE, INERT, RAMIFIED, SPLIT, OrderRecord
from quadcf.matrix_orders import mat_order_mod
import quadcf
import quadcf.cli as cli
from quadcf import arith, experiments, matrix_orders
from quadcf.arith import InvariantError, _spf_scope, factorize
from quadcf.experiments import ScanConfig, artin_scan, converge_scan
from quadcf.quad_orders import AlgInt, Mat2, field_data, phi
from quadcf.matrix_orders import (
    _is_identity_power,
    _is_scalar_power,
    _order_scope,
    _power,
    _prime_power_order,
    _reduce,
)
from helpers import (
    brute_mat_order,
    brute_pisano,
    jacobi,
    max_element_order,
    repeated_mat_product,
    ring_order_mod,
    sieve_primes,
    square_multiply_mat_pow,
    trial_factor,
)

FIB_MATRIX = Mat2(0, 1, 1, 1)


def test_mat_order_against_brute_oracle():
    mats = [
        Mat2(0, 1, 1, 1),
        Mat2(2, 1, 1, 1),
        Mat2(1, 1, 1, 2),
        Mat2(1, 2, 1, 3),
        Mat2(3, 2, 4, 3),
        # scalar, and scalar times unipotent (double eigenvalue at every p)
        Mat2(3, 0, 0, 3),
        Mat2(-2, 0, 0, -2),
        Mat2(2, 1, 0, 2),
        Mat2(-3, 1, 0, -3),
        # det outside {1, -1}: the general-det inert case p^2 - 1
        Mat2(1, 1, 1, 3),
        Mat2(0, 3, 1, 1),
        Mat2(1, 2, -3, 4),
    ]
    for M in mats:
        tup = (M.a, M.b, M.c, M.d)
        for n in range(1, 120):
            if math.gcd(M.det, n) != 1:
                continue
            assert mat_order_mod(M, n) == brute_mat_order(tup, n), (tup, n)
    # every invertible matrix mod 8 and mod 9 (prime powers above the base prime)
    for n in (8, 9):
        for tup in itertools.product(range(n), repeat=4):
            if math.gcd(tup[0] * tup[3] - tup[1] * tup[2], n) == 1:
                assert mat_order_mod(Mat2(*tup), n) == brute_mat_order(tup, n), (tup, n)


def test_mat_order_random_large_moduli():
    rng = random.Random(41)
    for _ in range(60):
        M = Mat2(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
        n = rng.randint(2, 500)
        if math.gcd(M.det, n) != 1 or M.det == 0:
            continue
        assert mat_order_mod(M, n) == brute_mat_order((M.a, M.b, M.c, M.d), n)


# Fibonacci, phi(eps) of three fields, det -1, and det 2 (general det)
MEMO_MATRICES = [
    FIB_MATRIX,
    *(phi(f, f.epsD) for f in map(field_data, (2, 3, 13))),
    Mat2(2, 1, 1, 0),
    Mat2(1, 1, 1, 3),
]


def test_prime_power_memo_matches_brute_cold_and_warm():
    want = {
        M: {n: brute_mat_order((M.a, M.b, M.c, M.d), n) for n in range(1, 400) if math.gcd(M.det, n) == 1}
        for M in MEMO_MATRICES
    }
    rng = random.Random(44)
    with _order_scope(2 * 400):  # every p^e < 400 is kept
        for M, orders in want.items():  # ascending N, each M's p^e computed first
            for n, o in orders.items():
                assert mat_order_mod(M, n) == o, (M, n)
        for M, orders in want.items():  # shuffled N, every p^e read from the memo
            ns = list(orders)
            rng.shuffle(ns)
            for n in ns:
                assert mat_order_mod(M, n) == orders[n], (M, n)
    for M, orders in want.items():  # no scan, no memo: each N computed afresh
        for n, o in orders.items():
            assert mat_order_mod(M, n) == o, (M, n)


def test_prime_power_order_returns_the_primes_of_the_order():
    for p in sieve_primes(500):
        e = 1
        while p**e < 500:
            for M in MEMO_MATRICES:
                if M.det % p:
                    o, primes, _ = _prime_power_order(M, p, e)
                    assert primes == factorize(o).primes, (M, p, e)
                    assert o == mat_order_mod(M, p**e)
            e += 1


def test_artin_scan_reuses_prime_power_orders(monkeypatch):
    calls = _counted_powers(monkeypatch)
    artin_scan(ScanConfig(d=5, sequence="integers", bound=2000))
    assert 1999 <= len(calls) <= 9500  # 15 856 when every N recomputed each p^e || N


def _counted_strips(monkeypatch) -> tuple[Counter, Counter]:
    """How often each (M, p, e) is stripped and how often it is read from
    the memo, counted per key."""
    strips, reads = Counter(), Counter()
    real = _prime_power_order

    def counting(M, p, e):
        o, primes, fresh = real(M, p, e)
        (strips if fresh else reads)[M, p, e] += 1
        return o, primes, fresh

    monkeypatch.setattr(matrix_orders, "_prime_power_order", counting)
    return strips, reads


def test_artin_scan_strips_each_kept_prime_power_once(monkeypatch):
    # a p^e with 2p^e <= bound is stripped at its first N and read at every
    # later multiple; a larger one divides N = p^e alone
    strips, reads = _counted_strips(monkeypatch)
    artin_scan(ScanConfig(d=5, sequence="integers", bound=2000))
    assert set(strips.values()) == {1} and len(strips) == 333  # the p^e <= 2000
    kept = {key for key in strips if 2 * key[1] ** key[2] <= 2000}
    assert set(reads) == kept and len(kept) == 193
    # read at every other N that p^e divides exactly
    assert all(reads[M, p, e] == 2000 // p**e - 2000 // p ** (e + 1) - 1 for M, p, e in kept)


def test_unit_strips_each_prime_power_of_its_conductor_once(monkeypatch, capsys):
    # unit_index, pm_index and order_regulator each take the order mod f
    strips, reads = _counted_strips(monkeypatch)
    f = 8 * 7 * 65537
    assert cli.main(["unit", "--d", "5", "--conductor", str(f)]) == 0
    assert f"conductor={f} " in capsys.readouterr().out
    assert sorted(key[1:] for key in strips) == [(2, 3), (7, 1), (65537, 1)]
    assert set(strips.values()) == {1} and reads == {key: 2 for key in strips}


@pytest.mark.parametrize("bound", [512, 513])
def test_a_prime_power_above_half_the_bound_is_not_kept(bound):
    # bound // 2 = 2^8, and 2^8 + 1 = 257 is prime: it divides no other N <= bound
    M = FIB_MATRIX
    with _order_scope(bound):
        assert _prime_power_order(M, 2, 8) == (384, (2, 3), True)
        assert _prime_power_order(M, 257, 1)[2]
        assert list(matrix_orders._order_memo) == [(M, 2, 8)]
        assert _prime_power_order(M, 2, 8) == (384, (2, 3), False)
        assert _prime_power_order(M, 257, 1)[2]  # computed again
        assert list(matrix_orders._order_memo) == [(M, 2, 8)]
        assert mat_order_mod(M, 257) == brute_mat_order((M.a, M.b, M.c, M.d), 257)


def _counted_powers(monkeypatch) -> list:
    """Every (k, n) that matrix_orders powers a matrix to, in call order:
    each power, tested or built, is one run of the Lucas ladder."""
    calls = []
    real = matrix_orders._lucas

    def counting(t, det, k, n):
        calls.append((k, n))
        return real(t, det, k, n)

    monkeypatch.setattr(matrix_orders, "_lucas", counting)
    return calls


def _witness(o: int, N: int) -> list:
    """The witness mod N of the order o, sorted: M^(o/q0) for the least prime
    q0 of o and its q0-th power, which is M^o, then M^(o/q) for each other
    prime q of o; M^1 alone when o = 1. That is 1 + omega(o) powers."""
    if o == 1:
        return [(1, N)]
    q0, *rest = factorize(o).primes
    return sorted([(o // q0, N), (q0, N)] + [(o // q, N) for q in rest])


@pytest.mark.parametrize("M", MEMO_MATRICES)
def test_a_fresh_prime_power_is_proven_by_its_strip_alone(monkeypatch, M):
    calls = _counted_powers(monkeypatch)
    for N in (2, 3, 7, 9, 11, 16, 41, 49, 97, 125, 1009, 3**7, 65537):
        if math.gcd(M.det, N) != 1:
            continue
        (p, e), = factorize(N).factors
        calls.clear()
        strip = _prime_power_order(M, p, e)
        strip_calls = calls[:]
        assert all(n == N for _, n in strip_calls) and len(strip_calls) <= 64
        calls.clear()
        o = mat_order_mod(M, N)  # no scan: computed, as every time
        assert strip[0] == o == brute_mat_order((M.a, M.b, M.c, M.d), N), (M, N)
        assert calls == strip_calls, (M, N)  # no witness after a strip
        with _order_scope(2 * N):
            calls.clear()
            assert mat_order_mod(M, N) == o
            assert calls == strip_calls, (M, N)  # a miss: the strip alone
            calls.clear()
            assert mat_order_mod(M, N) == o  # a hit: the witness alone
            assert sorted(calls) == _witness(o, N), (M, N)


@pytest.mark.parametrize("M", MEMO_MATRICES)
def test_a_composite_modulus_keeps_its_witness(monkeypatch, M):
    calls = _counted_powers(monkeypatch)
    for N in (6, 12, 35, 77, 4 * 7 * 11, 9 * 25, 1001, 2 * 65537):
        if math.gcd(M.det, N) != 1:
            continue
        with _order_scope(2 * N):
            calls.clear()
            o = mat_order_mod(M, N)
            w = len(_witness(o, N))
            assert sorted(calls[-w:]) == _witness(o, N), (M, N)  # after the strips
            assert all(n != N for _, n in calls[:-w]), (M, N)
            assert o == brute_mat_order((M.a, M.b, M.c, M.d), N), (M, N)
            calls.clear()
            assert mat_order_mod(M, N) == o  # every prime power a hit
            assert sorted(calls) == _witness(o, N), (M, N)


def test_a_corrupted_memo_entry_raises_on_its_next_hit():
    M = FIB_MATRIX
    # Fibonacci orders 6 mod 4, 16 mod 7, 10 mod 11 and 8 mod 3. Each entry
    # is corrupted, then read at N = p^e and at a composite N; every
    # corruption below moves the lcm, so the composite witness sees it too.
    for p, e, N in ((2, 2, 4 * 7 * 11), (7, 1, 4 * 7 * 11), (11, 1, 4 * 7 * 11), (7, 1, 7 * 3)):
        with _order_scope(2 * N):
            o, primes, fresh = _prime_power_order(M, p, e)
            assert fresh
            for bad, want in (
                ((o * 1009, primes + (1009,)), "not minimal"),  # a multiple of the order
                ((o * primes[-1], primes), "not minimal"),
                ((o // primes[-1], primes), "does not annihilate"),  # a proper divisor
            ):
                for n in (p**e, N):
                    matrix_orders._order_memo[M, p, e] = bad
                    with pytest.raises(InvariantError, match=want):
                        mat_order_mod(M, n)
    # o*q0 and o/q0 at the least prime q0 = 2 of the order, whose power
    # M^(o/q0) the witness raises to q0 for M^o. Above, 2 is the largest
    # prime of the order too mod 7 and mod 3; mod 11 and mod 4 it is not.
    # The order mod every odd prime is even, so 6/2 = 3 mod 4 moves the lcm
    # at no composite N and is read at N = 4 alone. Last, 6 + 1 mod 4 with
    # the primes 2 and 3 of 6: from primes that do not divide the order,
    # A = M^(7 // 2) and A^2 = M^6 = I would pass it.
    for p, e, wrong, want, ns in (
        (11, 1, 10 * 2, "not minimal", (11, 2 * 11)),
        (11, 1, 10 // 2, "does not annihilate", (11, 2 * 11)),
        (2, 2, 6 * 2, "not minimal", (4, 4 * 11)),
        (2, 2, 6 // 2, "does not annihilate", (4,)),
        (2, 2, 6 + 1, "does not annihilate", (4, 4 * 11)),
    ):
        with _order_scope(4 * 11 * 2):
            o, primes, _ = _prime_power_order(M, p, e)
            assert primes[0] == 2 < primes[-1]
            for n in ns:
                matrix_orders._order_memo[M, p, e] = wrong, primes
                with pytest.raises(InvariantError, match=want):
                    mat_order_mod(M, n)


def test_witness_mod_n_catches_a_wrong_prime_power_order(monkeypatch):
    real = _prime_power_order
    N = 4 * 7 * 11  # Fibonacci orders 6, 16, 10: each adds to the lcm
    for bad in (2, 7, 11):
        def too_large(M, p, e):
            o, primes, fresh = real(M, p, e)
            return (o * 1009, primes + (1009,), fresh) if p == bad else (o, primes, fresh)

        def too_small(M, p, e):
            o, primes, fresh = real(M, p, e)
            return (o // primes[-1], primes, fresh) if p == bad else (o, primes, fresh)

        monkeypatch.setattr(matrix_orders, "_prime_power_order", too_large)
        with pytest.raises(InvariantError, match="not minimal"):
            mat_order_mod(FIB_MATRIX, N)
        monkeypatch.setattr(matrix_orders, "_prime_power_order", too_small)
        with pytest.raises(InvariantError, match="does not annihilate"):
            mat_order_mod(FIB_MATRIX, N)


def _power_entries(M: Mat2, k: int, n: int) -> Mat2:
    """M^k mod n as _power reads it off the Lucas pair, for k >= 1."""
    return Mat2(*_power(_reduce(M, n), k, n)[:4])


def test_power_matches_repeated_products():
    rng = random.Random(42)
    for _ in range(300):
        M = Mat2(*(rng.randint(-10**6, 10**6) for _ in range(4)))
        k, n = rng.randint(1, 70), rng.choice([1, 2, rng.randint(1, 10**4)])
        assert _power_entries(M, k, n) == repeated_mat_product(M, k, n), (M, k, n)
    assert _power_entries(Mat2(-3, 5, -7, 2), 5, 1) == Mat2(0, 0, 0, 0)


def test_lucas_ladder_matches_square_and_multiply():
    rng = random.Random(11)
    prime_powers = [2**61, 3**40, 101**9, (2**61 - 1) ** 2, 7]
    for i in range(3000):
        a, b, c, d = (rng.randint(-10**30, 10**30) for _ in range(4))
        n = rng.choice([1, 2, rng.choice(prime_powers), rng.randint(1, 10**18)])
        if i % 4 == 0:  # p | det and p | n; det = 0 mod n when n = p
            p = rng.choice([2, 3, 1009, 2**61 - 1])
            a, c, n = a * p, c * p, p * rng.choice([1, p, rng.randint(1, 10**12)])
        M = Mat2(a, b, c, d)
        k = rng.choice([1, 2, 3, rng.randint(1, 64), rng.randint(1, 2**80),
                        2 ** rng.randint(0, 80), 2 ** rng.randint(1, 80) - 1])
        assert _power_entries(M, k, n) == square_multiply_mat_pow(M, k, n), (M, k, n)
    for M in (Mat2(4, 2, 2, 1), Mat2(0, 0, 0, 0), Mat2(6, -3, 10, -5)):  # det 0
        for n in (1, 2, 9, 10**18 + 9):
            for k in range(1, 12):
                assert _power_entries(M, k, n) == square_multiply_mat_pow(M, k, n), (M, k, n)


def _with_det(rng, det: int) -> Mat2:
    """A random integer matrix of determinant det, for det in (1, -1, 0)."""
    if det == 0:  # rank one: the rows are multiples of one row
        x, y, s, t = (rng.randint(-10**9, 10**9) for _ in range(4))
        return Mat2(x * s, x * t, y * s, y * t)
    # [[1, 0], [x, 1]] [[1, y], [0, 1]] [[1, 0], [z, 1]] has det 1; a row
    # swap makes it -1
    x, y, z = (rng.randint(-10**6, 10**6) for _ in range(3))
    a, b, c, d = 1 + y * z, y, x + z + x * y * z, x * y + 1
    return Mat2(a, b, c, d) if det == 1 else Mat2(c, d, a, b)


def _assert_power_tests_match_the_oracle(M: Mat2, k: int, n: int) -> tuple[bool, bool]:
    P = square_multiply_mat_pow(M, k, n)
    R = _reduce(M, n)
    is_identity, is_scalar = P == Mat2(1 % n, 0, 0, 1 % n), P.is_scalar_mod(n)
    assert _is_identity_power(R, k, n) == is_identity, (M, k, n)
    assert _is_scalar_power(R, k, n) == is_scalar, (M, k, n)
    assert _power(R, k, n) == _reduce(P, n), (M, k, n)
    return is_identity, is_scalar


def test_power_tests_read_off_the_lucas_pair_match_square_and_multiply():
    # det = 1, -1 and 0 exactly, det = +-1 mod n only (entries moved by
    # multiples of n), and a general det; the first two take the ladder's
    # det = +-1 steps
    rng = random.Random(31)
    prime_powers = [2**61, 3**40, 101**9, (2**61 - 1) ** 2, 7]
    for i in range(3000):
        det = (1, -1, 0, None)[i % 4]
        n = rng.choice([1, 2, rng.choice(prime_powers), rng.randint(1, 10**18)])
        if det is None:
            M = Mat2(*(rng.randint(-10**30, 10**30) for _ in range(4)))
        else:
            M = Mat2(*(x + n * rng.randint(-10**6, 10**6) for x in _with_det(rng, det)))
            assert (M.det - det) % n == 0
        j = rng.randint(1, 80)
        k = rng.choice([1, 2, 3, 2**j, 2**j - 1, rng.randint(1, 2**80)])
        _assert_power_tests_match_the_oracle(M, k, n)
    # small moduli, where both verdicts occur: every k up to 60
    seen = set()
    mats = [Mat2(1, 0, 0, 1), Mat2(-1, 0, 0, -1), Mat2(1, 1, 0, 1), FIB_MATRIX,
            Mat2(2, 1, 1, 1), Mat2(3, 0, 0, 3), Mat2(2, 1, 1, 3), Mat2(4, 2, 2, 1)]
    for M in mats + [_with_det(rng, det) for det in (1, -1, 0) for _ in range(3)]:
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 12, 20, 25, 27):
            for k in range(1, 61):
                verdicts = _assert_power_tests_match_the_oracle(M, k, n)
                det = M.det % n  # which steps the ladder takes: +1, -1 or general
                seen.add((1 if det == 1 else -1 if det == n - 1 else 0, verdicts))
    assert {(s, v) for s in (1, -1, 0) for v in ((True, True), (False, True), (False, False))} <= seen


def test_mat_order_errors_and_identity_modulus():
    assert mat_order_mod(FIB_MATRIX, 1) == 1
    with pytest.raises(ValueError):
        mat_order_mod(Mat2(2, 0, 0, 2), 4)  # det 4 shares a factor with 4
    with pytest.raises(ValueError):
        mat_order_mod(FIB_MATRIX, 0)


def test_fibonacci_periods_frozen_and_oracle():
    # mod-N period of the Fibonacci sequence equals the order of the
    # recurrence matrix; oracle iterates the sequence itself
    want = {2: 3, 3: 8, 4: 6, 5: 20, 6: 24, 7: 16, 8: 12, 9: 24, 10: 60}
    for n, pi in want.items():
        assert mat_order_mod(FIB_MATRIX, n) == pi
        assert brute_pisano(n) == pi
    assert mat_order_mod(FIB_MATRIX, 100) == 300
    assert mat_order_mod(FIB_MATRIX, 1000) == 1500
    for k in range(3, 11):  # period mod 2^k is 3 * 2^(k-1)
        assert mat_order_mod(FIB_MATRIX, 2**k) == 3 * 2 ** (k - 1)
    for n in range(2, 300):
        assert mat_order_mod(FIB_MATRIX, n) == brute_pisano(n), n


def test_ring_order_agrees_with_matrix_order():
    rng = random.Random(42)
    checked = 0
    for _ in range(300):
        f = field_data(rng.choice([5, 8, 12, 13]))
        alpha = AlgInt(rng.randint(-6, 6), rng.randint(-6, 6))
        n = rng.randint(2, 80)
        if math.gcd(phi(f, alpha).det, n) != 1:
            continue
        assert ring_order_mod(f, alpha, n) == mat_order_mod(phi(f, alpha), n)
        checked += 1
    assert checked >= 150
    f = field_data(5)
    assert ring_order_mod(f, f.epsD, 1) == 1
    with pytest.raises(ValueError):
        ring_order_mod(f, AlgInt(5, 0), 10)


def test_unit_orders_frozen_values():
    assert ring_order_mod(field_data(5), field_data(5).epsD, 7) == 16
    assert ring_order_mod(field_data(5), field_data(5).epsD, 11) == 10
    # (2 + sqrt 3)^3 = 26 + 15*sqrt(3) = 1 mod 5
    assert ring_order_mod(field_data(12), field_data(12).epsD, 5) == 3


def test_max_element_order_by_split_type():
    f5 = field_data(5)  # unit norm -1
    assert max_element_order(f5, 11) == 10  # split: p - 1
    assert max_element_order(f5, 7) == 16  # inert, norm -1: 2(p + 1)
    f12 = field_data(12)  # unit norm +1
    assert max_element_order(f12, 7) == 8  # inert, norm +1: p + 1
    assert max_element_order(f12, 11) == 10  # split
    for bad in (2, 9, 15):
        with pytest.raises(ValueError):
            max_element_order(f5, bad)
    with pytest.raises(ValueError):
        max_element_order(f5, 5)  # ramified


def test_order_bound_holds_for_all_odd_unramified_primes():
    for d in (5, 8, 12, 13):
        f = field_data(d)
        M = phi(f, f.epsD)
        for p in sieve_primes(1000):
            if p == 2 or f.D % p == 0:
                continue
            o = mat_order_mod(M, p)
            assert max_element_order(f, p) % o == 0, (d, p)


@pytest.mark.parametrize("sequence", ["integers", "primes"])
def test_artin_rows_match_the_jacobi_oracle(sequence):
    # split_type from jacobi, is_max against the oracle's largest order:
    # None at N = 2, at ramified primes and at composites
    seen = set()
    for d in (5, 8, 12, 13, 85):
        f = field_data(d)
        for r in artin_scan(ScanConfig(d=d, sequence=sequence, bound=3000)):
            if trial_factor(r.N) != {r.N: 1}:
                want = (COMPOSITE, None)
            else:
                k = jacobi(f.D, r.N)
                split = {1: SPLIT, -1: INERT, 0: RAMIFIED}[k]
                want = (split, None if r.N == 2 or k == 0 else r.ord == max_element_order(f, r.N))
            assert (r.split_type, r.is_max) == want, (d, r)
            seen.add((d, want))
    # both verdicts in each field, inert primes of either unit norm among them
    for d in (5, 8, 12, 13, 85):
        assert {(d, (s, m)) for s in (SPLIT, INERT) for m in (True, False)} <= seen, d
    assert {(5, (INERT, None)), (5, (RAMIFIED, None)), (85, (RAMIFIED, None))} <= seen
    assert ((5, (COMPOSITE, None)) in seen) == (sequence == "integers")


def _record_table_reads(monkeypatch, name, modules):
    """Every n the function arith.<name> is called with through the given
    modules' bindings, each with the size of the table installed then."""
    calls = []
    real = getattr(arith, name)

    def recording(n):
        calls.append((n, len(arith._spf)))
        return real(n)

    for mod in modules:
        monkeypatch.setattr(mod, name, recording)
    return calls


def _assert_each_n_tested_once(monkeypatch, scan, module):
    # once per N, read off the scan's table, which covers every N
    calls = _record_table_reads(monkeypatch, "is_prime", [module])
    for sequence, ns in (("integers", list(range(2, 501))), ("primes", sieve_primes(500))):
        calls.clear()
        scan(ScanConfig(d=5, sequence=sequence, bound=500))
        assert calls == [(n, 2 * 500 + 3) for n in ns], sequence


def test_artin_scan_tests_each_n_for_primality_once(monkeypatch):
    _assert_each_n_tested_once(monkeypatch, artin_scan, experiments)


def test_converge_scan_tests_each_n_for_primality_once(monkeypatch):
    _assert_each_n_tested_once(monkeypatch, converge_scan, experiments)


def test_spf_table_matches_factorize_and_is_prime():
    # the oracle is taken outside the scope, where neither reads a table;
    # the bound is a prime's square, whose first multiple is the last entry
    bound = 317**2
    factored = [factorize(n) for n in range(1, bound + 2)]
    prime = [arith.is_prime(n) for n in range(-2, bound + 2)]
    with _spf_scope(bound):
        assert len(arith._spf) == bound + 1
        # bound + 1 lies above the table and takes the usual path
        for n in range(1, bound + 2):
            assert factorize(n) == factored[n - 1], n
        for n in range(-2, bound + 2):
            assert arith.is_prime(n) == prime[n + 2], n
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                factorize(n)
    assert not arith._spf


def test_spf_table_is_the_same_in_blocks_of_any_size(monkeypatch):
    # the default block splits the multiples of 2 and 3 here; one block
    # of 2**20 writes each prime's multiples in one slice
    bound = 2**18 + 5
    want = arith._spf_table(bound)
    for block in (7, 1000, 2**20):
        monkeypatch.setattr(arith, "_SPF_BLOCK", block)
        assert arith._spf_table(bound) == want, block


def test_spf_table_covers_what_the_scan_factors(monkeypatch):
    # N <= bound, and p - 1, p + 1 and 2(p + 1) for p <= bound; also p(p - 1)
    # at the ramified primes 5 and 17 of d = 85: every call made while the
    # table is in place falls inside it, and before it only the set-up
    # factors the radicand
    modules = [m for m in vars(quadcf).values() if isinstance(m, types.ModuleType)]
    reads = {name: _record_table_reads(monkeypatch, name, [m for m in modules if name in vars(m)])
             for name in ("factorize", "is_prime")}
    for scan, d, sequence, bound in ((artin_scan, 5, "integers", 3000),
                                     (artin_scan, 85, "integers", 3000),
                                     (converge_scan, 2, "primes", 2000)):
        for calls in reads.values():
            calls.clear()
        scan(ScanConfig(d=d, sequence=sequence, bound=bound))
        for name, calls in reads.items():
            outside = [n for n, size in calls if not size]
            inside = [(n, size) for n, size in calls if size]
            assert outside == ([d] if name == "factorize" else []), (scan, d, name)
            assert len(inside) >= 303 and all(n < size for n, size in inside), (scan, d, name)


def test_spf_table_is_in_place_for_the_scan_alone(monkeypatch):
    # and so is the order memo, whose bound is the scan's
    scopes = []
    real = experiments._artin_item

    def recording(ctx, N):
        scopes.append((len(arith._spf), matrix_orders._order_bound))
        if N == 7 and fail:
            raise InvariantError("synthetic")
        return real(ctx, N)

    def no_scan_left():
        return not arith._spf and not matrix_orders._order_memo and not matrix_orders._order_bound

    monkeypatch.setattr(experiments, "_artin_item", recording)
    fail = False
    assert no_scan_left()
    assert len(artin_scan(ScanConfig(d=5, bound=100))) == 99
    assert set(scopes) == {(2 * 100 + 3, 100)} and no_scan_left()
    fail = True
    scopes.clear()
    with pytest.raises(InvariantError, match=r"^N=7: synthetic$"):
        artin_scan(ScanConfig(d=5, bound=100))
    assert set(scopes) == {(2 * 100 + 3, 100)} and no_scan_left()
    read = []
    real_read = arith._spf_factors

    def reading(spf, n):
        read.append(n)
        return real_read(spf, n)

    monkeypatch.setattr(arith, "_spf_factors", reading)
    assert mat_order_mod(FIB_MATRIX, 12) == 24
    assert read == []  # no table now: N is factored by trial division
    assert no_scan_left()  # and no order is kept


def test_a_corrupted_spf_entry_raises_naming_its_n():
    spf = arith._spf_table(200)
    for n, wrong in ((91, 3), (91, 1), (91, 0), (97, 2), (64, 5)):
        bad = spf[:]
        bad[n] = wrong
        # read directly, and for odd n from 2n, whose walk reaches n once
        # its 2 is divided out
        for m in (n, 2 * n) if n % 2 else (n,):
            with pytest.raises(InvariantError, match=f"gives {wrong} at {n},"):
                arith._spf_factors(bad, m)
    with _spf_scope(200):
        arith._spf[35] = 3
        with pytest.raises(InvariantError, match="gives 3 at 35,"):
            factorize(35)
        with pytest.raises(InvariantError, match="gives 3 at 35,"):
            mat_order_mod(FIB_MATRIX, 35)
        # is_prime reads the entry of n alone: n is prime when it is n
        arith._spf[91] = 91
        assert arith.is_prime(91)


def test_order_divisibility_along_divisors():
    f = field_data(5)
    M = phi(f, f.epsD)
    ords = {n: mat_order_mod(M, n) for n in range(2, 301)}
    for n in range(2, 301):
        for m in range(2 * n, 301, n):
            assert ords[m] % ords[n] == 0, (n, m)


def test_order_record_validation():
    with pytest.raises(ValueError):
        OrderRecord(5, 0, 0.0, SPLIT, True)
    r = OrderRecord(11, 10, math.log(10) / math.log(11), SPLIT, True)
    assert r.N == 11 and r.is_max


def test_scan_orders_integers():
    cfg = ScanConfig(d=5, sequence="integers", bound=12)
    recs = artin_scan(cfg)
    assert [r.N for r in recs] == list(range(2, 13))
    by_n = {r.N: r for r in recs}
    assert by_n[10].split_type == COMPOSITE and by_n[10].is_max is None
    assert by_n[5].split_type == RAMIFIED and by_n[5].is_max is None
    assert by_n[2].split_type == INERT and by_n[2].is_max is None  # p = 2 excluded
    assert by_n[11].split_type == SPLIT
    assert by_n[7].ord == 16 and abs(by_n[7].exponent - math.log(16) / math.log(7)) < 1e-15
    assert recs == artin_scan(cfg)  # deterministic


def test_scan_orders_primes():
    recs = artin_scan(ScanConfig(d=5, sequence="primes", bound=11))
    assert [r.N for r in recs] == [2, 3, 5, 7, 11]
    # every odd unramified prime up to 11 reaches the maximal order for D=5
    assert [r.is_max for r in recs] == [None, True, None, True, True]
    with pytest.raises(ValueError):
        artin_scan(ScanConfig(d=5, bound=1))
    with pytest.raises(ValueError):
        artin_scan(ScanConfig(d=5, sequence="odds", bound=10))
