"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS or FAIL line (replayed in the terminal
summary) and enforces its own wall-clock budget. Oracles are independent
recomputations: Fibonacci-pair iteration, exhaustive unit searches,
high-precision rational arithmetic, or frozen values from the calibration
logs under tests/data/.
"""

import math
import random
from fractions import Fraction
from time import perf_counter

from quadcf.arith import is_square
from quadcf.class_geodesics import class_number, fundamental_decomposition, total_length
from quadcf.experiments import ScanConfig, artin_scan, artin_stats, converge_scan, converge_stats
from quadcf.gauss_kuzmin import c_w, pattern_frequency
from quadcf.hecke import are_neighbors, chain_between, conductor_bounds_check, scale_chain, unit_index_check
from quadcf.matrix_orders import mat_order_mod
from quadcf.quad_orders import (
    AlgInt,
    Mat2,
    OrderSpec,
    alg_mul,
    alg_pow,
    field_data,
    in_suborder,
    phi,
    regulator_of_order,
    surd_coords,
    unit_group_index,
)
from quadcf.surd import cf_expand, compare_to_fraction, convergents, make_surd, mobius, scale
import quadcf.cli as cli
from helpers import brute_pisano, random_surd, ring_order_mod, surd_fraction

FIELDS = (5, 8, 12, 13)


def run_criterion(record, num, desc, budget, body):
    t0 = perf_counter()
    try:
        body()
    except BaseException:
        record(f"FAIL: criterion {num}: {desc}")
        raise
    dt = perf_counter() - t0
    if budget is not None and dt >= budget:
        record(f"FAIL: criterion {num}: {desc} (took {dt:.1f}s, budget {budget}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {dt:.1f}s")
    record(f"PASS: criterion {num}: {desc} ({dt:.1f}s)")


def test_criterion_01_expansions_and_convergent_quality(record_criterion):
    def body():
        classics = [
            ((0, 1, 2, 1), (1,), (2,)),
            ((0, 1, 3, 1), (1,), (1, 2)),
            ((0, 1, 5, 1), (2,), (4,)),
            ((0, 1, 7, 1), (2,), (1, 1, 1, 4)),
            ((0, 1, 13, 1), (3,), (1, 1, 1, 1, 6)),
            ((1, 1, 5, 2), (), (1,)),
        ]
        for args, pre, per in classics:
            e = cf_expand(make_surd(*args))
            assert (e.preperiod, e.period) == (pre, per), args
        rng = random.Random(20260814)
        for _ in range(1000):
            x = random_surd(rng)
            digits = cf_expand(x).digits(50)
            p, q = list(convergents(digits))[-1]
            err = Fraction(1, q * q)
            target = Fraction(p, q)
            assert compare_to_fraction(x, target - err) > 0
            assert compare_to_fraction(x, target + err) < 0

    run_criterion(
        record_criterion, 1,
        "classic expansions match and the 50th convergent of 1000 random "
        "surds lies within 1/q^2", 10, body,
    )


def test_criterion_02_measure_telescoping_and_refinement(record_criterion):
    def body():
        prod = Fraction(1)
        total = 0.0
        for a in range(1, 1001):
            m = c_w((a,))
            prod *= m.ratio
            total += m.as_float()
            assert prod == Fraction(2 * (a + 1), a + 2)  # exact telescoping
            closed = math.log2(2 * (a + 1)) - math.log2(a + 2)
            assert abs(total - closed) < 1e-12, a
        rng = random.Random(77)
        for _ in range(100):
            e = cf_expand(random_surd(rng))
            top = max(e.period)
            for w in [(e.period[0],), e.period[:2]]:
                lhs = pattern_frequency(e, w)
                rhs = sum(pattern_frequency(e, tuple(w) + (b,)) for b in range(1, top + 1))
                assert lhs == rhs  # exact rational identity

    run_criterion(
        record_criterion, 2,
        "digit-measure sums telescope to log2(2(A+1)/(A+2)) through A=1000 "
        "and pattern frequencies refine exactly on 100 random surds", 10, body,
    )


def test_criterion_03_membership_and_order_routes_agree(record_criterion):
    def body():
        rng = random.Random(3)
        orders_checked = 0
        for i in range(1000):
            f = field_data(FIELDS[i % 4])
            alpha = AlgInt(rng.randint(-50, 50), rng.randint(-50, 50))
            n = rng.randint(1, 200)
            by_coord = alpha.b % n == 0
            by_matrix = phi(f, alpha).is_scalar_mod(n)
            assert by_coord == by_matrix
            assert in_suborder(f, alpha, n) == by_coord  # re-checks internally
            if n >= 2 and math.gcd(phi(f, alpha).det, n) == 1 and alpha != AlgInt(0, 0):
                assert ring_order_mod(f, alpha, n) == mat_order_mod(phi(f, alpha), n)
                orders_checked += 1
        assert orders_checked >= 400

    run_criterion(
        record_criterion, 3,
        "coordinate and scalar-matrix membership agree and element order "
        "equals matrix order on 1000 random draws across D=5,8,12,13", 60, body,
    )


def test_criterion_04_suborder_regulators(record_criterion):
    def body():
        for d in FIELDS:
            f = field_data(d)
            for n in range(1, 41):
                u, k = f.epsD, 1
                while u.b % n:
                    u = alg_mul(f, u, f.epsD)
                    k += 1
                assert k == unit_group_index(f, n), (d, n)
                reg = regulator_of_order(OrderSpec(f, n))
                assert abs(reg - f.regD * k) < 1e-15
                power = alg_pow(f, f.epsD, k)
                value = power.a + power.b * surd_fraction(f.xD)
                log_value = math.log(value.numerator) - math.log(value.denominator)
                assert abs(reg - log_value) < 1e-9, (d, n)
        spot = regulator_of_order(OrderSpec(field_data(5), 2))
        assert abs(spot - math.log(2 + math.sqrt(5))) < 1e-9

    run_criterion(
        record_criterion, 4,
        "order regulator is regD times the exhaustively found minimal unit "
        "power for D=5,8,12,13 and N<=40; conductor-2 order of D=5 gives "
        "log(2+sqrt 5)", 30, body,
    )


def test_criterion_05_recurrence_periods(record_criterion):
    def body():
        M = Mat2(0, 1, 1, 1)
        for n in range(2, 1001):
            assert mat_order_mod(M, n) == brute_pisano(n), n

    run_criterion(
        record_criterion, 5,
        "matrix order mod N equals the Fibonacci-pair period for every "
        "N<=1000", 10, body,
    )


def test_criterion_06_neighbor_steps_and_chain_scaling(record_criterion):
    def body():
        rng = random.Random(6)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(500):
            m = rng.choice([2, 3, 5, 13])
            f = field_data(m)
            x = random_surd(rng, ms=(m,), span=10)
            p = rng.choice(primes)
            y = scale(x, p) if rng.random() < 0.5 else mobius(x, 1, rng.randint(-9, 9), p)
            assert are_neighbors(x, y, p)
            lx, ly, ok = conductor_bounds_check(f, x, y, p)
            assert ok and (p * lx) % ly == 0 and (p * ly) % lx == 0
            assert 1 <= unit_index_check(f, x, y, p) <= p + 1
        for _ in range(20):
            m = rng.choice([2, 3, 5, 13])
            x = random_surd(rng, ms=(m,), span=10)
            y = random_surd(rng, ms=(m,), span=10)
            c = chain_between(x, y)
            starts_at_x = surd_coords(c.nodes[0]) == surd_coords(x)
            for n in range(2, 51):
                sc = scale_chain(c, n)  # every scaled step re-verified
                assert sc.steps == c.steps
                if starts_at_x:  # coinciding lattices collapse to one node
                    assert surd_coords(sc.nodes[0]) == surd_coords(scale(x, n))
                assert surd_coords(sc.nodes[-1]) == surd_coords(scale(y, n))

    run_criterion(
        record_criterion, 6,
        "500 random prime-index neighbor pairs verify index, conductor "
        "divisibility and the p+1 unit bound; chain step primes survive "
        "scaling by every N<=50", 60, body,
    )


def test_criterion_07_class_numbers(record_criterion):
    def body():
        for disc, h in [(5, 1), (8, 1), (40, 2), (229, 3)]:
            assert class_number(disc) == h, disc

    run_criterion(
        record_criterion, 7,
        "form-cycle counts give h(5)=1, h(8)=1, h(40)=2, h(229)=3", 5, body,
    )


def test_criterion_08_length_census_median(record_criterion):
    def body():
        # sampler frozen in tests/data/duke_calibration.log
        rng = random.Random(20260814)
        discs: list[int] = []
        seen: set[int] = set()
        while len(discs) < 200:
            cand = rng.randrange(10**4, 10**6)
            if cand % 4 not in (0, 1) or cand in seen or is_square(cand):
                continue
            if fundamental_decomposition(cand)[1] != 1:
                continue
            seen.add(cand)
            discs.append(cand)
        exps = sorted(total_length(disc).exponent for disc in discs)
        median = (exps[99] + exps[100]) / 2
        assert abs(median - 0.9987984990723713) < 1e-9  # calibration replay
        assert 0.85 <= median <= 1.15

    run_criterion(
        record_criterion, 8,
        "median of ln(h*reg)/ln(sqrt disc) over 200 seeded fundamental "
        "discriminants in [1e4,1e6] lands in the frozen [0.85,1.15] band",
        300, body,
    )


def test_criterion_09_deviation_decay_along_primes(record_criterion):
    def body():
        cfg = ScanConfig(
            patterns=((1,), (2,), (1, 1)), sequence="primes",
            bound=2**14 - 1, workers=8,
        )
        stats = converge_stats(converge_scan(cfg))
        assert set(stats) == {"1", "2", "1-1"}
        logged = {"1": 0.464651, "2": 0.481198, "1-1": 0.461815}
        for label, st in stats.items():
            meds = [st["dyadic_medians"][k] for k in sorted(st["dyadic_medians"])]
            assert meds[-3] >= meds[-2] >= meds[-1], label
            assert st["delta_hat"] > 0
            assert abs(st["delta_hat"] - logged[label]) < 1e-4  # calibration replay

    run_criterion(
        record_criterion, 9,
        "pattern deviations along p*sqrt(2) for p<2^14 have non-increasing "
        "last three dyadic medians and positive fitted decay rate", 300, body,
    )


def test_criterion_10_order_density(record_criterion):
    def body():
        brute_hits = sum(1 for n in range(2, 1001) if brute_pisano(n) >= n**0.8)
        brute_density = brute_hits / 999
        assert round(brute_density - 0.1, 2) == 0.69  # threshold derivation
        recs = artin_scan(ScanConfig(d=5, sequence="integers", bound=10**4, workers=8))
        stats = artin_stats(recs)
        density = stats["densities"][0.8]
        assert density > 0.69
        assert abs(density - 7202 / 9999) < 1e-12  # calibration replay
        assert {1597, 2584, 4181, 6765} <= set(stats["exceptions"])

    run_criterion(
        record_criterion, 10,
        "density of N<=1e4 with unit order >= N^0.8 beats the 0.69 "
        "threshold calibrated from the N<=1e3 Fibonacci-pair oracle, with "
        "the Fibonacci N listed as exceptions", 120, body,
    )


def test_criterion_11_parallel_byte_identity(record_criterion, tmp_path):
    def body():
        jobs = [
            (["converge", "--d", "2", "--patterns", "1;2,1", "--bound", "300"], "csv"),
            (["converge", "--d", "3", "--bound", "150", "--format", "json"], "json"),
            (["artin", "--d", "5", "--sequence", "primes", "--bound", "2000"], "csv"),
        ]
        for i, (argv, _) in enumerate(jobs):
            outs = []
            for w in (1, 8):
                path = tmp_path / f"job{i}_w{w}.out"
                rc = cli.main(argv + ["--workers", str(w), "--output", str(path)])
                assert rc == 0
                outs.append(path.read_bytes())
            assert outs[0] == outs[1], argv

    run_criterion(
        record_criterion, 11,
        "converge and artin tables are byte-identical with 1 and 8 workers",
        None, body,
    )
