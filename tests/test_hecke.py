import random
import time
from collections import Counter

import pytest

from quadcf import hecke, quad_orders
from quadcf.arith import InvariantError, factorize
from quadcf.hecke import (
    DOWN,
    UP,
    HeckeChain,
    are_neighbors,
    chain_between,
    conductor_bounds_check,
    same_lattice,
    scale_chain,
    unit_index_check,
)
from quadcf.quad_orders import (
    alg_pow,
    conductor_of_surd,
    field_data,
    in_suborder,
    surd_coords,
    unit_group_index,
)
from quadcf.surd import make_surd, mobius, scale
from helpers import random_surd

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_same_lattice_basic():
    x = field_data(2).xD
    assert same_lattice(x, mobius(x, 1, 5, 1))  # translation keeps the lattice
    assert same_lattice(x, make_surd(13, 1, 2, 1))
    assert not same_lattice(x, scale(x, 2))
    with pytest.raises(ValueError):
        same_lattice(x, field_data(5).xD)


def test_lattice_relations_do_not_factor(monkeypatch):
    # conductor, same-lattice and neighbor tests come from mobius_coeffs
    # and the minimal polynomial alone
    rng = random.Random(57)
    fields = {m: field_data(m) for m in (2, 3, 5, 13)}
    cases = []
    for _ in range(200):
        m = rng.choice(list(fields))
        x = random_surd(rng, ms=(m,), span=10)
        p = rng.choice(SMALL_PRIMES)
        y = scale(x, p) if rng.random() < 0.5 else random_surd(rng, ms=(m,), span=10)
        expected = (conductor_of_surd(fields[m], x), same_lattice(x, y), are_neighbors(x, y, p))
        cases.append((fields[m], x, y, p, expected))

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(quad_orders, "factorize", refuse)
    monkeypatch.setattr(hecke, "factorize", refuse)
    for f, x, y, p, expected in cases:
        assert (conductor_of_surd(f, x), same_lattice(x, y), are_neighbors(x, y, p)) == expected
    assert any(e[2] for *_, e in cases) and not all(e[2] for *_, e in cases)


def test_neighbor_relation_both_directions():
    x = field_data(2).xD
    assert are_neighbors(x, scale(x, 5), 5)
    assert are_neighbors(scale(x, 5), x, 5)  # symmetric
    assert are_neighbors(x, mobius(x, 1, 1, 3), 3)  # (x+1)/3 sits above x
    assert not are_neighbors(x, scale(x, 5), 3)
    assert not are_neighbors(x, scale(x, 6), 2)  # index 6 is not a prime step
    with pytest.raises(ValueError):
        are_neighbors(x, scale(x, 4), 4)


def test_scaling_and_division_always_give_index_p():
    # n*x has index p below x, (x+b)/p has index p above x, for any surd:
    # k*x in Z + Z*p*x forces p | k since x is irrational
    rng = random.Random(51)
    for _ in range(300):
        x = random_surd(rng)
        p = rng.choice(SMALL_PRIMES)
        assert are_neighbors(x, scale(x, p), p)
        assert are_neighbors(x, mobius(x, 1, rng.randint(-20, 20), p), p)


def test_chain_frozen_examples():
    f2, f5 = field_data(2), field_data(5)
    c = chain_between(f2.xD, scale(f2.xD, 5))
    assert c.steps == ((5, DOWN),) and len(c.steps) == 1
    assert surd_coords(c.nodes[0]) == surd_coords(f2.xD)

    # y = (3*xD + 1)/2: one step down by 3, one step up by 2
    y = mobius(f5.xD, 3, 1, 2)
    c = chain_between(f5.xD, y)
    assert c.steps == ((3, DOWN), (2, UP))
    assert c.primes() == [2, 3]
    assert surd_coords(c.nodes[-1]) == surd_coords(y)

    # same value: empty chain staying put
    c = chain_between(f5.xD, f5.xD)
    assert c.nodes == (f5.xD,) and c.steps == ()

    # same lattice but different value: a single free move, no prime steps
    c = chain_between(make_surd(13, 1, 3, 1), field_data(3).xD)
    assert c.steps == ()
    assert surd_coords(c.nodes[-1]) == surd_coords(field_data(3).xD)

    with pytest.raises(ValueError):
        chain_between(f2.xD, f5.xD)


def test_chain_between_caps_the_coefficients_it_factors():
    x = field_data(2).xD
    for A in (10**18, 999999999999999989, 999999937 * 1000000007):  # at the cap: fast
        want = [p for p, e in factorize(A).factors for _ in range(e)]
        assert chain_between(x, mobius(x, A, 1, 1)).primes() == want
        assert chain_between(x, mobius(x, 1, 1, A)).primes() == want
    t = time.perf_counter()
    for y in (mobius(x, 5859824980284060829895849672056204220491, 1, 1), mobius(x, 1, 0, 10**18 + 1)):
        with pytest.raises(ValueError, match=str(hecke.MAX_CHAIN_COEFF)):
            chain_between(x, y)
    assert time.perf_counter() - t < 1


def test_chain_to_generator_pure_division():
    f = field_data(2)
    c = chain_between(scale(f.xD, 6), f.xD)
    assert c.steps == ((2, UP), (3, UP))
    assert surd_coords(c.nodes[-1]) == surd_coords(f.xD)


def test_chain_between_random_pairs():
    rng = random.Random(52)
    for _ in range(200):
        m = rng.choice([2, 3, 5, 13])
        x = random_surd(rng, ms=(m,), span=12)
        y = random_surd(rng, ms=(m,), span=12)
        c = chain_between(x, y)  # every step re-verified internally
        assert surd_coords(c.nodes[-1]) == surd_coords(y)
        for p, _ in c.steps:
            assert p in c.primes()


def test_chain_dataclass_validation():
    x = field_data(2).xD
    with pytest.raises(ValueError):
        HeckeChain((x,), ((2, DOWN),))


def test_scale_chain_preserves_steps():
    rng = random.Random(53)
    for _ in range(150):
        m = rng.choice([2, 3, 5, 13])
        x = random_surd(rng, ms=(m,), span=10)
        y = random_surd(rng, ms=(m,), span=10)
        c = chain_between(x, y)
        n = rng.randint(1, 50)
        sc = scale_chain(c, n)  # re-verified internally step by step
        assert sc.steps == c.steps
        assert surd_coords(sc.nodes[0]) == surd_coords(scale(x, n))
        assert surd_coords(sc.nodes[-1]) == surd_coords(scale(y, n))
    with pytest.raises(ValueError):
        scale_chain(chain_between(x, y), 0)


def test_scaled_minimal_chain_needs_no_new_primes():
    # reducing (A*x + B)/C after x -> n*x can only cancel prime factors,
    # so the minimal chain between the scaled pair uses a sub-multiset of
    # the original primes
    rng = random.Random(54)
    for _ in range(150):
        m = rng.choice([2, 3, 5])
        x = random_surd(rng, ms=(m,), span=10)
        y = random_surd(rng, ms=(m,), span=10)
        base = Counter(chain_between(x, y).primes())
        n = rng.randint(2, 50)
        scaled = Counter(chain_between(scale(x, n), scale(y, n)).primes())
        assert not scaled - base, (x, y, n)


def test_conductor_bounds_frozen_and_random():
    f = field_data(5)
    lx, ly, ok = conductor_bounds_check(f, f.xD, scale(f.xD, 5), 5)
    assert (lx, ly, ok) == (1, 5, True)
    rng = random.Random(55)
    for _ in range(200):
        m = rng.choice([2, 3, 5, 13])
        f = field_data(m)
        x = random_surd(rng, ms=(m,), span=10)
        p = rng.choice(SMALL_PRIMES)
        y = scale(x, p) if rng.random() < 0.5 else mobius(x, 1, rng.randint(-9, 9), p)
        lx, ly, ok = conductor_bounds_check(f, x, y, p)
        assert ok, (x, y, p)
        assert lx == conductor_of_surd(f, x) and ly == conductor_of_surd(f, y)
    with pytest.raises(ValueError):
        conductor_bounds_check(f, f.xD, scale(f.xD, 6), 5)


def test_unit_index_frozen_example():
    f = field_data(5)
    # stabilizer of Z + Z*xD has generator epsD; its 5th power is the first
    # to enter Z[5*xD], and 5 <= 5 + 1
    assert unit_index_check(f, f.xD, scale(f.xD, 5), 5) == 5


def test_unit_index_bound_and_minimality():
    rng = random.Random(56)
    for _ in range(150):
        m = rng.choice([2, 3, 5, 13])
        f = field_data(m)
        x = random_surd(rng, ms=(m,), span=8)
        p = rng.choice(SMALL_PRIMES)
        y = scale(x, p) if rng.random() < 0.5 else mobius(x, 1, rng.randint(-6, 6), p)
        l = unit_index_check(f, x, y, p)
        assert 1 <= l <= p + 1
        gen = alg_pow(f, f.epsD, unit_group_index(f, conductor_of_surd(f, x)))
        ly = conductor_of_surd(f, y)
        assert in_suborder(f, alg_pow(f, gen, l), ly)
        for k in range(1, l):
            assert not in_suborder(f, alg_pow(f, gen, k), ly)


def test_unit_index_same_lattice_degenerate():
    f = field_data(5)
    assert unit_index_check(f, f.xD, f.xD, 5) == 1
