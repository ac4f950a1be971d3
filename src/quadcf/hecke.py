"""Prime-index neighbor relations between the lattices Z + Z*x and chains
of such steps connecting any surd of the field to the canonical generator.

Two surds of one field are related by y = (a*x + b)/c in lowest terms
(surd.mobius_coeffs). Z + Z*y lies inside Z + Z*x exactly when c = 1, and
its index there is |a|, with no coordinates and no factoring.
"""

from __future__ import annotations

from .arith import InvariantError, checked_record, factorize, is_prime
from .quad_orders import (
    FieldData,
    alg_mul,
    alg_pow,
    conductor_of_surd,
    in_suborder,
    unit_group_index,
)
from .surd import Surd, mobius, mobius_coeffs, scale

DOWN = "down"  # next lattice is an index-p sublattice
UP = "up"      # next lattice is an index-p superlattice
MAX_CHAIN_COEFF = 10**18  # largest |A| or C that chain_between factors


def _sublattice_index(x: Surd, y: Surd) -> int | None:
    """Index of the lattice of y inside the lattice of x, or None if the
    lattice of y is not contained in it: y = a*x + b with integers a, b,
    of index |a|. Requires the same field."""
    a, _, c = mobius_coeffs(x, y)
    return abs(a) if c == 1 else None


def same_lattice(x: Surd, y: Surd) -> bool:
    """True when Z + Z*x and Z + Z*y coincide."""
    return _sublattice_index(x, y) == 1


def are_neighbors(x: Surd, y: Surd, p: int) -> bool:
    """True when one of the two lattices sits inside the other with index
    exactly p (a prime)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _sublattice_index(x, y) == p or _sublattice_index(y, x) == p


class HeckeChain(checked_record("HeckeChain", "nodes steps")):
    """nodes[0] connected to nodes[-1] through one prime step at a time;
    steps[i] = (p, direction) relates nodes[i] to nodes[i+1]."""

    __slots__ = ()

    def __new__(cls, nodes: tuple[Surd, ...], steps: tuple[tuple[int, str], ...]):
        if len(nodes) != len(steps) + 1:
            raise ValueError("need exactly one step between consecutive nodes")
        return tuple.__new__(cls, (nodes, steps))

    def primes(self) -> list[int]:
        return sorted(p for p, _ in self.steps)


def _verify_chain(chain: HeckeChain) -> None:
    for i, (p, direction) in enumerate(chain.steps):
        a, b = chain.nodes[i], chain.nodes[i + 1]
        idx = _sublattice_index(a, b) if direction == DOWN else _sublattice_index(b, a)
        if idx != p:
            raise InvariantError(f"step {i} is not an index-{p} {direction} step")


def chain_between(x: Surd, y: Surd) -> HeckeChain:
    """A chain of prime-index neighbor steps from x to y (same field).

    Writing y = (A*x + B)/C in lowest terms, the chain multiplies x by the
    prime factors of |A| one at a time (adding B costs nothing: it keeps
    the lattice), then divides by the prime factors of C. Every step is
    re-verified before the chain is returned. The last node is y; the
    chain starts at x itself except in the degenerate case where the two
    lattices already coincide, which yields the single node y.

    |A| and C are factored, so each must be at most MAX_CHAIN_COEFF;
    larger ones raise ValueError before any factoring.
    """
    A, B, C = mobius_coeffs(x, y)
    if max(abs(A), C) > MAX_CHAIN_COEFF:
        raise ValueError(f"chain coefficients |A| and C must be <= {MAX_CHAIN_COEFF}")

    nodes = [x]
    steps: list[tuple[int, str]] = []
    z = x
    sign = -1 if A < 0 else 1
    down_primes = _prime_multiset(abs(A))
    for i, q in enumerate(down_primes):
        z = scale(z, sign * q if i == 0 else q)
        if i == len(down_primes) - 1 and B != 0:
            z = mobius(z, 1, B, 1)  # same lattice, lands on A*x + B
        nodes.append(z)
        steps.append((q, DOWN))
    if not down_primes and (sign != 1 or B != 0):
        # |A| = 1: fold the lattice-preserving part silently
        z = mobius(z, sign, B, 1)
        if C == 1:
            nodes = [z]  # the whole chain is one free move; land on y
    for q in _prime_multiset(C):
        z = mobius(z, 1, 0, q)
        nodes.append(z)
        steps.append((q, UP))

    if mobius_coeffs(z, y) != (1, 0, 1):
        raise InvariantError("chain did not land on the target")
    chain = HeckeChain(tuple(nodes), tuple(steps))
    _verify_chain(chain)
    return chain


def _prime_multiset(n: int) -> list[int]:
    out: list[int] = []
    for p, e in factorize(n).factors:
        out.extend([p] * e)
    return out


def scale_chain(chain: HeckeChain, n: int) -> HeckeChain:
    """The chain with every node multiplied by n, connecting n*x to n*y
    with the very same step primes.

    If y = s + t*x with integers s, t then n*y = n*s + t*(n*x), so each
    containment survives scaling and its index, which equals |t|, does not
    change. Every scaled step is re-verified.
    """
    if n < 1:
        raise ValueError("scale factor must be positive")
    out = HeckeChain(tuple(scale(z, n) for z in chain.nodes), chain.steps)
    _verify_chain(out)
    return out


def conductor_bounds_check(f: FieldData, x: Surd, y: Surd, p: int) -> tuple[int, int, bool]:
    """Conductors of the two stabilizer orders across one p-step; checks
    that each divides p times the other."""
    if not are_neighbors(x, y, p):
        raise ValueError("not p-neighbors")
    lx = conductor_of_surd(f, x)
    ly = conductor_of_surd(f, y)
    ok = (p * lx) % ly == 0 and (p * ly) % lx == 0
    return lx, ly, ok


def unit_index_check(f: FieldData, x: Surd, y: Surd, p: int) -> int:
    """Least l >= 1 such that the l-th power of the generator of the unit
    group of the stabilizer of Z + Z*x lands in the stabilizer of Z + Z*y.

    The generator permutes the p+1 index-p sublattices, so l <= p + 1;
    that bound is asserted. Found by power search with the suborder
    membership test.
    """
    if mobius_coeffs(x, y) == (1, 0, 1):
        return 1  # same value, degenerate
    lx, ly, _ = conductor_bounds_check(f, x, y, p)
    gen = alg_pow(f, f.epsD, unit_group_index(f, lx))
    power = gen
    for l in range(1, p + 2):
        if in_suborder(f, power, ly):
            return l
        power = alg_mul(f, power, gen)
    raise InvariantError("no power within p+1 entered the neighbor's order")
