"""Digit-pattern statistics of periodic continued fractions against the
Gauss measure.

The reference constant for a pattern w is the Gauss measure of the set of
x in [0,1] whose first digits are exactly w. That set is an interval with
continuant endpoints, so the constant is log2 of an explicit rational and
we keep the rational exactly; only the final comparison goes through
floats.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import TYPE_CHECKING, NamedTuple

from .arith import checked_record
from .surd import CFExpansion, convergents

if TYPE_CHECKING:
    from fractions import Fraction


class Pattern(checked_record("Pattern", "digits")):
    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...]):
        if not digits:
            raise ValueError("pattern must be nonempty")
        if any(a < 1 for a in digits):
            raise ValueError("pattern digits must be >= 1")
        return tuple.__new__(cls, (digits,))

    def label(self) -> str:
        return "-".join(str(a) for a in self.digits)


def _as_digits(w) -> tuple[int, ...]:
    if isinstance(w, Pattern):
        return w.digits
    return Pattern(tuple(w)).digits


class Cylinder(checked_record("Cylinder", "low high")):
    """Interval of x in [0,1] opening with the given digits."""

    __slots__ = ()

    def __new__(cls, low: Fraction, high: Fraction):
        if not (0 <= low < high <= 1):
            raise ValueError("cylinder endpoints out of order")
        return tuple.__new__(cls, (low, high))


def cylinder(w) -> Cylinder:
    """Endpoints are the last convergent p_k/q_k of [0; w] and the mediant
    (p_k + p_{k-1})/(q_k + q_{k-1}), sorted."""
    from fractions import Fraction  # here, not at start-up, as in surd.eval_approx

    *_, (pm2, qm2), (pm1, qm1) = convergents((0, *_as_digits(w)))
    end = Fraction(pm1, qm1)
    mediant = Fraction(pm1 + pm2, qm1 + qm2)
    return Cylinder(min(end, mediant), max(end, mediant))


class GaussMeasure(NamedTuple):
    """Exact value log2(ratio), ratio a rational in (1, 2]."""

    ratio: Fraction

    @property
    def num(self) -> int:
        return self.ratio.numerator

    @property
    def den(self) -> int:
        return self.ratio.denominator

    def as_float(self) -> float:
        """log2(ratio) as log2(num) - log2(den). The difference cancels as
        the measure shrinks: the relative error is at most 1e-9 for patterns
        of at most 3 digits, each <= 8, but 1.3e-7 at (1,)*20 and 0.5 % at
        (1,)*30, and (1,)*40 gives 0.0. Every pinned converge table holds
        these values, so they stay as they are."""
        return (math.log2(self.ratio.numerator) - math.log2(self.ratio.denominator))


def c_w(w) -> GaussMeasure:
    """Gauss measure of cylinder(w): log2((1 + high) / (1 + low))."""
    cyl = cylinder(w)
    return GaussMeasure((1 + cyl.high) / (1 + cyl.low))


def pattern_frequency(e: CFExpansion, w) -> Fraction:
    """Relative frequency of w as a cyclic factor of the period.

    The period is read as a cycle: one window starts at each of its L
    positions and wraps around, so patterns longer than the period are
    legal and the count is over exactly L windows. The preperiod never
    enters. The result is an exact rational in lowest terms and equals the
    limiting frequency of w along the infinite digit tail.

    The windows are counted by ``_window_counts``: each digit of w becomes
    one L-byte bit mask of the positions holding it, so every window is
    tested in C and memory stays O(L) whatever the length of w.
    """
    from fractions import Fraction  # here, not at start-up, as in surd.eval_approx

    period = e.period
    return Fraction(_window_counts(period, [_as_digits(w)])[0], len(period))


def _byte_is(v: int) -> bytes:
    """Translation table sending byte v to 1 and every other byte to 0."""
    return bytes(v) + b"\1" + bytes(255 - v)


def _window_counts(period: tuple[int, ...], words) -> list[int]:
    """For each nonempty word, the number of the L cyclic windows of the
    period equal to it.

    A digit x becomes the integer with bit 8i set iff period[i] == x. The
    period goes into an ``array("I")`` once per call and is cut into byte
    lanes, so for x < 256 the mask is one ``bytes.translate`` of the low
    lane, ANDed with the mask of positions whose high lanes are all zero;
    a larger x takes one translate per lane. A window starting at i matches
    w iff bit 8i is set in the AND, over j, of w[j]'s mask rotated right by
    8*(j mod L) bits; the AND stops early at 0. No mask outlives its digit:
    the lanes, two fixed masks, the running AND and the current mask are
    all that is alive, so memory is O(L) for any number and length of
    words. A period digit of 2**32 or more, which the array cannot hold,
    builds the same masks one comparison per digit.
    """
    L = len(period)
    full = (1 << 8 * L) - 1
    try:
        raw = array("I", period).tobytes()
    except OverflowError:
        def mask(x: int) -> int:
            return int.from_bytes(bytes(map(x.__eq__, period)), "little")
    else:
        size = len(raw) // L
        lanes = [raw[b::size] for b in range(size)]
        del raw
        if sys.byteorder == "big":
            lanes.reverse()
        low, zeros = lanes[0], bytes(L)
        high_zero = full
        for lane in lanes[1:]:
            if lane != zeros:  # an all-zero lane keeps every position
                high_zero &= int.from_bytes(lane.translate(_byte_is(0)), "little")

        def mask(x: int) -> int:
            if x < 256:
                return int.from_bytes(low.translate(_byte_is(x)), "little") & high_zero
            if x >> 8 * size:
                return 0
            m = full
            for lane in lanes:
                m &= int.from_bytes(lane.translate(_byte_is(x & 255)), "little")
                x >>= 8
            return m

    counts = []
    for word in words:
        acc = full
        for j, x in enumerate(word):
            m = mask(x)
            r = 8 * (j % L)
            if r:
                m = m >> r | (m & ((1 << r) - 1)) << (8 * L - r)
            acc &= m
            if not acc:
                break
        counts.append(acc.bit_count())
    return counts
