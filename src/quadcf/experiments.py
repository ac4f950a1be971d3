"""Desk-scale scan experiments: pattern-frequency deviations along N*x for
N in an arithmetic sequence, matrix-order censuses, and form-cycle length
tables. Everything is deterministic; converge and artin run through one
item runner that may spread the items over worker processes, and the
merged output is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, fields

from .arith import InvariantError, is_prime, primes_up_to
from .class_geodesics import TotalLength, fundamental_decomposition, total_length
from .gauss_kuzmin import Pattern, c_w, pattern_frequency
from .matrix_orders import OrderRecord, _record_for
from .quad_orders import (
    _squarefree_field,
    conductor_of_surd,
    field_data,
    phi,
    surd_coords,
    unit_group_index,
)
from .surd import cf_expand, make_surd, scale


class UsageError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


# Largest scan bound, and most (disc, b) pairs a duke window may walk
# (reduced_forms sieves one value per b <= isqrt(disc), so the pairs bound
# its time too), accepted: checked before any list is built, so an
# oversized request fails at once.
MAX_ITEMS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    """Shared scan settings. The base surd is (p + r*sqrt(d))/q; for order
    censuses d alone names the field."""

    p: int = 0
    r: int = 1
    d: int = 2
    q: int = 1
    patterns: tuple[tuple[int, ...], ...] = ((1,),)
    sequence: str = "integers"
    bound: int = 100
    coprime_filter: int = 0  # 0 disables; else skip N with gcd(N, filter) > 1
    workers: int = 1


def validate_config(cfg: ScanConfig, need_patterns: bool = True) -> None:
    if cfg.sequence not in ("integers", "primes"):
        raise UsageError(f"unknown sequence {cfg.sequence!r}")
    if cfg.bound < 2:
        raise UsageError("bound must be >= 2")
    if cfg.bound > MAX_ITEMS:
        raise UsageError(f"bound must be <= {MAX_ITEMS}")
    if cfg.workers < 1:
        raise UsageError("workers must be >= 1")
    if need_patterns:
        if not cfg.patterns:
            raise UsageError("need at least one pattern")
        for w in cfg.patterns:
            if not w or any(a < 1 for a in w):
                raise UsageError(f"bad pattern {w}")


def sequence_values(cfg: ScanConfig) -> list[int]:
    ns = primes_up_to(cfg.bound) if cfg.sequence == "primes" else list(range(2, cfg.bound + 1))
    if cfg.coprime_filter:
        ns = [n for n in ns if math.gcd(n, cfg.coprime_filter) == 1]
    if not ns:
        raise UsageError("no N in the sequence is coprime to the filter")
    return ns


# ---- item runner ----

def run_items(kernel, ctx, ns: list[int], workers: int) -> list:
    """The rows kernel(ctx, n) returns for each n, concatenated in the order
    of ns.

    ctx is built once by the caller and travels to the workers with the
    kernel. With more than one process, ns is dealt out round-robin into
    k chunks (ns[i::k]), so every chunk holds small and large N alike, and
    the per-item results are put back in input order. There are a few
    chunks per process, so a process slowed down by other load hands its
    share to the rest. The pool never exceeds the CPU count or the item
    count, no chunk is empty, and multiprocessing is imported only when a
    pool starts; the output does not depend on the worker count.

    Each chunk stops at its first failing item, and the exception raised
    is that of the first failing n in the order of ns, as with one worker.
    """
    procs = min(workers, os.cpu_count() or 1, len(ns))
    if procs <= 1:
        k, parts = 1, [_item_rows(kernel, ctx, ns)]
    else:
        from multiprocessing import Pool

        k = min(4 * procs, len(ns))
        with Pool(procs) as pool:
            parts = pool.map(functools.partial(_item_rows, kernel, ctx),
                             [ns[i::k] for i in range(k)])
    # chunk i holds ns[i::k], so its j-th item is ns[i + j*k]
    failures = [(i + f[0] * k, f[1]) for i, (_, f) in enumerate(parts) if f]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    per_item = [None] * len(ns)
    for i, (rows, _) in enumerate(parts):
        per_item[i::k] = rows
    return [row for rows in per_item for row in rows]


def _item_rows(kernel, ctx, ns: list[int]) -> tuple[list[list], tuple[int, Exception] | None]:
    """The rows of each n up to the first that raises, and that n's index
    in ns with its exception (None when every n succeeds)."""
    out = []
    for j, n in enumerate(ns):
        try:
            try:
                out.append(kernel(ctx, n))
            except InvariantError as e:
                raise InvariantError(f"N={n}: {e}") from e
        except Exception as e:
            return out, (j, e)
    return out, None


# ---- deviation scan (pattern frequencies along N*x) ----

@dataclass(frozen=True)
class DeviationRow:
    N: int
    is_prime: bool
    period_length: int
    pattern: str  # dash-joined digits
    freq_num: int
    freq_den: int
    c_w: float
    deviation: float
    disc: int
    reg_disc_exponent: float


def _validate_row(row: DeviationRow) -> None:
    if math.gcd(row.freq_num, row.freq_den) != 1:
        raise InvariantError("frequency not in lowest terms")
    redone = abs(row.freq_num / row.freq_den - row.c_w)
    if abs(redone - row.deviation) > 1e-12:
        raise InvariantError("deviation does not match freq and c_w")


def _converge_item(ctx, n: int) -> list[DeviationRow]:
    base, fdata, patterns = ctx
    xn = scale(base, n)
    e = cf_expand(xn)
    L = e.period_length
    cond = conductor_of_surd(fdata, xn)
    disc = cond * cond * fdata.D
    reg = fdata.regD * unit_group_index(fdata, cond)
    try:
        rexp = math.log(reg) / math.log(math.sqrt(disc))
    except OverflowError:  # disc beyond the float range
        raise UsageError(f"N={n}: order discriminant is too large for a float value") from None
    nprime = is_prime(n)
    rows = []
    for label, pat, cw_float in patterns:
        freq = pattern_frequency(e, pat)
        dev = abs(freq.numerator / freq.denominator - cw_float)
        row = DeviationRow(
            n, nprime, L, label, freq.numerator, freq.denominator,
            cw_float, dev, disc, rexp,
        )
        _validate_row(row)
        rows.append(row)
    return rows


def converge_scan(cfg: ScanConfig) -> list[DeviationRow]:
    validate_config(cfg)
    base = make_surd(cfg.p, cfg.r, cfg.d, cfg.q)
    cf_expand(base)  # the bounded walk refuses a radicand too large before it is factored
    # surd_coords factors the radicand: its m is squarefree, so it is not factored again
    fdata = _squarefree_field(surd_coords(base)[0])
    patterns = [(Pattern(w).label(), Pattern(w), c_w(w).as_float()) for w in cfg.patterns]
    return run_items(_converge_item, (base, fdata, patterns), sequence_values(cfg), cfg.workers)


def converge_stats(rows: list[DeviationRow]) -> dict:
    """Per-pattern dyadic medians, the log-log least-squares decay fit, and
    the fraction of N beating the half-power of the fitted rate."""
    out: dict = {}
    for label in dict.fromkeys(r.pattern for r in rows):
        rs = [r for r in rows if r.pattern == label]
        blocks: dict[int, float] = {}
        for k in sorted({r.N.bit_length() - 1 for r in rs}):
            devs = [r.deviation for r in rs if r.N.bit_length() - 1 == k]
            blocks[k] = statistics.median(devs)
        fit_rows = [r for r in rs if r.deviation > 0.0]
        zero_rows = len(rs) - len(fit_rows)
        delta_hat = c_hat = frac = float("nan")
        if len(fit_rows) >= 2:
            xs = [math.log(r.N) for r in fit_rows]
            ys = [math.log(r.deviation) for r in fit_rows]
            slope, intercept = statistics.linear_regression(xs, ys)
            delta_hat, c_hat = -slope, math.exp(intercept)
            frac = sum(
                1 for r in fit_rows if r.deviation < r.N ** (-delta_hat / 2)
            ) / len(fit_rows)
        out[label] = {
            "rows": len(rs),
            "zero_deviation_rows": zero_rows,
            "dyadic_medians": blocks,
            "delta_hat": delta_hat,
            "c_hat": c_hat,
            "frac_below_half_power": frac,
        }
    return out


def converge_summary_lines(stats: dict) -> list[str]:
    lines = []
    for label, st in stats.items():
        meds = " ".join(f"k={k}:{v:.6f}" for k, v in st["dyadic_medians"].items())
        lines.append(
            f"pattern {label}: rows={st['rows']} zero_deviation_rows={st['zero_deviation_rows']}"
        )
        lines.append(f"pattern {label}: dyadic_medians {meds}")
        lines.append(
            f"pattern {label}: delta_hat={st['delta_hat']:.6f} c_hat={st['c_hat']:.6f} "
            f"frac_below_half_power={st['frac_below_half_power']:.6f}"
        )
    return lines


# ---- order census ----

def _artin_item(ctx, n: int) -> list[OrderRecord]:
    fdata, M = ctx
    return [_record_for(fdata, M, n)]


def artin_scan(cfg: ScanConfig) -> list[OrderRecord]:
    validate_config(cfg, need_patterns=False)
    fdata = field_data(cfg.d)
    ctx = (fdata, phi(fdata, fdata.epsD))
    return run_items(_artin_item, ctx, sequence_values(cfg), cfg.workers)


def artin_stats(records: list[OrderRecord], thresholds=(0.7, 0.8, 0.9)) -> dict:
    densities = {}
    for theta in thresholds:
        hits = sum(1 for r in records if r.ord >= r.N**theta)
        densities[theta] = hits / len(records)
    primes = [r for r in records if r.split_type != "composite"]
    prime_max = (
        sum(1 for r in primes if r.is_max) / len(primes) if primes else float("nan")
    )
    exceptions = [r.N for r in records if r.ord < r.N**0.8]
    return {
        "densities": densities,
        "prime_max_density": prime_max,
        "exceptions": exceptions,
    }


def artin_summary_lines(stats: dict) -> list[str]:
    lines = [
        f"density ord>=N^{theta}: {d:.6f}" for theta, d in stats["densities"].items()
    ]
    lines.append(f"prime is_max density: {stats['prime_max_density']:.6f}")
    lines.append(
        "exceptions ord<N^0.8: " + (" ".join(map(str, stats["exceptions"])) or "none")
    )
    return lines


# ---- form-cycle census ----

def check_form_work(lo: int, hi: int) -> None:
    """Refuse the discriminants lo..hi when (hi - lo + 1) * isqrt(hi), a
    bound on the (disc, b) pairs reduced_forms sieves, exceeds MAX_ITEMS.
    Each pair costs a few sieve steps and the pairing of its window
    divisors, so the cap bounds the time as well as the count."""
    if (hi - lo + 1) * math.isqrt(max(hi, 0)) > MAX_ITEMS:
        raise UsageError(f"discriminants {lo}..{hi} need more than {MAX_ITEMS} (disc, b) pairs")


def duke_discs(dmin: int, dmax: int, fundamental_only: bool) -> list[int]:
    if dmin > dmax:
        raise UsageError("empty discriminant range")
    lo = max(5, dmin)
    check_form_work(lo, dmax)
    out = []
    for disc in range(lo, dmax + 1):
        if disc % 4 not in (0, 1):
            continue
        s = math.isqrt(disc)
        if s * s == disc:
            continue
        if fundamental_only and fundamental_decomposition(disc)[1] != 1:
            continue
        out.append(disc)
    if not out:
        raise UsageError("no valid discriminants in range")
    return out


def duke_scan(dmin: int, dmax: int, fundamental_only: bool = False) -> list[TotalLength]:
    rows = []
    for disc in duke_discs(dmin, dmax, fundamental_only):
        try:
            rows.append(total_length(disc))
        except InvariantError as e:
            raise InvariantError(f"disc={disc}: {e}") from e
    return rows


def duke_stats(rows: list[TotalLength]) -> dict:
    blocks: dict[int, dict] = {}
    for k in sorted({r.disc.bit_length() - 1 for r in rows}):
        exps = [r.exponent for r in rows if r.disc.bit_length() - 1 == k]
        blocks[k] = {
            "n": len(exps),
            "mean": statistics.fmean(exps),
            "stdev": statistics.pstdev(exps),
        }
    return {
        "blocks": blocks,
        "median_exponent": statistics.median(r.exponent for r in rows),
    }


def duke_summary_lines(stats: dict) -> list[str]:
    lines = [
        f"disc block 2^{k}..2^{k+1}: n={b['n']} mean_exponent={b['mean']:.6f} "
        f"stdev={b['stdev']:.6f}"
        for k, b in stats["blocks"].items()
    ]
    lines.append(f"median_exponent: {stats['median_exponent']:.6f}")
    return lines


# ---- serialization ----

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def render_table(row_type: type, rows: list, fmt: str) -> str:
    """The rows as a CSV or JSON table whose columns are the fields of the
    dataclass row_type, in declaration order."""
    names = [f.name for f in fields(row_type)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in names])
        return buf.getvalue()
    return json.dumps(
        [{name: getattr(row, name) for name in names} for row in rows], indent=2, allow_nan=True
    ) + "\n"


def emit(text: str, path: str | None, default_stream=None) -> None:
    """Write text to path, or to default_stream (stdout) when path is empty."""
    if not path:
        (default_stream or sys.stdout).write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None
