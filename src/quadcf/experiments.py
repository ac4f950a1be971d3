"""Desk-scale scan experiments: pattern-frequency deviations along N*x for
N in an arithmetic sequence, matrix-order censuses, and form-cycle length
tables. Everything is deterministic; converge, artin and duke run through
one item runner, which may spread converge's and artin's items over worker
processes (duke runs in one), and the merged output is byte-identical
regardless of worker count.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import types
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .arith import InvariantError, _spf_scope, checked_record, is_prime, kronecker, primes_up_to
from .class_geodesics import TotalLength, _is_disc, _total_length, fundamental_decomposition
from .gauss_kuzmin import Pattern, _window_counts, c_w
from .matrix_orders import _order_scope, mat_order_mod
from .quad_orders import (
    OrderSpec,
    _squarefree_field,
    conductor_of_surd,
    field_data,
    phi,
    regulator_of_order,
    surd_coords,
)
from .surd import cf_expand, make_surd, scale


class UsageError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


# Largest scan bound, and most (disc, b) pairs a duke window may walk,
# accepted: checked before any list is built, so an oversized request fails
# at once. reduced_forms takes one value per b <= isqrt(disc), and a pair
# costs at most 107 trial divisions up to its trial-division cutoff; above
# it the root walk takes each a <= isqrt(disc), two for every pair, once
# per root class, so the pairs bound its time too.
MAX_ITEMS = 10**6
# Most digits in a converge pattern: its c_w takes time quadratic in them.
_MAX_PATTERN_DIGITS = 64


class ScanConfig(NamedTuple):
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


# Each sequence's name and its N up to a bound, in the order --help lists them.
_SEQUENCES = {
    "integers": lambda bound: range(2, bound + 1),
    "primes": primes_up_to,
}


def validate_config(cfg: ScanConfig) -> None:
    if cfg.sequence not in _SEQUENCES:
        raise UsageError(f"unknown sequence {cfg.sequence!r}")
    if cfg.bound < 2:
        raise UsageError("bound must be >= 2")
    if cfg.bound > MAX_ITEMS:
        raise UsageError(f"bound must be <= {MAX_ITEMS}")
    if cfg.workers < 1:
        raise UsageError("workers must be >= 1")


def sequence_values(cfg: ScanConfig) -> Sequence[int]:
    ns = _SEQUENCES[cfg.sequence](cfg.bound)
    if cfg.coprime_filter:
        ns = [n for n in ns if math.gcd(n, cfg.coprime_filter) == 1]
    if not ns:
        raise UsageError("no N in the sequence is coprime to the filter")
    return ns


def _scan_sequence(kernel, ctx, cfg: ScanConfig) -> list:
    """run_items over sequence_values(cfg) with two scopes in place: the
    smallest-prime-factor table up to 2*bound + 2 (arith._spf_scope), which
    covers every N <= bound and every p - 1, p + 1 and 2(p + 1) of a prime
    p <= bound, the multiples of the orders mod p that the order of a
    matrix mod N is stripped from; and the memo of the orders mod each p^e
    with 2p^e <= bound (matrix_orders._order_scope). Both are removed when
    the scan ends, raised or not."""
    ns = sequence_values(cfg)
    with _spf_scope(2 * cfg.bound + 2), _order_scope(cfg.bound):
        return run_items(kernel, ctx, ns, cfg.workers)


# ---- item runner ----

def run_items(kernel, ctx, ns: Sequence[int], workers: int, label: str = "N") -> list:
    """kernel(ctx, n) for each n, one value per item in the order of ns.

    ctx is built once by the caller. With more than one process, ns is
    dealt out round-robin into one share per process (ns[i::k]), so every
    share holds small and large N alike, and each share's values are put
    back in input order with one slice assignment. The calling process
    works share 0 itself; each other share runs in a child made by POSIX
    fork, which inherits kernel and ctx and sends its values back pickled
    through a pipe. The process count never exceeds the CPUs this process
    may run on or the item count, so no share is empty; where os.fork does
    not exist, every item runs in the calling process. The output does not
    depend on the worker count.

    Each share stops at its first failing item, and the exception raised
    is that of the first failing n in the order of ns, as with one worker.
    An InvariantError's message is prefixed with f"{label}={n}: ". A child
    that dies without sending its values raises an InvariantError naming
    its share, and an OS that refuses a pipe or a fork raises UsageError;
    no child outlives the call.
    """
    procs = min(workers, _usable_cpus(), len(ns))
    if procs <= 1 or not hasattr(os, "fork"):
        k, parts = 1, [_item_rows(kernel, ctx, label, ns)]
    else:
        k = procs
        parts = _forked_item_rows(kernel, ctx, label, [ns[i::k] for i in range(k)])
    # share i holds ns[i::k], so its j-th item is ns[i + j*k]
    failures = [(i + f[0] * k, f[1]) for i, (_, f) in enumerate(parts) if f]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    if k == 1:
        return parts[0][0]  # in input order already: no second list
    out = [None] * len(ns)
    for i, (values, _) in enumerate(parts):
        out[i::k] = values
    return out


def _item_rows(kernel, ctx, label: str,
               ns: Sequence[int]) -> tuple[list, tuple[int, Exception] | None]:
    """kernel(ctx, n) of each n up to the first that raises, and that n's
    index in ns with its exception (None when every n succeeds)."""
    out = []
    for j, n in enumerate(ns):
        try:
            try:
                out.append(kernel(ctx, n))
            except InvariantError as e:
                raise InvariantError(f"{label}={n}: {e}") from e
        except Exception as e:
            return out, (j, e)
    return out, None


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    affinity mask cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_item_rows(kernel, ctx, label: str, shares: list[Sequence[int]]) -> list:
    """_item_rows of each share: shares[0] in this process, each other share
    in a forked child that pickles its result into a pipe and exits."""
    import pickle

    pending = []  # (pid, read end of its pipe) of the children not yet reaped
    try:
        for share in shares[1:]:
            fds = ()
            try:
                fds = r, w = os.pipe()
                pid = os.fork()
            except OSError as e:
                for fd in fds:
                    os.close(fd)
                raise UsageError(f"cannot start worker processes: {e}") from None
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(_item_rows(kernel, ctx, label, share), out,
                                    pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    # no cleanup of the parent's: its buffers, atexit and
                    # finally blocks belong to it alone
                    os._exit(code)
            os.close(w)
            pending.append((pid, r))
        parts = [_item_rows(kernel, ctx, label, shares[0])]
        for share in shares[1:]:
            pid, r = pending[0]
            with open(r, "rb", closefd=False) as f:
                try:
                    part = pickle.load(f)
                except (EOFError, pickle.UnpicklingError):
                    part = None  # cut short: the exit status below says how the child failed
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(0)
            os.close(r)
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise InvariantError(
                    f"the worker of {len(share)} items from {label}={share[0]} {how}")
            parts.append(part)
        return parts
    finally:
        # on an error or interrupt here: stop and reap every child left
        for pid, r in pending:
            os.close(r)
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    import signal  # needed on this error path only

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already
                pass


# ---- deviation scan (pattern frequencies along N*x) ----

class DeviationRow(NamedTuple):
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
    order = OrderSpec(fdata, conductor_of_surd(fdata, xn))
    disc, reg = order.disc, regulator_of_order(order)
    try:
        rexp = math.log(reg) / math.log(math.sqrt(disc))
    except OverflowError:  # disc beyond the float range
        raise UsageError(f"N={n}: order discriminant is too large for a float value") from None
    nprime = is_prime(n)
    rows = []
    counts = _window_counts(e.period, [w for _, w, _ in patterns])
    for (label, _, cw_float), count in zip(patterns, counts):
        g = math.gcd(count, L)
        num, den = count // g, L // g
        dev = abs(num / den - cw_float)
        row = DeviationRow(n, nprime, L, label, num, den, cw_float, dev, disc, rexp)
        _validate_row(row)
        rows.append(row)
    return rows


def converge_scan(cfg: ScanConfig) -> list[DeviationRow]:
    validate_config(cfg)
    if not cfg.patterns:
        raise UsageError("need at least one pattern")
    pats = {}
    for w in cfg.patterns:
        try:
            pat = Pattern(tuple(w))
        except ValueError:
            raise UsageError(f"bad pattern {w}") from None
        if len(w) > _MAX_PATTERN_DIGITS:
            raise UsageError(f"a pattern may have at most {_MAX_PATTERN_DIGITS} digits")
        if pat in pats:  # its rows would be written twice
            raise UsageError(f"repeated pattern {w}")
        pats[pat] = None
    base = make_surd(cfg.p, cfg.r, cfg.d, cfg.q)
    cf_expand(base)  # the bounded walk refuses a radicand too large before it is factored
    # surd_coords factors the radicand: its m is squarefree, so it is not factored again
    fdata = _squarefree_field(surd_coords(base)[0])
    patterns = [(w.label(), w.digits, c_w(w).as_float()) for w in pats]
    per_n = _scan_sequence(_converge_item, (base, fdata, patterns), cfg)
    return [row for rows in per_n for row in rows]


def converge_stats(rows: list[DeviationRow]) -> dict:
    """Per-pattern dyadic medians, the log-log least-squares decay fit, and
    the fraction of N beating the half-power of the fitted rate."""
    import statistics  # loaded by --summary only, not by every start-up

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

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"
COMPOSITE = "composite"


class OrderRecord(checked_record("OrderRecord", "N ord exponent split_type is_max")):
    """exponent = ln(ord)/ln(N); is_max for odd unramified primes, else None."""

    __slots__ = ()

    def __new__(cls, N: int, ord: int, exponent: float, split_type: str, is_max: bool | None):
        if ord < 1:
            raise ValueError("order must be positive")
        return tuple.__new__(cls, (N, ord, exponent, split_type, is_max))


def _artin_item(ctx, N: int) -> OrderRecord:
    f, M = ctx
    o = mat_order_mod(M, N)
    exponent = math.log(o) / math.log(N)
    split_type, is_max = COMPOSITE, None
    if is_prime(N):
        k = kronecker(f.D, N)
        split_type = SPLIT if k == 1 else INERT if k == -1 else RAMIFIED
        if N != 2 and k:
            # the largest order the unit can have mod N: N - 1 split; inert,
            # N + 1 for norm +1 and 2(N + 1) for norm -1
            is_max = o == (N - 1 if k == 1 else N + 1 if f.unit_norm == 1 else 2 * (N + 1))
    return OrderRecord(N, o, exponent, split_type, is_max)


def artin_scan(cfg: ScanConfig) -> list[OrderRecord]:
    validate_config(cfg)
    fdata = field_data(cfg.d)
    return _scan_sequence(_artin_item, (fdata, phi(fdata, fdata.epsD)), cfg)


def artin_stats(records: list[OrderRecord]) -> dict:
    densities = {}
    for theta in (0.7, 0.8, 0.9):
        hits = sum(1 for r in records if r.ord >= r.N**theta)
        densities[theta] = hits / len(records)
    primes = [r for r in records if r.split_type != COMPOSITE]
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
    bound on the (disc, b) pairs reduced_forms walks, exceeds MAX_ITEMS.
    Up to isqrt(disc) = TRIAL_DIVISION_MAX_ROOT a pair costs at most about
    0.21 * isqrt(disc) <= 107 trial divisions; above it the root walk takes
    each a <= isqrt(disc), two for every pair, once per root class. Either
    way the forms of its window divisors follow, so the cap bounds the time
    as well as the count."""
    if (hi - lo + 1) * math.isqrt(max(hi, 0)) > MAX_ITEMS:
        raise UsageError(f"discriminants {lo}..{hi} need more than {MAX_ITEMS} (disc, b) pairs")


def duke_discs(dmin: int, dmax: int, fundamental_only: bool) -> list[int]:
    if dmin > dmax:
        raise UsageError("empty discriminant range")
    lo = max(5, dmin)
    check_form_work(lo, dmax)
    out = []
    for disc in range(lo, dmax + 1):
        if not _is_disc(disc):
            continue
        if fundamental_only and fundamental_decomposition(disc)[1] != 1:
            continue
        out.append(disc)
    if not out:
        raise UsageError("no valid discriminants in range")
    return out


def _duke_item(fundamental_only: bool, disc: int) -> TotalLength:
    # under fundamental_only, duke_discs factored disc to keep it: (D0, f) = (disc, 1)
    D0, f = (disc, 1) if fundamental_only else fundamental_decomposition(disc)
    return _total_length(disc, D0, f)[0]


def duke_scan(dmin: int, dmax: int, fundamental_only: bool = False) -> list[TotalLength]:
    return run_items(_duke_item, fundamental_only, duke_discs(dmin, dmax, fundamental_only), 1, "disc")


def duke_stats(rows: list[TotalLength]) -> dict:
    import statistics  # loaded by --summary only, not by every start-up

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

_TABLE_FORMATS = ("csv", "json")


def _table_chunks(row_type: type, rows: list, fmt: str) -> Iterator[str]:
    """render_table's text in chunks: the CSV header, then one chunk per
    row, or in JSON one chunk per row and the closing bracket."""
    if fmt == "csv":
        # writerow returns what it hands to write: the row's line
        line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
        yield line(row_type._fields)
        for row in rows:  # csv.writer itself writes None as "" and a float as its repr
            yield line([("true" if v else "false") if isinstance(v, bool) else v for v in row])
        return
    import json  # loaded by JSON output only, not by every start-up

    # no indent, so the C encoder runs; the separators indent as indent=2 does
    encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
    head = "[\n  {\n    "
    for row in rows:
        yield head + encode(row._asdict())[1:-1]
        head = "\n  },\n  {\n    "
    yield "\n  }\n]\n" if rows else "[]\n"


def render_table(row_type: type, rows: list, fmt: str) -> str:
    """The rows as a CSV or JSON table (json.dumps(..., indent=2)) whose columns
    are the fields of the named tuple row_type, in declaration order; any fmt
    but "csv" or "json" raises UsageError. The CLI hands emit the same chunks
    unjoined."""
    if fmt not in _TABLE_FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    return "".join(_table_chunks(row_type, rows, fmt))


def emit(chunks: Iterable[str], path: str | None, stream: str = "stdout") -> None:
    """Write the text chunks in order to path, or when path is empty to the
    standard stream sys.<stream> ("stdout" or "stderr"), flushed. Callers pass
    lines or table rows: one large write that a closing pipe cuts short may
    not raise. A stream that is None (closed at start-up) or cannot take the
    text raises UsageError; the other stream never stands in for it."""
    if not path:
        name = {"stdout": "standard output", "stderr": "standard error"}[stream]
        out = getattr(sys, stream)
        if out is None:
            raise UsageError(f"{name} is closed")
        try:
            out.writelines(chunks)
            out.flush()
        except OSError as e:
            # what the stream still buffers goes nowhere, so the flush at exit cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
            if isinstance(e, BrokenPipeError):
                raise UsageError(f"{name} closed early") from None
            raise UsageError(f"cannot write {name}: {e.strerror or e}") from None
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None
