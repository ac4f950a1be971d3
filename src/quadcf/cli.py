"""Command line front end.

Exit codes: 0 on success, 2 on bad usage, bad input values or a standard
stream that cannot take the output (closed, full, or its reader gone), 3 when
an internal consistency check fails (a bug, not a user error).

Scan commands accept ``--config FILE`` with flat ``key = value`` lines;
explicit command line flags override file entries.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Callable, NamedTuple

from .arith import InvariantError
from .class_geodesics import TotalLength, _total_length, fundamental_decomposition
from .experiments import (
    DeviationRow,
    OrderRecord,
    ScanConfig,
    UsageError,
    _SEQUENCES,
    _TABLE_FORMATS,
    _table_chunks,
    artin_scan,
    artin_stats,
    artin_summary_lines,
    check_form_work,
    converge_scan,
    converge_stats,
    converge_summary_lines,
    duke_scan,
    duke_stats,
    duke_summary_lines,
    emit,
    run_items,
)
from .matrix_orders import _order_scope
from .quad_orders import (
    OrderSpec,
    R_of,
    alg_value,
    field_data,
    regulator_of_order,
    unit_group_index,
)
from .surd import cf_expand, convergents, make_surd


def parse_patterns(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "1;2;1,1" into ((1,), (2,), (1, 1))."""
    groups = [g.strip() for g in text.split(";") if g.strip()]
    if not groups:
        raise UsageError("no patterns given")
    out = []
    for g in groups:
        try:
            out.append(tuple(int(t) for t in g.split(",")))
        except ValueError:
            raise UsageError(f"bad pattern {g!r}") from None
    return tuple(out)


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read(_MAX_CONFIG_BYTES + 1)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    if len(data) > _MAX_CONFIG_BYTES:
        raise UsageError(f"config {path} is larger than {_MAX_CONFIG_BYTES} bytes")
    out: dict[str, str] = {}
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise UsageError(f"cannot read config {path}: not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _merge_settings(defaults: dict, args: argparse.Namespace) -> dict:
    merged = dict(defaults)
    for key, raw in load_config(args.config).items() if getattr(args, "config", None) else ():
        if key not in merged:
            raise UsageError(f"unknown config key {key!r}")
        merged[key] = _cast_like(merged[key], raw)
    for key in merged:
        if hasattr(args, key):  # flags default to SUPPRESS, so present = explicit
            merged[key] = getattr(args, key)
    return merged


def _cast_like(example, raw: str):
    if isinstance(example, tuple):
        return parse_patterns(raw)
    if isinstance(example, bool):
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise UsageError(f"bad boolean {raw!r}")
    if isinstance(example, int):
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"bad integer {raw!r}") from None
    return raw


# Most convergents `expand` prints: checked before the digit list is built.
MAX_CONVERGENTS = 10**4
# Largest `unit --conductor`: its unit-group index factors the conductor and
# p - 1 or p + 1 for each of its primes p, quick up to 18 digits.
MAX_CONDUCTOR = 10**18
# Largest --config file in bytes; one more is read at most, so /dev/zero fails.
_MAX_CONFIG_BYTES = 2**16


# ---- commands ----

def cmd_expand(args) -> int:
    if args.convergents > MAX_CONVERGENTS:
        raise UsageError(f"--convergents must be <= {MAX_CONVERGENTS}")
    x = make_surd(args.p, args.r, args.d, args.q)
    e = cf_expand(x)
    digits = e.digits(args.convergents)  # a negative K fails before any output
    lines = [
        f"preperiod: {' '.join(map(str, e.preperiod))}",
        f"period: {' '.join(map(str, e.period))}",
        f"period_length: {e.period_length}",
    ]
    if digits:
        lines.append("convergents: " + " ".join(f"{p}/{q}" for p, q in convergents(digits)))
    emit([line + "\n" for line in lines], None)
    return 0


class _ScanCommand(NamedTuple):
    """What one scan subcommand needs beyond the shared output settings:
    its config keys with their defaults, the scan from settings to rows,
    the row named tuple whose fields are the table's columns, and how rows
    become a summary."""

    settings: dict
    scan: Callable[[dict], list]
    row_type: type
    stats: Callable
    summary_lines: Callable


# The scans are named inside lambdas, so each run looks them up in this
# module's globals and sees a monkeypatched or wrapped binding.
_SCANS = {
    "converge": _ScanCommand(
        ScanConfig()._asdict(),
        lambda st: converge_scan(ScanConfig(**st)),
        DeviationRow, converge_stats, converge_summary_lines,
    ),
    "artin": _ScanCommand(
        dict(d=5, sequence="primes",
             **{k: ScanConfig._field_defaults[k] for k in ("bound", "coprime_filter", "workers")}),
        lambda st: artin_scan(ScanConfig(**st)),
        OrderRecord, artin_stats, artin_summary_lines,
    ),
    "duke": _ScanCommand(
        dict(min=5, max=500, fundamental_only=False),
        lambda st: duke_scan(st["min"], st["max"], st["fundamental_only"]),
        TotalLength, duke_stats, duke_summary_lines,
    ),
}

_OUTPUT_DEFAULTS = dict(output=None, format="csv", summary=None)


def cmd_scan(args) -> int:
    spec = _SCANS[args.command]
    st = _merge_settings({**spec.settings, **_OUTPUT_DEFAULTS}, args)
    output, fmt, summary = (st.pop(key) for key in _OUTPUT_DEFAULTS)
    if fmt not in _TABLE_FORMATS:
        raise UsageError(f"unknown format {fmt!r}")
    summary_path = None if summary == "-" else summary
    for path in (output, summary_path):
        # refused before the scan; the write after it still has the last word
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            reason = os.strerror(errno.EISDIR if os.path.isdir(path) else errno.ENOENT)
            raise UsageError(f"cannot write {path}: {reason}")
    if output and summary_path and (
        os.path.realpath(output) == os.path.realpath(summary_path)
        or os.path.exists(output) and os.path.exists(summary_path)
        and os.path.samefile(output, summary_path)
    ):  # the summary would overwrite the table
        raise UsageError(f"cannot write {summary_path}: the table is written there too")
    rows = spec.scan(st)
    emit(_table_chunks(spec.row_type, rows, fmt), output)
    if summary is not None:
        lines = spec.summary_lines(spec.stats(rows))
        emit([line + "\n" for line in lines], summary_path, "stderr")
    return 0


def cmd_unit(args) -> int:
    if args.conductor > MAX_CONDUCTOR:
        raise UsageError(f"--conductor must be <= {MAX_CONDUCTOR}")
    f = field_data(args.d)
    o = OrderSpec(f, args.conductor)  # a conductor below 1 fails before any output
    try:  # built before printing, so a refused unit prints nothing
        line = (
            f"D={f.D} eps=({f.epsD.a},{f.epsD.b}) value={float(alg_value(f, f.epsD))!r} "
            f"norm={f.unit_norm} regulator={f.regD!r}"
        )
    except ValueError:  # int to str beyond the interpreter's digit limit
        raise UsageError(
            f"fundamental unit has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except OverflowError:
        raise UsageError("fundamental unit is too large for a float value") from None
    emit([line + "\n"], None)
    if o.f > 1:
        with _order_scope(2 * o.f):  # all three read the order mod f: keep each p^e of f
            emit([
                f"conductor={o.f} disc={o.disc} unit_index={unit_group_index(f, o.f)} "
                f"pm_index={R_of(f, o.f)} order_regulator={regulator_of_order(o)!r}\n"
            ], None)
    return 0


def cmd_classno(args) -> int:
    check_form_work(args.disc, args.disc)
    # one item through the runner, so a failure names the disc as duke's does
    [(tl, nred)] = run_items(lambda _, disc: _total_length(disc, *fundamental_decomposition(disc)),
                             None, [args.disc], 1, "disc")
    emit([
        f"disc={args.disc} h={tl.h} reduced_forms={nred} reg={tl.reg!r} "
        f"total_length={tl.total_length!r} exponent={tl.exponent!r}\n"
    ], None)
    return 0


# ---- parser ----

def _add_surd_flags(sp) -> None:
    sp.add_argument("--p", type=int, help="rational part numerator")
    sp.add_argument("--r", type=int, help="coefficient of sqrt(d)")
    sp.add_argument("--d", type=int, help="radicand (positive nonsquare)")
    sp.add_argument("--q", type=int, help="denominator")


def _add_scan_flags(sp) -> None:
    sp.add_argument("--sequence", metavar="{%s}" % ",".join(_SEQUENCES))
    sp.add_argument("--bound", type=int)
    sp.add_argument("--coprime-filter", type=int)
    sp.add_argument("--workers", type=int)
    _add_output_flags(sp)


def _add_output_flags(sp) -> None:
    sp.add_argument("--output", help="write the table here instead of stdout")
    sp.add_argument("--format", metavar="{%s}" % ",".join(_TABLE_FORMATS))
    sp.add_argument(
        "--summary", nargs="?", const="-",
        help="write summary statistics to this path ('-' or bare flag: stderr)",
    )
    sp.add_argument("--config", help="flat key = value settings file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcf",
        description="Continued fractions of quadratic irrationals: expansions, "
        "digit statistics along multiples, unit and matrix orders, form classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="continued fraction of (p + r*sqrt(d))/q")
    _add_surd_flags(sp)
    sp.set_defaults(**{k: ScanConfig._field_defaults[k] for k in ("p", "r", "d", "q")})
    sp.add_argument("--convergents", type=int, default=0, metavar="K",
                    help="also print the first K convergents")
    sp.set_defaults(func=cmd_expand)

    def scan_parser(name: str, text: str) -> argparse.ArgumentParser:
        # flags default to SUPPRESS, so _merge_settings sees only explicit ones
        sp = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        sp.set_defaults(func=cmd_scan)
        return sp

    sp = scan_parser("converge", "pattern frequency deviations along N*(p + r*sqrt(d))/q")
    _add_surd_flags(sp)
    sp.add_argument("--patterns", type=parse_patterns,
                    help="semicolon separated, digits comma separated: '1;2;1,1'")
    _add_scan_flags(sp)

    sp = scan_parser("artin", "multiplicative orders of the fundamental unit mod N")
    sp.add_argument("--d", type=int, help="field: squarefree m or fundamental discriminant")
    _add_scan_flags(sp)

    sp = scan_parser("duke", "class numbers and total cycle length over a discriminant range")
    sp.add_argument("--min", type=int, help="smallest discriminant")
    sp.add_argument("--max", type=int, help="largest discriminant")
    sp.add_argument("--fundamental-only", action="store_true")
    _add_output_flags(sp)

    sp = sub.add_parser("unit", help="fundamental unit, regulator, suborder indices")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--conductor", type=int, default=1)
    sp.set_defaults(func=cmd_unit)

    sp = sub.add_parser("classno", help="form class number and cycle lengths")
    sp.add_argument("--disc", type=int, required=True)
    sp.set_defaults(func=cmd_classno)

    return parser


def _report(message: str) -> None:
    if sys.stderr is not None:  # closed at start-up: stdout never stands in for it
        print(message, file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except InvariantError as e:
        _report(f"internal invariant violated: {e}")
        return 3
    except ValueError as e:
        _report(f"error: {e}")
        return 2


def run() -> None:
    """Entry point of the quadcf script and of python -m quadcf.cli: main(),
    then flush stdout and stderr and leave by os._exit, skipping the
    interpreter's teardown (mostly garbage collection passes over what
    start-up made). A flush that fails exits 120, as the interpreter's own
    exit does; an exception that escapes main() unwinds as usual."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
