"""Run one quadcf CLI command with every public library function timed.

    PYTHONPATH=src python3 bench/trace_cli.py SPANS converge --d 2 ... --output T.csv

Before the command runs, each public function of the scan-path modules is
replaced, in every module namespace that bound it by name, by a wrapper that
records a span (name, start, end, parent). Call-time imports such as
``from .matrix_orders import mat_order_mod`` inside a function body read the
module attribute, so they get the wrapper too. Private functions (leading
underscore) are not wrapped: their time counts as self time of the public
function that called them. No library source changes.

Spans stay in memory and are written to SPANS when the command ends,
together with the counts read off arguments and results at the same
boundaries (``COUNTS``) and the command's exit code; ``load`` reads them
back. The process exits with the command's code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

MODULES = (
    "arith", "surd", "gauss_kuzmin", "quad_orders", "matrix_orders",
    "hecke", "class_geodesics", "experiments", "cli",
)

# Span name -> (count name, quantity read off the call's arguments and result).
COUNTS = {
    "gauss_kuzmin.pattern_frequency": (
        "gauss_kuzmin.windows", lambda args, out: len(args[0].period)),
    "surd.cf_expand": (
        "surd.digits", lambda args, out: len(out.preperiod) + len(out.period)),
    "class_geodesics.reduced_forms": (
        "class_geodesics.forms", lambda args, out: len(out)),
}


class Tracer:
    """In-memory span recorder; ``wrap`` makes a timed stand-in for a function.

    Each span is stored as five integers, in the order spans end:
    span id (in the order spans start), name index, start ns, end ns and the
    parent's span id, or -1 for a root span.
    """

    FIELDS = 5

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts = {count: 0 for count, _ in COUNTS.values()}
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        record, stack, counts = self.spans.extend, self._stack, self.counts
        clock = time.perf_counter_ns
        count_name, quantity = COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record((sid, nid, start, clock(), parent))
                stack.pop()
            if count_name:
                counts[count_name] += quantity(args, out)
            return out

        return timed

    def dump(self, path: str, exit_code: int) -> None:
        """One JSON header line, then the span integers as native int64."""
        header = {"names": self.names, "counts": self.counts,
                  "exit_code": exit_code, "fields": self.FIELDS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(fh)


def load(path: str) -> tuple[dict, array]:
    """Read what ``Tracer.dump`` wrote: (header, flat span integers)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = array("q")
        spans.frombytes(fh.read())
    return header, spans


def install(tracer: Tracer) -> None:
    """Wrap every public quadcf function in every namespace that binds it."""
    modules = [importlib.import_module("quadcf")]
    modules += [importlib.import_module(f"quadcf.{m}") for m in MODULES]
    stand_ins: dict = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("quadcf.")
                and not obj.__name__.startswith("_")
                and getattr(obj, "__wrapped__", None) not in stand_ins
            ):
                continue
            if obj not in stand_ins:
                name = f"{obj.__module__.removeprefix('quadcf.')}.{obj.__qualname__}"
                stand_ins[obj] = tracer.wrap(obj, name)
            setattr(mod, attr, stand_ins[obj])


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("quadcf.cli")
    code = cli.main(cli_argv)
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
