"""quadcf benchmark: three CLI scans timed end to end, each module timed from outside.

Timed or traced run of one workload (from the repository root):

    python3 bench/run.py --workload converge-primes --seed 0 --seconds 20 --trace 0

Comparison of two result files written with ``--out``:

    python3 bench/run.py --compare parent.jsonl child.jsonl

Every timed run starts a fresh interpreter per CLI invocation
(``python3 -m quadcf.cli`` with ``PYTHONPATH=src``), so no in-process memo
survives between invocations. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json and
``--trace 1`` the ``per_layer`` ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import compare
import trace_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_ROUNDS = 3          # rounds measured even when --seconds has run out
DEADLINE_S = 120.0      # no new round starts after this, whatever --seconds says
RUN_LIMIT_S = 30.0      # one CLI invocation is killed after this
CALIBRATION_SUM = 538890  # what calibrate.py prints
CALIBRATION_REF_S = 0.19  # calibrate.py's median wall time that maps to scale 1
LAYERS = ("arith", "surd", "gauss_kuzmin", "quad_orders", "matrix_orders",
          "class_geodesics", "experiments", "cli")
SCANS = ("converge_scan", "artin_scan", "duke_scan")


# ---- workloads ----

@dataclass(frozen=True)
class Workload:
    """One scan command. ``members`` is the family of free inputs, all of
    similar cost; seed s runs ``members[s % len(members)]``, so seed 0 runs
    the pinned default. ``full`` and ``smallest`` build the CLI arguments
    for a member, without ``--workers`` and ``--output``."""

    name: str
    members: tuple
    full: Callable[[object], list[str]]
    smallest: Callable[[object], list[str]]
    parallel: bool  # the command takes --workers


def _converge(patterns: str, bound: int) -> list[str]:
    return ["converge", "--d", "2", "--patterns", patterns,
            "--sequence", "primes", "--bound", str(bound)]


def _artin(d: int, bound: int) -> list[str]:
    return ["artin", "--d", str(d), "--sequence", "integers", "--bound", str(bound)]


def _first_disc(a: int) -> int:
    """Smallest discriminant >= a that the duke scan accepts."""
    while a % 4 not in (0, 1) or math.isqrt(a) ** 2 == a:
        a += 1
    return a


DUKE_WIDTH = 400

WORKLOADS = {
    wl.name: wl
    for wl in (
        # Pattern sets of the criterion-9 shape: two single digits and one pair.
        # The radicand stays 2 because the period sums of N*sqrt(d) over the
        # primes differ by up to 4.5x between small radicands, while the cost
        # of a pattern set of this shape barely depends on its digits: the
        # eight sets differ by 2.6 % in interpreted function calls.
        Workload(
            "converge-primes",
            ("1;2;1,1", "1;3;1,2", "2;1;2,1", "1;4;2,2",
             "2;3;1,3", "3;1;2,1", "1;2;3,1", "2;4;1,1"),
            lambda p: _converge(p, 2000),
            lambda p: _converge(p, 2),
            parallel=True,
        ),
        # The squarefree d < 120 whose census up to 2000 costs closest to
        # d = 5's: 3.1 % apart in interpreted function calls (the full range
        # below 120 is 16 %).
        Workload(
            "artin-integers",
            (5, 85, 13, 53),
            lambda d: _artin(d, 2000),
            lambda d: _artin(d, 2),
            parallel=True,
        ),
        # Windows of every discriminant in [a, a + 400]; they differ by
        # 2.2 % in interpreted function calls.
        Workload(
            "duke-range",
            tuple(10000 + 64 * k for k in range(8)),
            lambda a: ["duke", "--min", str(a), "--max", str(a + DUKE_WIDTH)],
            lambda a: ["duke", "--min", str(_first_disc(a)), "--max", str(_first_disc(a))],
            parallel=False,
        ),
    )
}


def command_key(argv: list[str]) -> str:
    """The key of a command in golden.json."""
    return " ".join(argv)


# ---- one CLI invocation ----

@dataclass
class Invocation:
    argv: list[str]
    seconds: float
    rss_mb: float
    exit_code: int
    sha256: str | None


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(argv: list[str], out: Path, tracer_spans: Path | None = None) -> Invocation:
    """Run one CLI command in a fresh interpreter writing its table to ``out``.
    Wall time covers interpreter start to exit; RSS is the largest process
    of the tree, from the ``wait4`` rusage (which includes reaped children)."""
    err_path = out.with_name(out.name + ".err")
    if out.exists():
        out.unlink()
    prefix = [sys.executable]
    prefix += [str(BENCH / "trace_cli.py"), str(tracer_spans)] if tracer_spans else ["-m", "quadcf.cli"]
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            prefix + argv + ["--output", str(out)], env=cli_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        killer = threading.Timer(RUN_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        msg = err_path.read_text(errors="replace")[-400:]
        sys.stderr.write(f"[bench] {command_key(argv)} exited {proc.returncode}: {msg}\n")
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return Invocation(argv, seconds, usage.ru_maxrss / 1024.0, proc.returncode, sha)


# ---- timed run ----

@dataclass
class Tally:
    """Attempted and failed invocations, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, inv: Invocation, pinned: str, also_equal: str | None = None) -> bool:
        self.attempted += 1
        reason = None
        if inv.exit_code != 0:
            reason = f"exit code {inv.exit_code}"
        elif inv.sha256 != pinned:
            reason = f"table sha256 {inv.sha256} != pinned {pinned}"
        elif also_equal is not None and inv.sha256 != also_equal:
            reason = "--workers nproc table differs from --workers 1 table"
        if reason:
            self.failures.append({"command": command_key(inv.argv), "reason": reason})
            sys.stderr.write(f"[bench] FAILED {command_key(inv.argv)}: {reason}\n")
        return reason is None


def calibrate(tally: Tally) -> float | None:
    """Wall seconds of one calibrate.py run in a fresh interpreter, or None
    (a failed invocation) when it does not print its checksum."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        res = subprocess.run([sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT,
                             capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        reason = f"killed after {RUN_LIMIT_S} s"
    else:
        if res.returncode == 0 and res.stdout.strip() == str(CALIBRATION_SUM):
            return time.perf_counter() - start
        reason = f"exit code {res.returncode}, printed {res.stdout.strip()[:40]!r}"
    tally.failures.append({"command": "calibrate.py", "reason": reason})
    sys.stderr.write(f"[bench] FAILED calibrate.py: {reason}\n")
    return None


def _pinned(golden: dict, argv: list[str]) -> str:
    try:
        return golden[command_key(argv)]
    except KeyError:
        raise SystemExit(f"bench: no pinned sha256 for {command_key(argv)!r} in golden.json") from None


def with_workers(wl: Workload, argv: list[str], workers: int) -> list[str]:
    return argv + ["--workers", str(workers)] if wl.parallel else list(argv)


def measure(wl: Workload, member, seconds: float, nproc: int, golden: dict,
            tmp: Path, tally: Tally) -> tuple[dict, dict, int]:
    """Rounds of one set-up invocation, one calibration and the full command
    at --workers 1 and --workers nproc in alternating order, until ``seconds``
    have passed (at least MIN_ROUNDS rounds). A command without --workers
    runs once a round and its samples serve both wall_s and wall_s_par.
    Returns the raw samples of runs that exited 0, the same times in
    calibration units (each divided by its round's calibration time and
    multiplied by CALIBRATION_REF_S), and the number of scan items in the
    table."""
    par = nproc if wl.parallel else 1
    full, small = wl.full(member), wl.smallest(member)
    setup_argv = with_workers(wl, small, par)
    samples: dict[str, list[float]] = {"wall_s": [], "wall_s_par": [], "setup_s": [],
                                       "calibration_s": [], "peak_rss_mb": []}
    scaled: dict[str, list[float]] = {"wall_s": [], "wall_s_par": [], "setup_s": []}
    out = tmp / "table.out"
    items = 0

    # Untimed warm-up: fills src/quadcf/__pycache__ as an installed package would have it.
    tally.check(invoke(setup_argv, out), _pinned(golden, small))

    begin = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - begin
        per_round = elapsed / rounds if rounds else 0.0
        if rounds >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
        if rounds >= 1 and elapsed + per_round > DEADLINE_S:
            break
        times = {}
        inv = invoke(setup_argv, out)
        tally.check(inv, _pinned(golden, small))
        if inv.exit_code == 0:
            times["setup_s"] = inv.seconds
        cal = calibrate(tally)
        order = [(1, "wall_s"), (par, "wall_s_par")] if wl.parallel else [(1, "wall_s")]
        if rounds % 2:
            order.reverse()
        shas = {}
        for workers, key in order:
            inv = invoke(with_workers(wl, full, workers), out)
            shas[key] = inv.sha256
            if inv.exit_code == 0:
                times[key] = inv.seconds
                items = items or items_in_table(out)
                if workers == par:
                    samples["peak_rss_mb"].append(inv.rss_mb)
            tally.check(inv, _pinned(golden, full),
                        shas.get("wall_s") if key == "wall_s_par" else None)
        if cal is not None:
            samples["calibration_s"].append(cal)
            for key, t in times.items():
                samples[key].append(t)
                scaled[key].append(t * CALIBRATION_REF_S / cal)
        rounds += 1
    if not wl.parallel:
        samples["wall_s_par"] = samples["wall_s"]
        scaled["wall_s_par"] = scaled["wall_s"]
    return samples, scaled, items


def items_in_table(path: Path) -> int:
    """Scan items in a CSV table: distinct values of its first column."""
    lines = path.read_text().splitlines()[1:]
    return len({line.split(",", 1)[0] for line in lines})


def high_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, or None."""
    xs = sorted(values)
    k = len(xs) - 10  # 1-based rank of the highest such order statistic
    if k < 1:
        return None
    return {"percentile": round(100.0 * k / len(xs), 1), "value": xs[k - 1]}


# ---- traced run ----

def layer_metrics(header: dict, spans, traced_wall: float, items: int,
                  wall_s: float, wall_s_par: float, nproc: int) -> dict:
    """Per-layer numbers from one traced run's spans (see trace_cli)."""
    names = header["names"]
    f = header["fields"]
    ids, nids, starts, ends, parents = (spans[i::f] for i in range(f))
    durs = [e - s for s, e in zip(starts, ends)]
    child = [0] * len(durs)
    for d, p in zip(durs, parents):
        if p >= 0:
            child[p] += d
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    for sid, nid, d in zip(ids, nids, durs):
        name = names[nid]
        calls[name] += 1
        total[name] += d
        self_ns[name] += d - child[sid]

    def s(ns: int) -> float:
        return ns / 1e9

    m: dict[str, float] = {}
    for fn in ("gauss_kuzmin.pattern_frequency", "surd.cf_expand", "surd.periodic_tail",
               "quad_orders.field_data", "quad_orders.unit_group_index",
               "matrix_orders.mat_order_mod", "arith.factorize", "arith.is_prime",
               "class_geodesics.rho"):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = s(self_ns.get(fn, 0))
    for fn in ("quad_orders.conductor_of_surd", "class_geodesics.reduced_forms",
               "class_geodesics.class_number", "experiments.render_table",
               *(f"experiments.{scan}" for scan in SCANS)):
        m[f"{fn}.self_s"] = s(self_ns.get(fn, 0))
    m.update(header["counts"])
    m["arith.factorize.calls_per_item"] = calls.get("arith.factorize", 0) / items
    m["experiments.parallel_efficiency"] = wall_s / (nproc * wall_s_par)
    inner = sum(total.get(f"experiments.{scan}", 0) for scan in SCANS)
    m["cli.overhead_s"] = s(total.get("cli.main", 0) - inner - total.get("experiments.render_table", 0))
    for layer in LAYERS:
        layer_self = s(sum(v for k, v in self_ns.items() if k.startswith(layer + ".")))
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.share"] = layer_self / traced_wall
    m["trace.overhead"] = traced_wall / wall_s
    return m


def traced(wl: Workload, member, golden: dict, tmp: Path, tally: Tally):
    """One traced invocation of the full command at --workers 1.
    Returns (header, spans, traced wall seconds, items) or None on failure."""
    argv = with_workers(wl, wl.full(member), 1)
    spans_path, out = tmp / "spans.bin", tmp / "traced.out"
    inv = invoke(argv, out, tracer_spans=spans_path)
    if not tally.check(inv, _pinned(golden, wl.full(member))):
        return None
    header, spans = trace_cli.load(str(spans_path))
    return header, spans, inv.seconds, items_in_table(out)


# ---- machine facts and results ----

def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    read configuration outside the checkout), or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(correct: bool, tally: Tally, metrics: dict, declared: list[dict]) -> dict:
    """The contract's last stdout line; every declared metric must be present."""
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        missing, extra = set(units) - set(metrics), set(metrics) - set(units)
        raise SystemExit(f"bench: metric names disagree with BENCHMARK.json: "
                         f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def check_checkout() -> None:
    """Refuse to run without the library sources beside the benchmark, or
    when the interpreter would import quadcf from somewhere else."""
    if not (ROOT / "src" / "quadcf" / "cli.py").is_file():
        raise SystemExit(f"bench: no quadcf sources under {ROOT / 'src'}; run from a full checkout")
    res = subprocess.run(
        [sys.executable, "-c", "import quadcf.cli; print(quadcf.cli.__file__)"],
        env=cli_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    where = Path(res.stdout.strip()).resolve() if res.returncode == 0 else None
    if where != (ROOT / "src" / "quadcf" / "cli.py").resolve():
        raise SystemExit(f"bench: quadcf.cli imports from {where}, not from {ROOT / 'src'}: "
                         f"{res.stderr.strip()[-300:]}")


def run(wl: Workload, seed: int, seconds: float, trace: bool, golden: dict,
        spec: dict, out_file: str | None) -> int:
    nproc = len(os.sched_getaffinity(0))
    member = wl.members[seed % len(wl.members)]
    tmp = ROOT / ".bench_build" / f"quadcf-bench-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        samples, scaled, items = measure(wl, member, seconds, nproc, golden, tmp, tally)
        trace_result = traced(wl, member, golden, tmp, tally) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    med = {k: statistics.median(v) for k, v in samples.items() if v}
    metrics: dict[str, float] = {}
    if all(samples.values()):
        # On a shared host other tenants slow every invocation of a run by up
        # to 1.6x for minutes. calibrate.py slows by about the same factor, so
        # times are reported in its units (see README.md, "Calibration").
        wall_s = statistics.median(scaled["wall_s"])
        e2e = {
            "wall_s": wall_s,
            "wall_s_par": statistics.median(scaled["wall_s_par"]),
            "items_per_s": items / wall_s,
            "setup_s": statistics.median(scaled["setup_s"]),
            "peak_rss_mb": med["peak_rss_mb"],
        }
        if not trace:
            metrics = e2e
        elif trace_result:
            header, spans, traced_wall, traced_items = trace_result
            metrics = layer_metrics(header, spans, traced_wall, traced_items,
                                    med["wall_s"], med["wall_s_par"], nproc)
    correct = not tally.failures and bool(metrics)
    declared = spec["per_layer" if trace else "end_to_end"]
    line = result_line(correct, tally, metrics, declared)

    facts = machine_facts(nproc)
    print(f"workload {wl.name} seed {seed} member {member!r} trace {int(trace)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for key, xs in samples.items():
        hp = high_percentile(xs)
        tail = f", p{hp['percentile']}={hp['value']:.4f}" if hp else ", no percentile with 10 samples above it"
        spread = f"min {min(xs):.4f} median {statistics.median(xs):.4f}" if xs else "no samples"
        print(f"{key}: {spread} over n={len(xs)}{tail}")
    print(f"attempted {tally.attempted} failed {len(tally.failures)}")
    if out_file:
        record = {
            "workload": wl.name, "seed": seed, "member": member, "trace": int(trace),
            "seconds": seconds, "machine": facts, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "failed_frac": len(tally.failures) / max(1, tally.attempted),
            "correct": correct, "failures": tally.failures, "metrics": metrics,
            "samples": samples, "medians": med, "scaled": scaled,
            "percentiles": {k: high_percentile(v) for k, v in samples.items()},
        }
        with open(out_file, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSON line) to this file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHILD"),
                    help="compare two --out files instead of running")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], spec)
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    check_checkout()
    with open(BENCH / "golden.json") as fh:
        golden = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    return run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
               golden, spec, args.out)


if __name__ == "__main__":
    sys.exit(main())
