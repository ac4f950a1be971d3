import csv
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from quadcf import arith, class_geodesics, experiments, matrix_orders, quad_orders
from quadcf.arith import InvariantError
from quadcf.experiments import (
    INERT,
    MAX_ITEMS,
    RAMIFIED,
    SPLIT,
    DeviationRow,
    OrderRecord,
    ScanConfig,
    UsageError,
    artin_scan,
    artin_stats,
    converge_scan,
    converge_stats,
    converge_summary_lines,
    duke_discs,
    duke_scan,
    duke_stats,
    duke_summary_lines,
    emit,
    render_table,
    sequence_values,
    validate_config,
)
from quadcf.class_geodesics import TotalLength, total_length
from helpers import brute_pisano, sieve_primes

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_headers_are_frozen():
    frozen = {
        DeviationRow: (
            "N,is_prime,period_length,pattern,freq_num,freq_den,c_w,deviation,"
            "disc,reg_disc_exponent"
        ),
        OrderRecord: "N,ord,exponent,split_type,is_max",
        TotalLength: "disc,h,reg,total_length,exponent",
    }
    for row_type, header in frozen.items():
        assert render_table(row_type, [], "csv") == header + "\n"
        assert render_table(row_type, [], "json") == "[]\n"


def test_validate_config_errors():
    good = ScanConfig()
    validate_config(good)
    for bad in [
        ScanConfig(sequence="odds"),
        ScanConfig(bound=1),
        ScanConfig(workers=0),
    ]:
        with pytest.raises(UsageError):
            validate_config(bad)
    # the pattern checks belong to converge, the one scan with patterns
    for bad in [
        ScanConfig(patterns=()),
        ScanConfig(patterns=((),)),
        ScanConfig(patterns=((0,),)),
        ScanConfig(patterns=((1,), (1,) * 65)),
    ]:
        with pytest.raises(UsageError):
            converge_scan(bad)
    validate_config(ScanConfig(patterns=()))
    assert len(artin_scan(ScanConfig(patterns=(), bound=10))) == 9
    validate_config(ScanConfig(bound=MAX_ITEMS))
    with pytest.raises(UsageError, match=str(MAX_ITEMS)):
        validate_config(ScanConfig(bound=MAX_ITEMS + 1))


def test_sequence_values():
    integers = sequence_values(ScanConfig(bound=10))
    assert list(integers) == list(range(2, 11))
    assert isinstance(integers, range)  # not a list of bound - 1 ints
    assert sequence_values(ScanConfig(bound=30, sequence="primes")) == sieve_primes(30)
    assert sequence_values(ScanConfig(bound=12, coprime_filter=6)) == [5, 7, 11]
    with pytest.raises(UsageError, match="coprime"):
        sequence_values(ScanConfig(bound=2, coprime_filter=2))


def test_converge_scan_first_row_frozen():
    # N=2 on sqrt(2): 2*sqrt(2) = [2; 1,4], so pattern (1) appears once in
    # a period of two, against the cylinder mass log2(4/3); the stabilizer
    # of Z + Z*2*sqrt(2) has conductor 2, disc 32, regulator log(3+2*sqrt 2)
    rows = converge_scan(ScanConfig(bound=4, patterns=((1,),)))
    r = rows[0]
    assert (r.N, r.is_prime, r.period_length, r.pattern) == (2, True, 2, "1")
    assert (r.freq_num, r.freq_den) == (1, 2)
    assert abs(r.c_w - math.log2(4 / 3)) < 1e-15
    assert abs(r.deviation - 0.08496250072115608) < 1e-15
    assert r.disc == 32
    reg = math.log(3 + 2 * math.sqrt(2))
    assert abs(r.reg_disc_exponent - math.log(reg) / math.log(math.sqrt(32))) < 1e-12


def test_converge_scan_row_order_and_multiple_patterns():
    cfg = ScanConfig(bound=10, patterns=((2,), (1, 1)))
    rows = converge_scan(cfg)
    assert [r.N for r in rows] == [n for n in range(2, 11) for _ in range(2)]
    assert [r.pattern for r in rows[:4]] == ["2", "1-1", "2", "1-1"]


def test_converge_scan_parallel_matches_serial():
    cfg = ScanConfig(bound=40, patterns=((1,), (2, 1)))
    serial = converge_scan(cfg)
    parallel = converge_scan(ScanConfig(bound=40, patterns=((1,), (2, 1)), workers=3))
    assert serial == parallel


def test_converge_stats_on_synthetic_decay():
    # deviation exactly N^-1 must fit delta_hat = 1, c_hat = 1
    def row(n, dev):
        return DeviationRow(n, False, 1, "1", 1, 2, 0.5, dev, 8, 0.0)

    rows = [row(n, 1.0 / n) for n in range(2, 20)]
    st = converge_stats(rows)["1"]
    assert st["rows"] == 18 and st["zero_deviation_rows"] == 0
    assert abs(st["delta_hat"] - 1.0) < 1e-9
    assert abs(st["c_hat"] - 1.0) < 1e-9
    assert st["frac_below_half_power"] == 1.0
    assert st["dyadic_medians"][1] == pytest.approx(5 / 12)  # median of 1/2, 1/3
    # zero deviations are excluded from the fit but counted
    st2 = converge_stats(rows + [row(25, 0.0)])["1"]
    assert st2["zero_deviation_rows"] == 1 and st2["rows"] == 19
    lines = converge_summary_lines({"1": st})
    assert any("delta_hat=1.000000" in ln for ln in lines)
    assert any(ln.startswith("pattern 1: dyadic_medians") for ln in lines)


def test_artin_scan_orders_match_fibonacci_oracle():
    recs = artin_scan(ScanConfig(d=5, sequence="primes", bound=60))
    assert [r.N for r in recs] == sieve_primes(60)
    for r in recs:
        assert r.ord == brute_pisano(r.N), r.N
        assert abs(r.exponent - math.log(r.ord) / math.log(r.N)) < 1e-12


def test_artin_scan_parallel_matches_serial():
    a = artin_scan(ScanConfig(d=5, bound=80))
    b = artin_scan(ScanConfig(d=5, bound=80, workers=4))
    assert a == b


@pytest.fixture
def forks(monkeypatch):
    """Record the shares of each forked run, as lists, and count the forks,
    which are real; the runner sees two usable CPUs unless a test sets its
    own."""
    seen = SimpleNamespace(shares=[], count=0)
    real_run, real_fork = experiments._forked_item_rows, os.fork

    def run(kernel, ctx, label, shares):
        seen.shares.append([list(share) for share in shares])  # integer shares are ranges
        return real_run(kernel, ctx, label, shares)

    def fork():
        seen.count += 1
        return real_fork()

    monkeypatch.setattr(experiments, "_forked_item_rows", run)
    monkeypatch.setattr(experiments.os, "fork", fork)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return seen


def no_fork():
    raise AssertionError("forked")


def test_forks_are_capped_at_cpu_count(monkeypatch, forks):
    # without an affinity mask to read, the machine's CPU count caps the processes
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    recs = artin_scan(ScanConfig(bound=30, workers=10_000))
    assert forks.count == 2 and len(forks.shares[0]) == 3  # the caller works share 0
    assert recs == artin_scan(ScanConfig(bound=30))  # reassembled in input order


def test_forks_are_capped_at_the_usable_cpus(monkeypatch):
    # one CPU in the affinity mask of a two-CPU machine: one process
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    serial = artin_scan(ScanConfig(bound=30))
    monkeypatch.setattr(experiments.os, "fork", no_fork)
    assert artin_scan(ScanConfig(bound=30, workers=2)) == serial


def test_scan_runs_in_one_process_without_fork(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = artin_scan(ScanConfig(bound=30))
    monkeypatch.delattr(experiments.os, "fork", raising=False)
    assert artin_scan(ScanConfig(bound=30, workers=2)) == serial


def test_no_share_is_empty(forks):
    serial = (converge_scan(ScanConfig(bound=3)), artin_scan(ScanConfig(bound=3)))
    cfg = ScanConfig(bound=3, workers=2)
    assert (converge_scan(cfg), artin_scan(cfg)) == serial
    assert forks.shares == [[[2], [3]], [[2], [3]]]  # 2 items: one each
    assert artin_scan(ScanConfig(bound=30, workers=2)) == artin_scan(ScanConfig(bound=30))
    assert len(forks.shares[-1]) == 2 and all(forks.shares[-1])
    assert forks.count == 3


def test_one_item_scan_forks_nothing(monkeypatch):
    serial = (converge_scan(ScanConfig(bound=2)), artin_scan(ScanConfig(bound=2)))
    monkeypatch.setattr(experiments.os, "fork", no_fork)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ScanConfig(bound=2, workers=2)
    assert (converge_scan(cfg), artin_scan(cfg)) == serial


@pytest.mark.parametrize("error, message", [
    (InvariantError, "N=2: synthetic at 2"), (UsageError, "synthetic at 2")])
def test_first_failing_item_is_raised_at_any_worker_count(forks, error, message):
    # 10 items at 2 processes make 2 shares: the caller's is [1, 3, ..., 9]
    # and the child's [2, 4, ..., 10]. N=9 fails in the caller's share and
    # N=2 in the child's, but N=2 comes first in the input, as with one worker.
    def kernel(ctx, n):
        if n in (2, 9):
            raise error(f"synthetic at {n}")
        return [n]

    for workers in (1, 2):
        with pytest.raises(error) as info:
            experiments.run_items(kernel, None, list(range(1, 11)), workers)
        assert str(info.value) == message
    assert forks.shares == [[[1, 3, 5, 7, 9], [2, 4, 6, 8, 10]]]


def test_item_rows_stop_at_the_first_failure():
    calls = []

    def kernel(ctx, n):
        calls.append(n)
        if n in (4, 6):
            raise InvariantError(f"synthetic at {n}")
        return [ctx, n]

    rows, (j, e) = experiments._item_rows(kernel, "c", "N", [2, 4, 6])
    assert rows == [["c", 2]] and j == 1 and str(e) == "N=4: synthetic at 4"
    assert calls == [2, 4]
    assert experiments._item_rows(kernel, "c", "N", [2, 3]) == ([["c", 2], ["c", 3]], None)


@pytest.mark.parametrize("workers, ratio", [(1, 1.15), (2, 1.35)])
def test_artin_scan_peaks_near_what_it_returns(monkeypatch, workers, ratio):
    # each record is held once: beside the records, the runner keeps the
    # list of each share and, with several processes, the list it returns.
    # One-record lists, a flattened copy and each child's whole pickle
    # peaked at 1.44x and 1.81x of what the scan returns.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tracemalloc.start()
    try:
        recs = artin_scan(ScanConfig(d=5, bound=10**4, workers=workers))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(recs) == 10**4 - 1
    assert peak <= ratio * kept, (peak, kept)


def run_python(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports quadcf from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


# in a fresh interpreter, so that a runner which hangs or leaves children
# fails this test rather than the test session
_CHILDREN_LEFT = """
try:
    os.waitpid(-1, os.WNOHANG)
    print("children left")
except ChildProcessError:
    print("no child left")
"""


def test_a_dead_worker_fails_the_scan():
    code = """if 1:
        import os, signal, sys
        from quadcf import cli, experiments
        os.sched_getaffinity = lambda pid: {0, 1}
        parent, real = os.getpid(), experiments._artin_item

        def dying(ctx, n):
            if n in (5, 6) and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(ctx, n)

        experiments._artin_item = dying
        print(cli.main(["artin", "--d", "5", "--sequence", "integers", "--bound", "11",
                        "--workers", "2", "--output", os.devnull]))
    """ + _CHILDREN_LEFT
    res = run_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["3", "no child left", ""]
    # the caller works N = 2, 4, ..., 10; the child N = 3, 5, ..., 11 and dies at N=5
    assert res.stderr == ("internal invariant violated: the worker of 5 items from N=3 "
                          f"was killed by signal {signal.SIGKILL.value}\n")


def test_a_worker_killed_while_it_writes_fails_the_scan():
    # half a pickle in the pipe: the parent's load fails, and the exit status names the cause
    code = """if 1:
        import os, pickle, signal
        from quadcf import cli
        os.sched_getaffinity = lambda pid: {0, 1}

        def half_dump(obj, f, protocol=None):
            data = pickle.dumps(obj, protocol)
            f.write(data[:len(data) // 2])
            f.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        pickle.dump = half_dump
        print(cli.main(["artin", "--d", "5", "--sequence", "integers", "--bound", "11",
                        "--workers", "2", "--output", os.devnull]))
    """ + _CHILDREN_LEFT
    res = run_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["3", "no child left", ""]
    assert res.stderr == ("internal invariant violated: the worker of 5 items from N=3 "
                          f"was killed by signal {signal.SIGKILL.value}\n")


def test_a_refused_fork_exits_2_with_one_line():
    # at 3 CPUs the runner forks twice; the second fork fails as under a process limit
    code = """if 1:
        import errno, os
        from quadcf import cli
        os.sched_getaffinity = lambda pid: {0, 1, 2}
        real_fork, forks = os.fork, []

        def fork():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        os.fork = fork
        fds = sorted(os.listdir("/dev/fd"))
        print(cli.main(["artin", "--d", "5", "--sequence", "integers", "--bound", "11",
                        "--workers", "3", "--output", os.devnull]))
        print("fds closed" if sorted(os.listdir("/dev/fd")) == fds else "fds left open")
    """ + _CHILDREN_LEFT
    res = run_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["2", "fds closed", "no child left", ""]
    reason = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
    assert res.stderr == f"error: cannot start worker processes: {reason}\n"


def test_an_interrupt_in_the_callers_share_reaps_every_child():
    code = """if 1:
        import os, time
        from quadcf import experiments
        os.sched_getaffinity = lambda pid: {0, 1, 2}
        parent = os.getpid()

        def kernel(ctx, n):
            if n in (1, 2) and os.getpid() != parent:
                time.sleep(30)  # each child's first item: only a kill ends it in time
            elif n == 3:
                raise KeyboardInterrupt
            return [n]

        try:
            experiments.run_items(kernel, None, list(range(9)), 3)
        except KeyboardInterrupt:
            print("interrupted")
    """ + _CHILDREN_LEFT
    res = run_python(code, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["interrupted", "no child left", ""]


def test_converge_setup_factors_the_radicand_once(monkeypatch):
    real = arith.factorize
    factored = []

    def counting(n):
        factored.append(n)
        return real(n)

    for mod in (quad_orders, matrix_orders, class_geodesics, experiments):
        monkeypatch.setattr(mod, "factorize", counting, raising=False)
    # stop before the items: only the set-up runs, and each item gets no rows
    ctxs = []

    def setup_only(kernel, ctx, ns, workers):
        ctxs.append(ctx)
        return [[] for _ in ns]

    monkeypatch.setattr(experiments, "run_items", setup_only)
    for p, r, d, q in ((0, 1, 2, 1), (1, 3, 5, 2), (0, 1, 1001, 1), (-2, 7, 10**18 + 1, 5)):
        factored.clear()
        assert converge_scan(ScanConfig(p=p, r=r, d=d, q=q)) == []
        base, fdata, _ = ctxs.pop()
        assert factored == [base.D]
        assert fdata == quad_orders.field_data(d)


def test_cli_import_leaves_multiprocessing_out():
    res = run_python("import sys, quadcf.cli; print('multiprocessing' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_duke_scan_invariant_error_names_the_disc(monkeypatch):
    def _total_length(disc, D0, f):
        raise InvariantError("synthetic")

    monkeypatch.setattr(experiments, "_total_length", _total_length)
    with pytest.raises(InvariantError, match=r"^disc=5: synthetic$"):
        duke_scan(5, 8)


def test_artin_stats_handmade():
    recs = [
        OrderRecord(7, 16, math.log(16) / math.log(7), INERT, True),
        OrderRecord(11, 10, math.log(10) / math.log(11), SPLIT, True),
        OrderRecord(5, 20, math.log(20) / math.log(5), RAMIFIED, None),
        OrderRecord(29, 14, math.log(14) / math.log(29), SPLIT, False),
    ]
    st = artin_stats(recs)
    assert set(st["densities"]) == {0.7, 0.8, 0.9}
    # ord >= N^0.8 for 16>7^.8, 10>11^.8(6.8), 20>5^.8, 14<29^.8(14.8)
    assert st["densities"][0.8] == 3 / 4
    assert st["exceptions"] == [29]
    # all prime records count in the denominator; the ramified one can
    # never be maximal (is_max None)
    assert st["prime_max_density"] == 2 / 4


def test_duke_discs():
    assert duke_discs(5, 21, False) == [5, 8, 12, 13, 17, 20, 21]  # no square 16
    assert duke_discs(5, 21, True) == [5, 8, 12, 13, 17, 21]
    assert duke_discs(-10, 8, False) == [5, 8]
    with pytest.raises(UsageError):
        duke_discs(10, 5, False)
    with pytest.raises(UsageError):
        duke_discs(26, 27, False)  # 2 and 3 mod 4 only
    with pytest.raises(UsageError, match=str(MAX_ITEMS)):
        duke_discs(5, 10**18, False)  # refused before the walk starts
    assert duke_discs(-10**18, 8, False) == [5, 8]  # the window starts at 5


def test_duke_discs_are_the_discriminants_forms_accept():
    discs = set(duke_discs(-10, 5000, False))
    for d in range(-10, 5001):
        try:
            class_geodesics._check_disc(d)
            accepted = True
        except ValueError:
            accepted = False
        assert (d in discs) == accepted, d


def test_duke_scan_hands_its_discriminants_to_the_runner(monkeypatch):
    calls = []

    def recording(kernel, ctx, ns, workers, label="N"):
        calls.append((ns, workers, label))
        return [kernel(ctx, n) for n in ns]  # one value per item

    monkeypatch.setattr(experiments, "run_items", recording)
    for dmin, dmax, fundamental_only in ((5, 60, False), (5, 60, True), (100, 130, False)):
        calls.clear()
        rows = duke_scan(dmin, dmax, fundamental_only)
        discs = duke_discs(dmin, dmax, fundamental_only)
        assert calls == [(discs, 1, "disc")]  # one process, failures named by disc
        assert [r.disc for r in rows] == discs


def test_duke_scan_factors_each_valid_disc_once(monkeypatch):
    # the fundamental-only filter factors each valid disc; a kept one is its
    # own D0 with f = 1, so its total length does not factor it again
    calls = []

    def counting(n):
        calls.append(n)
        return arith.factorize(n)

    valid = duke_discs(10000, 10400, False)
    for module in (class_geodesics, quad_orders, matrix_orders):
        monkeypatch.setattr(module, "factorize", counting)
    assert len(duke_scan(10000, 10400, True)) == 120
    assert calls == valid and len(valid) == 199
    calls.clear()
    duke_scan(10000, 10400, False)  # each disc once; the rest are conductors and p +- 1
    assert [n for n in calls if n >= 10000] == valid


def test_duke_scan_rows():
    rows = duke_scan(5, 60, fundamental_only=True)
    by_disc = {r.disc: r for r in rows}
    assert by_disc[40].h == 2
    assert abs(by_disc[40].exponent - total_length(40).exponent) < 1e-15
    for r in rows:
        assert abs(r.total_length - r.h * r.reg) < 1e-12


def test_duke_stats_handmade():
    rows = [
        TotalLength(16 + i, 1, 1.0, 1.0, 0.5 + 0.1 * i) for i in range(3)  # k = 4
    ] + [TotalLength(40, 2, 1.0, 2.0, 1.1)]  # k = 5
    st = duke_stats(rows)
    assert set(st["blocks"]) == {4, 5}
    assert st["blocks"][4]["n"] == 3
    assert st["blocks"][4]["mean"] == pytest.approx(0.6)
    assert st["median_exponent"] == pytest.approx(0.65)  # of 0.5 0.6 0.7 1.1
    lines = duke_summary_lines(st)
    assert lines[-1].startswith("median_exponent:")


def test_render_table_csv_and_json():
    class Row(NamedTuple):  # declaration order, not name order, sets the columns
        b: object
        a: int
        c: object

    rows = [Row(True, 1, None), Row(0.5, 2, "x")]
    assert render_table(Row, rows, "csv") == "b,a,c\ntrue,1,\n0.5,2,x\n"
    text = render_table(Row, rows, "json")
    assert json.loads(text) == [
        {"b": True, "a": 1, "c": None},
        {"b": 0.5, "a": 2, "c": "x"},
    ]
    assert list(json.loads(text)[0]) == ["b", "a", "c"]
    for fmt in ("xml", "CSV", ""):  # no other format falls through to JSON
        with pytest.raises(UsageError, match=f"^unknown format {fmt!r}$"):
            render_table(Row, rows, fmt)


class EdgeRow(NamedTuple):
    x: object
    y: object
    s: object


EDGE_ROWS = [
    EdgeRow(float("nan"), float("inf"), "plain"),
    EdgeRow(float("-inf"), -0.0, "comma, here"),
    EdgeRow(True, False, 'a "quoted" word'),
    EdgeRow(None, 10**200, "two\nlines"),
    EdgeRow(-(10**200), 5e-324, "tab\there"),
    EdgeRow(1e16, 0, "na\u00efve \u221e"),
]


def _reference_table(row_type, rows, fmt):
    # the one-shot encoders the streamed writer must match byte for byte
    if fmt == "json":
        return json.dumps([row._asdict() for row in rows], indent=2, allow_nan=True) + "\n"

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else "" if v is None else str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(row_type._fields)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()


def test_streamed_tables_match_the_one_shot_encoders(tmp_path, capsys):
    tables = {
        EdgeRow: EDGE_ROWS,
        DeviationRow: converge_scan(ScanConfig(bound=60, patterns=((1,), (2,), (1, 1)))),
        OrderRecord: artin_scan(ScanConfig(d=5, sequence="integers", bound=300)),
        TotalLength: duke_scan(5, 300),
    }
    assert {r.is_max for r in tables[OrderRecord]} == {None, True, False}
    target = tmp_path / "table"
    for row_type, rows in tables.items():
        for part in ([], rows[:1], rows):
            for fmt in ("csv", "json"):
                want = _reference_table(row_type, part, fmt)
                assert render_table(row_type, part, fmt) == want, (row_type, len(part), fmt)
                emit(experiments._table_chunks(row_type, part, fmt), str(target))
                assert target.read_text() == want
                emit(experiments._table_chunks(row_type, part, fmt), None)
                assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_memory_does_not_grow_with_the_rows(tmp_path, fmt):
    rows = [
        DeviationRow(n, n % 3 == 0, n % 97, "1-2", n, 2 * n + 1, 0.41503749927884376,
                     1 / n, 5 * n * n, 0.5 + 1 / n)
        for n in range(1, 40_001)
    ]
    target = str(tmp_path / "table")

    def peak(table):
        # tracing starts after the rows exist: what is counted is the writer's
        tracemalloc.start()
        try:
            emit(experiments._table_chunks(DeviationRow, table, fmt), target)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(rows[:10_000]), peak(rows)
    text = os.path.getsize(target)  # 40 000 rows: megabytes of text
    assert large < small + 64 * 1024, (small, large)
    assert large < text / 8, (large, text)  # not a copy of the table


def test_emit_to_file_and_stream(tmp_path, capsys):
    target = tmp_path / "out.csv"
    emit(["hello\n", "world\n"], str(target))
    assert target.read_text() == "hello\nworld\n"
    emit(["to-stdout\n"], None)
    assert capsys.readouterr().out == "to-stdout\n"
